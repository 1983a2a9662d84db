"""Automatic DTT conversion: profile → synthesize → prove → accept.

The paper's conversions (and the 17 hand builds in
:mod:`repro.workloads`) were produced by a human reading profiles.  This
package closes that loop for *builder-shaped* programs:

* :mod:`repro.autoconvert.candidates` — finds store-site → consumer-region
  pairs in a finalized non-DTT program (static single-entry/single-exit
  region discovery over the CFG, then redundancy-profiler scoring:
  silent-store fraction of the feeding stores × downstream
  redundant-load mass of the region, CI-lower-bound ranked when the
  profile is sampled);
* :mod:`repro.autoconvert.synthesize` — rewrites the instruction stream:
  region body → support thread with ``treturn``, feeding stores →
  triggering stores, a ``tcheck`` where the region used to run, plus a
  priming copy at entry, with branch targets re-resolved and register
  safety guaranteed by the candidate contract;
* :mod:`repro.autoconvert.gate` — accepts a candidate only when the
  seven static safety checks report zero errors, the functional output
  is bit-identical to the baseline, *and* the timing simulator shows a
  cycle win; greedy search over the ranked candidate set with counted
  rejection reasons.

Surface: ``dtt-harness convert --workload <w>`` and
:func:`repro.autoconvert.gate.convert_program`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "candidates": (
        "ConversionCandidate", "discover_candidates", "rank_candidates"),
    "gate": ("REJECTION_REASONS", "ConversionResult", "convert_program"),
    "synthesize": ("SynthesisResult", "synthesize"),
})

# ``synthesize`` is also a submodule's name, and importing the submodule
# binds the module here, so the function is bound eagerly
from repro.autoconvert.synthesize import synthesize  # noqa: E402
