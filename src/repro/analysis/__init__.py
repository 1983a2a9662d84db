"""Static analysis of DTIR programs: dataflow framework + DTT safety checks.

The paper's correctness contract is strict: a data-triggered thread's
computation may depend only on the triggering store's data and on memory
that does not change between the trigger and the consume point.  Nothing
at runtime checks that contract — a violating conversion silently computes
wrong answers whenever the skip fires.  This package checks it statically:

* :mod:`repro.analysis.findings` — the shared finding model (severity,
  code, pc, message) with JSON serialization and baseline suppression;
* :mod:`repro.analysis.cfg` — basic-block control-flow graphs over
  finalized programs, with call/ret return-site modeling, dominators, and
  per-thread region slicing;
* :mod:`repro.analysis.dataflow` — a generic worklist solver plus the
  stock analyses (reaching definitions, liveness, constant/address
  propagation over the ISA's ``base+offset`` addressing);
* :mod:`repro.analysis.symbolic` — affine symbolic tracking of thread
  addresses over the trigger arguments (``r1``–``r3``), the overlap
  algebra behind the v2 race checks, and parameterized-region recovery
  proofs used by the autoconvert pipeline;
* :mod:`repro.analysis.checks` — the DTT safety passes built on top
  (trigger coverage, read/write races, consume-before-complete,
  uninitialized registers, parameterized races), surfaced as
  ``dtt-harness analyze``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "findings": (
        "ERROR", "WARNING", "Baseline", "Finding", "Severity", "errors_only",
        "findings_to_json"),
    "checks": (
        "CHECKS", "CHECK_VERSIONS", "analysis_summary", "analyze_build",
        "analyze_program", "analyze_workload", "summarize_workload"),
    "symbolic": (
        "Affine", "ParamRecovery", "overlap_verdict", "prove_param_recovery",
        "symbolic_report"),
    "lint": ("lint_program",),
})
