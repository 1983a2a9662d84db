"""Parallel execution subsystem: run plans, the process-pool scheduler,
the content-addressed result store, and regression compare.

* :mod:`repro.exec.plan` — the deduplicated run matrix experiments share
  (:class:`RunSpec` is the identity of a run everywhere: memo key,
  canonical string, store address);
* :mod:`repro.exec.store` — the persistent on-disk backend behind
  ``SuiteRunner``'s in-memory memo;
* :mod:`repro.exec.pool` — ``ProcessPoolExecutor`` scheduling of a plan
  across N workers;
* :mod:`repro.exec.compare` — direction-aware regression diffing of two
  stored result sets, results files, or manifests.

``plan`` and ``store`` re-export their names lazily; ``pool`` and
``compare`` are imported by name.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "plan": (
        "RunPlan", "RunSpec", "build_plan", "canonical_run_name",
        "config_fingerprint"),
    "store": ("ResultStore",),
})
