"""repro — data-triggered threads: runtime, simulator, and evaluation.

A production-quality reproduction of Hung-Wei Tseng and Dean M. Tullsen,
*Data-triggered threads: Eliminating redundant computation* (HPCA 2011).

Three entry points, by audience:

* **Use the model in Python** — :class:`~repro.core.runtime.DttRuntime`:
  tracked arrays + decorated support threads + ``tcheck`` consume points.
  See ``examples/quickstart.py``.
* **Run programs on the simulated machine** — build DTIR programs with
  :class:`~repro.isa.builder.ProgramBuilder`, execute them functionally
  (:class:`~repro.machine.machine.Machine`) or timed
  (:class:`~repro.timing.system.TimingSimulator`), attach a
  :class:`~repro.core.engine.DttEngine` for the DTT semantics.
* **Reproduce the paper** — ``dtt-harness run all`` (or
  :mod:`repro.harness`) regenerates every table and figure, E1–E8.

This package and each of its subpackages re-export names lazily
(:func:`lazy_exports`): ``import repro`` loads no subpackage, and
``from repro import Machine`` loads only the modules ``Machine`` needs.
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict):
    """Re-export names of ``package``'s modules on first access (PEP 562).

    ``exports`` maps a module path relative to ``package`` to the names
    it defines that the package re-exports.  Returns the package's
    ``__getattr__``, ``__dir__`` and ``__all__``: a name's module is
    imported the first time the name is read, and the value is then
    bound in the package, so importing a package imports none of its
    modules.  A name that is also a submodule's must be bound eagerly:
    importing the submodule binds the module under that name.
    """
    home = {name: module for module, names in exports.items()
            for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__, list(home)


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "errors": ("ReproError",),
    "isa.instructions": ("Instruction",),
    "isa.program": ("Program",),
    "isa.builder": ("ProgramBuilder",),
    "machine.machine": ("Machine", "run_to_completion"),
    "machine.memory": ("Memory",),
    "cache.hierarchy": ("CacheHierarchy", "HierarchyParams"),
    "timing.params": ("SystemConfig", "named_config"),
    "timing.system": ("TimingSimulator",),
    "core.config": ("DttConfig",),
    "core.engine": ("DttEngine",),
    "core.runtime": ("DttRuntime", "TrackedArray"),
    "core.queue": ("ThreadQueue",),
    "core.registry": ("ThreadRegistry", "TriggerSpec"),
    "profiling.redundancy": ("RedundantLoadProfiler",),
    "profiling.report": ("profile_program",),
    "workloads.suite": ("SUITE", "get_workload"),
    "workloads.base": ("verify_workload",),
    "harness.runner": ("SuiteRunner",),
    "harness.experiments": ("run_experiment",),
})
__all__.append("__version__")
