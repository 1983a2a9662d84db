"""Functional execution substrate: memory, contexts, and the machine.

The machine executes finalized DTIR programs.  It is *functional only* —
every instruction takes effect immediately and completely; all timing
(cycles, cache latencies, SMT contention) lives in :mod:`repro.timing`,
which drives the machine one instruction at a time and charges cycles
around it.  The DTT extensions (``tst``, ``tcheck``, ``treturn``) are
delegated to an installed :class:`repro.core.engine.DttEngine`; without an
engine, triggering stores behave as plain stores and ``tcheck`` is a no-op,
which is exactly the paper's baseline machine.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "memory": ("Memory",),
    "context": ("Context", "ContextRole", "ContextState"),
    "events": ("MachineObserver", "TraceObserver"),
    "debugger": ("Debugger", "StopEvent", "StopKind"),
    "loader": ("load_program",),
    "machine": ("Machine", "run_to_completion"),
})
