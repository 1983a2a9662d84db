"""Data-triggered threads — the paper's primary contribution.

This package implements the DTT execution model of Tseng & Tullsen (HPCA
2011) twice, sharing one semantics:

* **Hardware model** (:class:`~repro.core.engine.DttEngine` plus the
  :class:`~repro.core.registry.ThreadRegistry`,
  :class:`~repro.core.queue.ThreadQueue`, and
  :class:`~repro.core.status.ThreadStatusTable`): attaches to a simulated
  :class:`~repro.machine.machine.Machine` and gives the ``tst``/``tcheck``/
  ``treturn`` instructions their meaning.  Used by the evaluation.

* **Software runtime** (:class:`~repro.core.runtime.DttRuntime`): the same
  model for plain Python programs — tracked arrays whose mutations play
  the role of triggering stores, decorated functions as support threads.
  Used by the examples and by anyone adopting the library.

The model in three sentences: a *triggering store* that actually changes
the value at a watched location enqueues its attached *support thread*,
which recomputes some derived data on a spare context.  A store that
writes back the same value triggers nothing.  At the *consume point*
(``tcheck``) the main thread waits for in-flight support threads — and if
the inputs never changed, there is nothing to wait for and the entire
computation is skipped.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("DttConfig",),
    "registry": ("ThreadRegistry", "TriggerSpec"),
    "queue": ("EnqueueResult", "QueueEntry", "ThreadQueue"),
    "status": ("ThreadStatus", "ThreadStatusTable"),
    "engine": ("DttEngine",),
    "runtime": ("DttRuntime", "TrackedArray", "TriggerEvent"),
    "trace": ("EngineEvent", "EngineTrace"),
})
