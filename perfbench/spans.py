"""Timing and counting wrappers around the program's layer boundaries.

The benchmark wraps public methods of the simulator's classes from the
outside, so the program under test carries no tracing code.  Every wrapper
opens a span: it counts the call and adds the span's *self* time (its
duration minus the part covered by nested spans) to its layer.  Spans nest
through one shared stack, so the self times of all layers plus the time
spent outside any span add up to the wall time of the traced process.

Layer names are ``<module>.<boundary>`` after the ``repro`` package that owns
the wrapped method.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: layer -> (module, class, method) boundaries whose calls it counts
LAYER_METHODS: Dict[str, List[Tuple[str, str, str]]] = {
    "machine.step": [("repro.machine.machine", "Machine", "step")],
    "machine.run": [("repro.machine.machine", "Machine", "run")],
    "timing.run": [("repro.timing.system", "TimingSimulator", "run")],
    "timing.cycle": [("repro.timing.core", "SmtCore", "cycle")],
    "timing.branch": [("repro.timing.branch", "BranchPredictor",
                       "predict_and_update")],
    "cache.access": [("repro.cache.hierarchy", "CacheHierarchy", "access")],
    "core.tstore": [("repro.core.engine", "DttEngine",
                     "on_triggering_store")],
    "core.dispatch": [("repro.core.engine", "DttEngine", "dispatch_pending")],
    "profiling.observer": [
        (module, cls, hook)
        for module, cls in (
            ("repro.profiling.redundancy", "RedundantLoadProfiler"),
            ("repro.profiling.slices", "RedundancyTaintAnalyzer"),
        )
        for hook in ("on_instruction", "on_load", "on_store", "on_branch",
                     "on_halt")
    ],
}

#: Workload methods whose time is set-up, not simulation
BUILD_METHODS = ("make_input", "build_baseline", "build_dtt",
                 "build_dtt_watch", "reference_output")


def workload_classes() -> List[type]:
    """Every workload class the harness can run: the suite plus the
    experiment-only workloads of E8 and E9, with their bases."""
    import repro.workloads.ablation  # noqa: F401  (registers subclasses)
    import repro.workloads.overlap  # noqa: F401
    import repro.workloads.suite  # noqa: F401
    from repro.workloads.base import Workload

    classes, pending = [], [Workload]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return classes


class Tracer:
    """Per-layer call counts and self times, kept in memory.

    ``install`` swaps the wrapped methods in on their classes and
    ``uninstall`` puts the originals back, so one process can trace, stop,
    and run untraced again.
    """

    def __init__(self, layers=None):
        """Wrap ``layers`` (default: every layer of ``LAYER_METHODS``) and,
        always, the workloads' set-up methods."""
        #: layer -> [calls, self seconds]
        self.stats: Dict[str, List] = {}
        #: stack of child-span seconds; the bottom entry collects the
        #: durations of top-level spans
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[type, str, object]] = []
        targets: List[Tuple[str, type, str]] = []
        for layer in (LAYER_METHODS if layers is None else layers):
            for module, cls_name, method in LAYER_METHODS[layer]:
                cls = getattr(importlib.import_module(module), cls_name)
                targets.append((layer, cls, method))
        for cls in workload_classes():
            for method in BUILD_METHODS:
                # only functions a class defines itself, so a super() call
                # nests as its own span instead of reaching a second
                # wrapper of the same function
                if method in vars(cls):
                    targets.append(("workloads.build", cls, method))
        for layer, _cls, _method in targets:
            self.stats.setdefault(layer, [0, 0.0])
        self._targets = targets
        #: solo-context counters (see ``_solo_probe``)
        self.iterated_cycles = 0
        self.solo_cycles = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, layer: str, fn: Callable,
              before: Callable = None) -> Callable:
        stats = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(*args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return span

    def _solo_probe(self) -> Callable:
        """Per simulated cycle (core 0's issue call): is exactly one context
        RUNNING and the engine queue empty?  That is the state a
        single-context fast path could exploit."""
        from repro.machine.context import ContextState

        running_state = ContextState.RUNNING
        tracer = self

        def probe(core, now):
            if core.core_id:
                return
            tracer.iterated_cycles += 1
            machine = core.machine
            running = 0
            for ctx in machine.contexts:
                if ctx.state is running_state:
                    running += 1
            engine = machine.dtt_engine
            if running == 1 and (engine is None or not engine.queue):
                tracer.solo_cycles += 1

        return probe

    def install(self) -> "Tracer":
        for layer, cls, method in self._targets:
            before = (self._solo_probe() if layer == "timing.cycle"
                      else None)
            self._patches.append((cls, method, vars(cls).get(method)))
            setattr(cls, method,
                    self._span(layer, getattr(cls, method), before))
        return self

    def uninstall(self) -> None:
        while self._patches:
            cls, method, original = self._patches.pop()
            if original is None:
                delattr(cls, method)  # it was inherited; unshadow it
            else:
                setattr(cls, method, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.stats[layer][0]

    def self_seconds(self, layer: str) -> float:
        return self.stats[layer][1]

    def spanned_seconds(self) -> float:
        """Summed self time of every layer: the wall time spent inside
        any span."""
        return self._stack[0]
