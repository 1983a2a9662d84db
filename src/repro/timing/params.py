"""Timing-model parameters and named machine configurations.

The defaults approximate the paper's simulated machine (an SMTSIM-class
out-of-order SMT processor): 4-wide issue, 2 hardware contexts per core,
short integer latencies, long divide/sqrt, a two-level cache hierarchy,
and a gshare branch predictor.  Experiment E7 prints this table.

Named configurations used by the evaluation:

* ``smt2`` — one core, two SMT contexts (the paper's main configuration:
  support threads run on the spare context, sharing the L1).
* ``cmp2`` — two single-context cores (support threads run on the idle
  core: concurrency without L1 sharing, plus coherence traffic).
* ``smt4`` — one core, four SMT contexts (headroom sensitivity).
* ``serial`` — one core, one context (no spare context: support threads
  run inline at the consume point; skip benefit only).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.hierarchy import HierarchyParams
from repro.isa.instructions import OpClass


class CoreParams:
    """Per-core issue and functional-unit parameters."""

    __slots__ = (
        "issue_width",
        "latency",
        "mispredict_penalty",
        "load_hide_latency",
        "spawn_latency",
    )

    def __init__(
        self,
        issue_width: int = 4,
        mispredict_penalty: int = 12,
        load_hide_latency: int = 2,
        spawn_latency: int = 4,
        latency: Optional[Dict[OpClass, int]] = None,
    ):
        self.issue_width = issue_width
        self.mispredict_penalty = mispredict_penalty
        #: loads at or below this latency are treated as fully pipelined
        #: (an L1 hit does not stall the context)
        self.load_hide_latency = load_hide_latency
        #: cycles to fire up a support thread on a spare context
        self.spawn_latency = spawn_latency
        self.latency = {
            OpClass.IALU: 1,
            OpClass.IMUL: 3,
            OpClass.IDIV: 12,
            OpClass.FPADD: 2,
            OpClass.FPMUL: 4,
            OpClass.FPDIV: 16,
            OpClass.STORE: 1,
            OpClass.TSTORE: 1,
            OpClass.BRANCH: 1,
            OpClass.JUMP: 1,
            OpClass.SYS: 1,
            OpClass.LOAD: 1,  # overridden by the cache hierarchy
        }
        if latency:
            self.latency.update(latency)

    def __repr__(self) -> str:
        return (
            f"CoreParams(width={self.issue_width}, "
            f"mispredict={self.mispredict_penalty}, "
            f"spawn={self.spawn_latency})"
        )


class SystemConfig:
    """Whole-machine configuration: cores, contexts, caches, cycle limit."""

    __slots__ = (
        "name",
        "num_cores",
        "contexts_per_core",
        "core_params",
        "hierarchy_params",
        "max_cycles",
    )

    def __init__(
        self,
        name: str = "custom",
        num_cores: int = 1,
        contexts_per_core: int = 2,
        core_params: Optional[CoreParams] = None,
        hierarchy_params: Optional[HierarchyParams] = None,
        max_cycles: int = 200_000_000,
    ):
        if num_cores < 1 or contexts_per_core < 1:
            raise ValueError("need at least one core and one context per core")
        self.name = name
        self.num_cores = num_cores
        self.contexts_per_core = contexts_per_core
        self.core_params = core_params or CoreParams()
        self.hierarchy_params = hierarchy_params or HierarchyParams()
        self.max_cycles = max_cycles

    @property
    def total_contexts(self) -> int:
        return self.num_cores * self.contexts_per_core

    def parameter_table(self) -> Dict[str, str]:
        """The E7 'simulated machine configuration' table rows."""
        core = self.core_params
        hier = self.hierarchy_params
        return {
            "configuration": self.name,
            "cores": str(self.num_cores),
            "SMT contexts / core": str(self.contexts_per_core),
            "issue width": str(core.issue_width),
            "branch predictor": "gshare",
            "mispredict penalty": f"{core.mispredict_penalty} cycles",
            "int mul / div": (
                f"{core.latency[OpClass.IMUL]} / {core.latency[OpClass.IDIV]} cycles"
            ),
            "fp add / mul / div": (
                f"{core.latency[OpClass.FPADD]} / {core.latency[OpClass.FPMUL]} / "
                f"{core.latency[OpClass.FPDIV]} cycles"
            ),
            "L1D": (
                f"{hier.l1_lines} lines x {hier.l1_associativity}-way, "
                f"{hier.line_words}-word lines, {hier.l1_latency}-cycle hit"
            ),
            "L2 (shared)": (
                f"{hier.l2_lines} lines x {hier.l2_associativity}-way, "
                f"{hier.l2_latency}-cycle hit"
            ),
            "memory latency": f"{hier.memory_latency} cycles",
            "thread spawn latency": f"{core.spawn_latency} cycles",
        }

    def __repr__(self) -> str:
        return (
            f"SystemConfig({self.name!r}, cores={self.num_cores}, "
            f"contexts/core={self.contexts_per_core})"
        )


_NAMED = {
    "smt2": dict(num_cores=1, contexts_per_core=2),
    "smt4": dict(num_cores=1, contexts_per_core=4),
    "cmp2": dict(num_cores=2, contexts_per_core=1),
    "serial": dict(num_cores=1, contexts_per_core=1),
}


def named_config(name: str, **overrides) -> SystemConfig:
    """Build one of the evaluation's named machine configurations."""
    try:
        base = dict(_NAMED[name])
    except KeyError:
        raise ValueError(
            f"unknown configuration {name!r}; choose from {sorted(_NAMED)}"
        ) from None
    base.update(overrides)
    return SystemConfig(name=name, **base)
