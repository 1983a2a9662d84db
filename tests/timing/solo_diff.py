"""Differential oracle for the timing simulator's solo run-ahead.

:func:`run_pair` runs one simulation twice: once as shipped, and once
with ``TimingSimulator._solo_context`` patched to never find a solo
context, so every iteration takes the general issue loop.  The solo
run-ahead is cycle-exact only if the two snapshots are equal: every
``TimingResult`` field, the machine's counters and architectural state,
each core's issue counters and rotation, and each context's
``busy_until`` — after a clean halt or after a fault or limit.
"""

import pytest

from repro.timing.params import SystemConfig, named_config
from repro.timing.stats import TimingResult
from repro.timing.system import TimingSimulator

#: every named configuration, plus two SMT cores, so that a core after
#: the solo context's core also has a rotation to keep
CONFIGS = ("smt2", "cmp2", "serial", "smt4", "cmp2x2")


def make_config(name, **overrides):
    """A configuration of :data:`CONFIGS` by name."""
    if name == "cmp2x2":
        return SystemConfig(name, num_cores=2, contexts_per_core=2,
                            **overrides)
    return named_config(name, **overrides)


def _norm(value):
    """NaN-safe comparison key (NaN != NaN would hide agreement)."""
    if isinstance(value, float) and value != value:
        return "NaN"
    return value


def snapshot(sim, error=None):
    """Everything a timed run leaves behind, as a comparable dict."""
    machine = sim.machine
    result = sim._result()
    return {
        "error": error,
        "result": {slot: getattr(result, slot)
                   for slot in TimingResult.__slots__ if slot != "output"},
        "output": [_norm(v) for v in machine.output],
        "now": sim.now,
        "machine": (machine.instructions_executed,
                    machine.main_instructions,
                    machine.support_instructions),
        "memory": {k: _norm(v) for k, v in machine.memory.snapshot().items()},
        "cores": [
            {"issued": core.instructions_issued,
             "busy_cycles": core.busy_cycles,
             "class_counts": core.class_counts,
             "rotation": core._rotation}
            for core in sim.cores
        ],
        "contexts": [
            {"pc": ctx.pc, "state": ctx.state.name, "role": ctx.role.name,
             "busy_until": ctx.busy_until,
             "instruction_count": ctx.instruction_count,
             "regs": [_norm(v) for v in ctx.regs]}
            for ctx in machine.contexts
        ],
    }


def run_once(make_sim, hook=None):
    """Build a simulator, optionally ``hook(sim)`` it, run, snapshot."""
    sim = make_sim()
    if hook is not None:
        hook(sim)
    error = None
    try:
        sim.run()
    except Exception as exc:  # noqa: BLE001 - fault identity is the point
        error = (type(exc).__name__, str(exc))
    return sim, snapshot(sim, error)


def run_pair(make_sim, hook=None):
    """``(solo sim, solo snapshot, step-loop snapshot)`` of one run."""
    sim, solo = run_once(make_sim, hook)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TimingSimulator, "_solo_context", lambda self: None)
        _, stepped = run_once(make_sim, hook)
    return sim, solo, stepped


def assert_solo_exact(make_sim, hook=None, label=""):
    """Run both ways and require identical snapshots; returns the solo
    simulator and its snapshot for further checks."""
    sim, solo, stepped = run_pair(make_sim, hook)
    assert solo == stepped, f"solo run-ahead diverged {label}"
    return sim, solo
