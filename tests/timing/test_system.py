"""Timing simulator: cycle accounting, stalls, SMT sharing, deadlocks."""

import pytest

from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry, TriggerSpec
from repro.errors import ExecutionLimitExceeded, MachineError
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import OpClass
from repro.timing.params import named_config
from repro.timing.stats import EnergyModel
from repro.timing.system import TimingSimulator
from repro.workloads.overlap import OverlapWorkload
from repro.workloads.suite import SUITE

from tests.conftest import build_dtt_sum, expected_dtt_sum


def straightline_program(n_alu=100):
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(1) as (r,):
            b.li(r, 0)
            for _ in range(n_alu):
                b.addi(r, r, 1)
            b.out(r)
        b.halt()
    return b.build()


def test_result_fields_and_output():
    result = TimingSimulator(straightline_program(50)).run()
    assert result.output == [50]
    assert result.cycles > 0
    assert result.instructions == 53  # li + 50 addi + out + halt
    assert 0 < result.ipc <= 4


def test_issue_width_bounds_ipc():
    config = named_config("smt2")
    result = TimingSimulator(straightline_program(400), config).run()
    assert result.ipc <= config.core_params.issue_width
    # pure dependent ALU chain on one context still flows at >1 IPC here
    # (no stalls), bounded below loosely
    assert result.ipc > 0.5


def test_long_latency_ops_cost_more():
    def make(op):
        b = ProgramBuilder()
        with b.function("main"):
            with b.scratch(2) as (x, y):
                b.li(x, 7)
                for _ in range(60):
                    b.emit(op, y, x, x)
            b.halt()
        return b.build()

    fast = TimingSimulator(make("add")).run()
    slow = TimingSimulator(make("idiv")).run()
    assert slow.cycles > 3 * fast.cycles


def test_memory_stalls_show_up_in_cycles():
    def make(stride):
        b = ProgramBuilder()
        b.zeros("xs", 16 * 64)
        with b.function("main"):
            with b.scratch(3) as (base, i, v):
                b.la(base, "xs")
                with b.for_range(i, 0, 60):
                    with b.scratch(1) as (a,):
                        b.muli(a, i, stride)
                        b.ldx(v, base, a)
            b.halt()
        return b.build()

    # stride 0 re-reads one word (L1 hits); stride 16 touches a new line
    # every iteration (cold misses all the way)
    hits = TimingSimulator(make(0)).run()
    misses = TimingSimulator(make(16)).run()
    assert misses.cycles > 2 * hits.cycles
    assert misses.dram_accesses > 50


def test_mispredict_penalty_costs_cycles():
    def make(pattern):
        b = ProgramBuilder()
        b.data("bits", pattern)
        with b.function("main"):
            with b.scratch(3) as (base, i, v):
                b.la(base, "bits")
                with b.for_range(i, 0, len(pattern)):
                    b.ldx(v, base, i)
                    with b.if_(v):
                        b.nop()
            b.halt()
        return b.build()

    steady = TimingSimulator(make([1] * 256)).run()
    import random

    rng = random.Random(7)
    noisy = TimingSimulator(make([rng.randrange(2) for _ in range(256)])).run()
    assert noisy.cycles > steady.cycles
    assert noisy.branch_accuracy < steady.branch_accuracy


def test_cycle_limit_enforced():
    b = ProgramBuilder()
    with b.function("main"):
        b.label("spin")
        b.jmp("spin")
    config = named_config("smt2", max_cycles=500)
    with pytest.raises(ExecutionLimitExceeded):
        TimingSimulator(b.build(), config).run()


def test_deferred_engine_required():
    program, spec = build_dtt_sum([1, 2], [0], [5])
    engine = DttEngine(ThreadRegistry([spec]), deferred=False)
    with pytest.raises(MachineError, match="deferred"):
        TimingSimulator(program, engine=engine)


@pytest.mark.parametrize("config_name", ["smt2", "smt4", "cmp2", "serial"])
def test_dtt_output_correct_under_every_config(config_name):
    values, idx, vals = [1, 2, 3, 4], [0, 1, 1, 2, 0], [5, 2, 9, 3, 5]
    program, spec = build_dtt_sum(values, idx, vals)
    engine = DttEngine(ThreadRegistry([spec]), deferred=True)
    result = TimingSimulator(program, named_config(config_name),
                             engine=engine).run()
    assert result.output == expected_dtt_sum(values, idx, vals)
    assert result.engine_summary is not None


def test_support_instructions_counted_separately():
    values, idx, vals = [1, 2, 3], [0, 1], [9, 9]
    program, spec = build_dtt_sum(values, idx, vals)
    engine = DttEngine(ThreadRegistry([spec]), deferred=True)
    result = TimingSimulator(program, named_config("smt2"),
                             engine=engine).run()
    assert result.support_instructions > 0
    assert (result.main_instructions + result.support_instructions
            == result.instructions)


def test_fast_forward_skips_stall_time():
    """A single DRAM-bound load must not cost one host iteration per cycle;
    we can only observe the *result*: total cycles >> issued instructions
    while the run still completes quickly (covered by the suite timeout),
    and the cycle count is exact: stall cycles appear in the total."""
    b = ProgramBuilder()
    b.zeros("xs", 1)
    with b.function("main"):
        with b.scratch(2) as (base, v):
            b.la(base, "xs")
            b.ld(v, base, 0)  # cold miss: 2 + 12 + 200
        b.halt()
    result = TimingSimulator(b.build()).run()
    assert result.cycles >= 200


def test_energy_model_composition():
    model = EnergyModel(per_instruction=1.0, per_l1_access=0.0,
                        per_l2_access=0.0, per_dram_access=0.0,
                        per_writeback=0.0)
    sim = TimingSimulator(straightline_program(10))
    result = sim.run()
    assert model.energy(result.instructions, sim.hierarchy) == result.instructions
    assert EnergyModel().energy(result.instructions, sim.hierarchy) == result.energy


def test_speedup_over():
    fast = TimingSimulator(straightline_program(10)).run()
    slow = TimingSimulator(straightline_program(1000)).run()
    assert fast.speedup_over(slow) > 1.0
    assert slow.speedup_over(fast) < 1.0


def test_as_dict_round_trips_key_fields():
    result = TimingSimulator(straightline_program(10)).run()
    d = result.as_dict()
    assert d["cycles"] == result.cycles
    assert d["instructions"] == result.instructions
    assert d["engine"] is None


# -- cache conservation on real timed runs -----------------------------------------

_MEMORY_CLASSES = (OpClass.LOAD, OpClass.STORE, OpClass.TSTORE)


@pytest.mark.parametrize("kind", ["baseline", "dtt"])
@pytest.mark.parametrize("config_name", ["smt2", "smt4", "cmp2", "serial"])
@pytest.mark.parametrize("workload_name", ["art", "twolf", "overlap"])
def test_cache_traffic_is_conserved(workload_name, config_name, kind):
    """Every miss goes one level down and every memory instruction
    probes its core's L1D exactly once, on every configuration."""
    workload = (OverlapWorkload() if workload_name == "overlap"
                else SUITE[workload_name])
    inp = workload.make_input()
    if kind == "baseline":
        sim = TimingSimulator(workload.build_baseline(inp),
                              named_config(config_name))
    else:
        build = workload.build_dtt(inp)
        sim = TimingSimulator(build.program, named_config(config_name),
                              engine=build.engine(deferred=True))
    result = sim.run()
    hierarchy = sim.hierarchy
    l1 = [cache.stats for cache in hierarchy.l1]
    memory_ops = sum(core.class_counts[cls] for core in sim.cores
                     for cls in _MEMORY_CLASSES)
    assert memory_ops > 0
    assert hierarchy.l2.stats.accesses == sum(s.misses for s in l1)
    assert result.dram_accesses == hierarchy.l2.stats.misses
    assert sum(s.accesses for s in l1) == memory_ops
    assert result.coherence_invalidations == sum(s.invalidations for s in l1)
