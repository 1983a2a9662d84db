"""Cycle attribution: additive frames, folded stacks, SVG export."""

import pytest

from repro.core import trace as T
from repro.core.trace import EngineTrace
from repro.obs.causality import CausalGraph
from repro.obs.flame import (attribute_cycles, flame_svg,
                             fold_superblock_frames, folded_stacks,
                             hottest_site)


class _FakeEngine:
    def attach_trace(self, trace):
        pass


def _traced_run():
    """Two completed activations at pc=5 (cycles 100+80), one at pc=9
    (50 cycles), one canceled at pc=9 (20 cycles), one suppression."""
    tr = EngineTrace(_FakeEngine())
    specs = [(1, 5, 0, 100), (2, 5, 300, 80), (3, 9, 600, 50)]
    for act, pc, base, execute in specs:
        tr.record(T.FIRED, "thr", address=10 + act, activation_id=act,
                  pc=pc, cycle=base)
        tr.record(T.ENQUEUED, "thr", address=10 + act, activation_id=act,
                  cycle=base)
        tr.record(T.DISPATCHED, "thr", activation_id=act, cycle=base + 10)
        tr.record(T.COMPLETED, "thr", activation_id=act,
                  cycle=base + 10 + execute)
    tr.record(T.FIRED, "thr", address=99, activation_id=4, pc=9, cycle=900)
    tr.record(T.ENQUEUED, "thr", address=99, activation_id=4, cycle=900)
    tr.record(T.DISPATCHED, "thr", activation_id=4, cycle=905)
    tr.record(T.CANCELED, "thr", activation_id=4, cycle=925)
    tr.record(T.TSTORE, "thr", address=50, detail="1->1", pc=5, cycle=950)
    tr.record(T.SUPPRESSED, "thr", address=50, pc=5, cycle=950)
    return tr


@pytest.fixture
def attribution():
    graph = CausalGraph.from_trace(_traced_run())
    return attribute_cycles("mcf", graph, total_cycles=1000)


def test_frames_are_additive(attribution):
    assert attribution["unit"] == "cycles"
    assert attribution["total"] == 1000.0
    # 100 + 80 + 50 completed + 20 canceled = 250 support cycles
    assert attribution["support_total"] == 250.0
    total = sum(f["value"] for f in attribution["frames"])
    assert total == pytest.approx(1000.0)
    (main,) = [f for f in attribution["frames"] if f["kind"] == "main"]
    assert main["value"] == 750.0


def test_sites_sorted_hottest_first(attribution):
    support = [f for f in attribution["frames"] if f["kind"] == "support"]
    assert [f["name"] for f in support] == ["pc=0x5", "pc=0x9"]
    assert support[0]["value"] == 180.0
    assert support[1]["value"] == 70.0  # 50 completed + 20 canceled
    assert "1 canceled" in support[1]["detail"]
    assert "suppressed 1" in support[0]["detail"]


def test_hottest_site_names_the_heaviest_pc(attribution):
    hot = hottest_site(attribution)
    assert hot["name"] == "pc=0x5"
    assert hot["value"] == 180.0
    assert hottest_site({"frames": []}) is None


def test_folded_stacks_format(attribution):
    lines = folded_stacks(attribution).splitlines()
    assert "mcf;main 750" in lines
    assert "mcf;support;pc=0x5 180" in lines
    assert "mcf;support;pc=0x9 70" in lines


def test_svg_is_self_contained_with_site_anchors(attribution):
    svg = flame_svg(attribution)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert 'id="flame-mcf-pc0x5"' in svg
    assert 'id="flame-mcf-pc0x9"' in svg
    assert "<script" not in svg
    assert svg.count("<title>") >= 4  # total, main, support, sites
    # well-formed XML (also catches unescaped detail text)
    import xml.etree.ElementTree as ET
    ET.fromstring(svg)


def test_fold_superblock_frames_names_entry_pcs():
    report = (
        "   100  0.5  <superblock>:41(sb_18)\n"
        "     1  0.0  <superblock>:1(<module>)\n"
        "    10  0.1  src/repro/machine/machine.py:700(thunk)\n"
    )
    folded = fold_superblock_frames(report)
    assert "sb:18" in folded
    assert "sb:<module>" in folded
    assert "<superblock>" not in folded
    assert "machine.py:700(thunk)" in folded  # only sb frames fold


def test_fold_superblock_frames_matches_real_compiled_code():
    # the fold must track the real filename/name scheme the compiler uses
    from repro.machine.machine import Machine, run_to_completion
    from repro.machine.superblock import SB_FILENAME
    from repro.workloads.suite import SUITE

    from tests.conftest import every_block_compiled

    workload = SUITE["mcf"]
    machine = every_block_compiled(
        Machine(workload.build_baseline(workload.make_input())))
    run_to_completion(machine)
    entry, block = next((pc, block)
                        for pc, block in enumerate(machine._superblocks)
                        if block is not None
                        and block.__code__.co_filename == SB_FILENAME)
    label = f"{block.__code__.co_filename}:7({block.__name__})"
    assert fold_superblock_frames(label) == f"sb:{entry}"


def test_fold_names_the_entry_of_timed_hot_blocks():
    from repro.timing.blocks import FILENAME, PREFIX

    label = f"   30  0.2  {FILENAME}:12({PREFIX}143)\n"
    assert fold_superblock_frames(label) == "   30  0.2  tb:143\n"


def test_fold_names_the_opcode_of_generated_handlers():
    # profile runs that go through the step handlers, stepped, cold and
    # observed; every generated frame must fold to its opcode
    import cProfile
    import io
    import pstats

    from repro.machine.events import MachineObserver
    from repro.machine.machine import Machine, run_to_completion
    from repro.machine.semantics import FILENAME
    from repro.workloads.suite import SUITE

    class Counter(MachineObserver):
        def on_instruction(self, ctx, pc, instruction):
            pass

    workload = SUITE["mcf"]
    program = workload.build_baseline(workload.make_input())
    profiler = cProfile.Profile()
    profiler.enable()
    machine = Machine(program)
    machine.step(machine.main_context)
    run_to_completion(machine)
    observed = Machine(program)
    observed.add_observer(Counter())
    run_to_completion(observed)
    profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).print_stats()
    report = buffer.getvalue()
    assert FILENAME in report
    folded = fold_superblock_frames(report)
    assert FILENAME not in folded
    for op in ("li", "add", "ldx"):
        assert f"op:{op}\n" in folded


def test_events_unit_trace_fabricates_no_main_band():
    """A trace with no cycle source measures latency in event counts;
    subtracting those from a cycle total would be nonsense."""
    tr = EngineTrace(_FakeEngine())
    tr.record(T.FIRED, "thr", address=10, activation_id=1, pc=5)
    tr.record(T.ENQUEUED, "thr", address=10, activation_id=1)
    tr.record(T.DISPATCHED, "thr", activation_id=1)
    tr.record(T.COMPLETED, "thr", activation_id=1)
    graph = CausalGraph.from_trace(tr)
    attribution = attribute_cycles("mcf", graph, total_cycles=1000)
    assert attribution["unit"] == "events"
    assert [f["kind"] for f in attribution["frames"]] == ["support"]
    flame_svg(attribution)  # still renders


def test_empty_graph_attribution_renders():
    graph = CausalGraph.from_trace(EngineTrace(_FakeEngine()))
    attribution = attribute_cycles("mcf", graph, total_cycles=500)
    (main,) = attribution["frames"]
    assert main["kind"] == "main"
    assert main["value"] == 500.0
    assert folded_stacks(attribution) == "mcf;main 500\n"
    assert "</svg>" in flame_svg(attribution)
