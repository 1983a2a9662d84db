"""Candidate discovery and profile ranking."""

import pytest

from repro.autoconvert import discover_candidates, rank_candidates
from repro.isa.builder import ProgramBuilder
from repro.workloads.suite import get_workload


def micro_program(steps: int = 8, width: int = 4):
    """A minimal update/recompute/consume kernel in the suite's shape.

    Each step stores an update value into ``xs[0]`` (mostly silent —
    ``upd`` repeats values), recomputes ``sum = Σ xs[i]`` from scratch
    (the convertible region: register-closed, single entry/exit), then
    consumes ``sum`` through ``out``.
    """
    b = ProgramBuilder()
    b.data("xs", [(3, 1, 4, 1)[i % 4] for i in range(width)])
    b.data("upd", [(7, 7, 7, 5, 7, 7, 5, 7)[i % 8] for i in range(steps)])
    b.zeros("sum", 1)
    with b.function("main"):
        t = b.global_reg("t")
        with b.for_range(t, 0, steps):
            with b.scratch(3) as (u, v, x):
                b.la(u, "upd")
                b.ldx(v, u, t)
                b.la(x, "xs")
                b.st(v, x, 0)  # the feeder: mostly-silent update
            with b.scratch(4) as (i, base, s, tmp):
                b.la(base, "xs")  # the region: full recompute of sum
                b.li(s, 0)
                with b.for_range(i, 0, width):
                    b.ldx(tmp, base, i)
                    b.add(s, s, tmp)
                b.la(tmp, "sum")
                b.st(s, tmp, 0)
            with b.scratch(2) as (p, q):
                b.la(p, "sum")  # the consumer
                b.ld(q, p, 0)
                b.out(q)
        b.halt()
    return b.build()


def feeder_ops(program, candidate):
    return [program.instructions[pc].op for pc in candidate.store_pcs]


def test_discovers_the_recompute_region():
    program = micro_program()
    candidates = discover_candidates(program)
    assert len(candidates) == 1
    (candidate,) = candidates
    region_ops = [program.instructions[pc].op
                  for pc in range(candidate.region_start,
                                  candidate.region_end)]
    # the region is the full recompute: loads xs, stores sum
    assert "ldx" in region_ops and "st" in region_ops
    assert "out" not in region_ops
    assert feeder_ops(program, candidate) == ["st"]


def test_region_is_register_closed():
    """Every register the region reads is first defined inside it."""
    from repro.isa.instructions import operand_roles

    program = micro_program()
    (candidate,) = discover_candidates(program)
    defined = set()
    for pc in range(candidate.region_start, candidate.region_end):
        instruction = program.instructions[pc]
        dest, sources = operand_roles(instruction.op)
        for slot in sources:
            assert getattr(instruction, slot) in defined, \
                f"pc {pc} reads a register the region never defined"
        if dest is not None:
            defined.add(getattr(instruction, dest))


def test_no_candidate_when_a_writer_follows_the_region():
    """A store into the region's inputs *after* the consume barrier
    could go stale without re-triggering; discovery must refuse."""
    b = ProgramBuilder()
    b.data("xs", [3, 1, 4, 1])
    b.zeros("sum", 1)
    with b.function("main"):
        t = b.global_reg("t")
        with b.for_range(t, 0, 4):
            with b.scratch(4) as (i, base, s, tmp):
                b.la(base, "xs")
                b.li(s, 0)
                with b.for_range(i, 0, 4):
                    b.ldx(tmp, base, i)
                    b.add(s, s, tmp)
                b.la(tmp, "sum")
                b.st(s, tmp, 0)
            with b.scratch(2) as (p, q):
                b.la(p, "sum")
                b.ld(q, p, 0)
                b.out(q)
                b.la(p, "xs")
                b.stx(q, p, t)  # writer AFTER the region
        b.halt()
    assert discover_candidates(b.build()) == []


def test_no_candidate_without_an_outside_consumer():
    """A region whose result nothing reads is dead work, not a thread."""
    b = ProgramBuilder()
    b.data("xs", [3, 1, 4, 1])
    b.zeros("sum", 1)
    with b.function("main"):
        t = b.global_reg("t")
        with b.for_range(t, 0, 4):
            with b.scratch(2) as (v, x):
                b.la(x, "xs")
                b.li(v, 7)
                b.st(v, x, 0)
            with b.scratch(4) as (i, base, s, tmp):
                b.la(base, "xs")
                b.li(s, 0)
                with b.for_range(i, 0, 4):
                    b.ldx(tmp, base, i)
                    b.add(s, s, tmp)
                b.la(tmp, "sum")
                b.st(s, tmp, 0)
            # nobody ever loads sum
        b.halt()
    assert discover_candidates(b.build()) == []


def test_dtt_programs_yield_no_candidates():
    """Already-converted programs contain DTT ops; nothing to convert."""
    mcf = get_workload("mcf")
    build = mcf.build_dtt(mcf.make_input())
    assert discover_candidates(build.program) == []


def test_mcf_discovery_matches_the_hand_conversion_shape():
    """On mcf the discovered region is the refresh walk, fed by the
    cost-update store — the exact pair the hand conversion uses."""
    mcf = get_workload("mcf")
    program = mcf.build_baseline(mcf.make_input())
    candidates = discover_candidates(program)
    assert len(candidates) == 1
    (candidate,) = candidates
    assert feeder_ops(program, candidate) == ["stx"]
    region_ops = {program.instructions[pc].op
                  for pc in range(candidate.region_start,
                                  candidate.region_end)}
    assert {"ldx", "stx"} <= region_ops


def test_ranking_scores_silentness_times_redundancy():
    program = micro_program()
    (candidate,) = rank_candidates(program)
    assert candidate.dynamic_stores == 8
    # upd = 7,7,7,5,7,7,5,7 into xs[0]=3: stores 2..3, 5..6, 8 are silent
    assert 0 < candidate.silent_stores < candidate.dynamic_stores
    assert candidate.region_loads > 0
    assert candidate.redundant_loads > 0
    # score = silent fraction x redundant-load mass: both factors in
    # (0, 1], so the product is bounded by the silent fraction alone
    assert 0 < candidate.score <= candidate.silent_fraction
    assert candidate.ci_low is None  # exact profile: no interval


def test_min_dynamic_stores_filters_one_shot_feeders():
    program = micro_program(steps=2)
    assert rank_candidates(program, min_dynamic_stores=4) == []
    kept = rank_candidates(program, min_dynamic_stores=1)
    assert len(kept) == 1


def test_sampled_ranking_carries_ci_bounds():
    program = micro_program()
    (candidate,) = rank_candidates(program, sample_rate=1)
    assert candidate.ci_low is not None
    assert candidate.ci_high is not None
    assert 0.0 <= candidate.ci_low <= candidate.ci_high
    # rate 1 samples every address: the point score sits in the interval
    assert candidate.ci_low <= candidate.score * 1.0001


def two_kernel_program(steps: int = 32):
    """Two independent update/recompute/consume kernels per step, the
    first over 16 words and the second over 8, so discovery finds two
    disjoint candidates with different redundant-load mass."""
    kernels = (("xs", "sum", 16), ("ys", "tot", 8))
    b = ProgramBuilder()
    for values, _result, width in kernels:
        b.data(values, [(3, 1, 4, 1)[i % 4] for i in range(width)])
    b.data("upd", [(7, 7, 7, 5, 7, 7, 5, 7)[i % 8] for i in range(steps)])
    b.zeros("sum", 1)
    b.zeros("tot", 1)
    with b.function("main"):
        t = b.global_reg("t")
        with b.for_range(t, 0, steps):
            for values, result, width in kernels:
                with b.scratch(3) as (u, v, x):
                    b.la(u, "upd")
                    b.ldx(v, u, t)
                    b.la(x, values)
                    b.st(v, x, 0)
                with b.scratch(4) as (i, base, s, tmp):
                    b.la(base, values)
                    b.li(s, 0)
                    with b.for_range(i, 0, width):
                        b.ldx(tmp, base, i)
                        b.add(s, s, tmp)
                    b.la(tmp, result)
                    b.st(s, tmp, 0)
                with b.scratch(2) as (p, q):
                    b.la(p, result)
                    b.ld(q, p, 0)
                    b.out(q)
        b.halt()
    return b.build()


def test_sampled_ranking_orders_by_ci_lower_bound():
    program = two_kernel_program()
    assert len(rank_candidates(program)) == 2
    ranked = rank_candidates(program, sample_rate=4, sample_seed=1)
    assert len(ranked) == 2
    for candidate in ranked:
        assert candidate.ci_low is not None
        assert candidate.ci_high is not None
        assert candidate.ci_low <= candidate.ci_high
    keys = [candidate.ci_low for candidate in ranked]
    assert keys == sorted(keys, reverse=True)
    assert keys[0] > keys[1] > 0.0  # a real order, not a tie at zero


def test_as_dict_is_json_ready():
    import json

    program = micro_program()
    (candidate,) = rank_candidates(program, sample_rate=1)
    row = json.loads(json.dumps(candidate.as_dict()))
    assert row["region_start"] == candidate.region_start
    assert row["store_pcs"] == list(candidate.store_pcs)
    assert "score_ci_low" in row
