"""Taint-propagation slice analysis on crafted dataflow."""

from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import OpClass
from repro.machine.machine import Machine, run_to_completion
from repro.profiling.slices import RedundancyTaintAnalyzer


def analyze(build_body, data=None, analyzer=None):
    b = ProgramBuilder()
    for name, values in (data or {}).items():
        b.data(name, values)
    with b.function("main"):
        build_body(b)
        b.halt()
    machine = Machine(b.build())
    if analyzer is None:
        analyzer = RedundancyTaintAnalyzer()
    machine.add_observer(analyzer)
    run_to_completion(machine)
    return analyzer


def test_constants_are_untainted():
    def body(b):
        with b.scratch(2) as (x, y):
            b.li(x, 1)
            b.addi(y, x, 2)

    a = analyze(body)
    assert a.redundant_instructions == 0


def test_redundant_load_taints_forward_slice():
    def body(b):
        with b.scratch(3) as (base, v, w):
            b.la(base, "xs")
            b.ld(v, base, 0)      # first touch: clean
            b.ld(v, base, 0)      # redundant -> taints v
            b.addi(w, v, 1)       # all reg inputs tainted -> redundant
            b.add(w, w, w)        # still redundant

    a = analyze(body, {"xs": [5]})
    # redundant: second ld, addi, add
    assert a.redundant_instructions == 3
    assert a.redundant_by_class[OpClass.LOAD] == 1
    assert a.redundant_by_class[OpClass.IALU] == 2


def test_mixing_with_fresh_value_clears_taint():
    def body(b):
        with b.scratch(4) as (base, v, fresh, w):
            b.la(base, "xs")
            b.ld(v, base, 0)
            b.ld(v, base, 0)      # tainted
            b.li(fresh, 42)       # constant: untainted
            b.add(w, v, fresh)    # mixed inputs -> untainted

    a = analyze(body, {"xs": [5]})
    assert a.redundant_instructions == 1  # only the redundant load


def test_taint_propagates_through_memory():
    def body(b):
        with b.scratch(3) as (base, v, w):
            b.la(base, "xs")
            b.ld(v, base, 0)
            b.ld(v, base, 0)      # tainted
            b.st(v, base, 1)      # store of tainted value: redundant + taints word
            b.ld(w, base, 1)      # first touch of address BUT word is tainted

    a = analyze(body, {"xs": [5, 0]})
    # redundant: 2nd ld, st, final ld
    assert a.redundant_instructions == 3


def test_branch_on_tainted_inputs_is_redundant():
    def body(b):
        with b.scratch(2) as (base, v):
            b.la(base, "xs")
            b.ld(v, base, 0)
            b.ld(v, base, 0)     # tainted
            b.beqz(v, "end")     # tainted branch
            b.label("end")

    a = analyze(body, {"xs": [5]})
    assert a.redundant_by_class[OpClass.BRANCH] == 1


def test_branch_on_fresh_inputs_is_not_redundant():
    def body(b):
        with b.scratch(1) as (v,):
            b.li(v, 0)
            b.beqz(v, "end")
            b.label("end")

    a = analyze(body)
    assert a.redundant_by_class[OpClass.BRANCH] == 0


def test_overwriting_tainted_register_clears_it():
    def body(b):
        with b.scratch(3) as (base, v, w):
            b.la(base, "xs")
            b.ld(v, base, 0)
            b.ld(v, base, 0)     # v tainted
            b.li(v, 3)           # v overwritten with a constant
            b.addi(w, v, 1)      # not redundant

    a = analyze(body, {"xs": [5]})
    assert a.redundant_instructions == 1


def test_fraction_and_summary():
    def body(b):
        with b.scratch(2) as (base, v):
            b.la(base, "xs")
            b.ld(v, base, 0)
            b.ld(v, base, 0)

    a = analyze(body, {"xs": [5]})
    assert 0 < a.redundant_fraction < 1
    summary = a.summary()
    assert summary["redundant_instructions"] == a.redundant_instructions
    assert summary["total_instructions"] == a.total_instructions


def test_empty_analyzer():
    a = RedundancyTaintAnalyzer()
    assert a.redundant_fraction == 0.0


def test_contexts_have_independent_register_taint():
    # same analysis object observing two contexts must not leak taint
    from repro.machine.context import Context

    a = RedundancyTaintAnalyzer()
    t0 = a._taint_of(Context(0))
    t1 = a._taint_of(Context(1))
    t0[4] = True
    assert t1[4] is False


def test_reused_analyzer_decodes_each_program_afresh():
    # the same PCs hold different instructions in the two programs; a
    # decode cached for the first program must not leak into the second
    def first(b):
        with b.scratch(3) as (base, v, w):
            b.la(base, "xs")
            b.ld(v, base, 0)
            b.ld(v, base, 0)      # redundant -> taints v
            b.addi(w, v, 1)       # pc 3: redundant ALU
            b.add(w, w, w)        # pc 4: redundant ALU

    def second(b):
        with b.scratch(3) as (base, v, w):
            b.la(base, "xs")
            b.ld(v, base, 0)      # a new value at the same address: clean
            b.ld(v, base, 0)      # redundant -> taints v
            b.li(w, 3)            # pc 3: a constant, never redundant
            b.beqz(w, "end")      # pc 4: branch on an untainted register
            b.label("end")

    reused = RedundancyTaintAnalyzer()
    analyze(first, {"xs": [5]}, reused)
    analyze(second, {"xs": [7]}, reused)
    fresh = [analyze(first, {"xs": [5]}), analyze(second, {"xs": [7]})]
    assert reused.total_instructions == sum(
        a.total_instructions for a in fresh)
    assert reused.redundant_instructions == sum(
        a.redundant_instructions for a in fresh)
    assert reused.redundant_by_class == {
        op_class: sum(a.redundant_by_class[op_class] for a in fresh)
        for op_class in OpClass}
