"""Program linter: every check, plus cleanliness of the real suite."""

import pytest

from repro.errors import ProgramValidationError
from repro.isa.builder import ProgramBuilder
from repro.analysis.lint import ERROR, WARNING, errors_only, lint_program
from repro.isa.program import Program
from repro.isa.instructions import Instruction
from repro.workloads.suite import SUITE


def codes(findings):
    return [f.code for f in findings]


def test_requires_finalized_program():
    with pytest.raises(ProgramValidationError):
        lint_program(Program())


def test_clean_program_has_no_findings():
    b = ProgramBuilder()
    with b.thread("worker"):
        b.nop()
        b.treturn()
    with b.function("main"):
        b.tcheck_thread("worker")
        b.halt()
    assert lint_program(b.build()) == []


def test_no_halt_detected():
    p = Program()
    p.add_label("main")
    p.append(Instruction("nop"))
    p.finalize()
    findings = lint_program(p)
    assert "no-halt" in codes(findings)
    assert findings[0].severity == ERROR


def test_thread_missing_treturn_detected():
    # authored without the builder: a thread whose body has no treturn,
    # while a treturn exists elsewhere (so finalize passes)
    p = Program()
    p.declare_thread("worker", "wentry")
    p.add_label("wentry")
    p.append(Instruction("jmp", label="main"))
    p.add_label("main", 1)
    p.append(Instruction("halt"))
    p.append(Instruction("treturn"))  # stray treturn, not in the body
    p.finalize()
    assert "thread-missing-treturn" in codes(lint_program(p))


def test_halt_in_thread_detected():
    b = ProgramBuilder()
    with b.thread("worker"):
        b.halt()
        b.treturn()
    with b.function("main"):
        b.halt()
    findings = lint_program(b.build())
    assert "halt-in-thread" in codes(findings)


def test_tstore_in_thread_warned():
    b = ProgramBuilder()
    b.data("xs", [0])
    with b.thread("worker"):
        with b.scratch(2) as (base, v):
            b.la(base, "xs")
            b.li(v, 1)
            b.tst(v, base, 0)
        b.treturn()
    with b.function("main"):
        b.halt()
    findings = lint_program(b.build())
    assert "tstore-in-thread" in codes(findings)
    finding = next(f for f in findings if f.code == "tstore-in-thread")
    assert finding.severity == WARNING


def test_out_in_thread_warned():
    b = ProgramBuilder()
    with b.thread("worker"):
        with b.scratch(1) as (v,):
            b.li(v, 1)
            b.out(v)
        b.treturn()
    with b.function("main"):
        b.halt()
    assert "out-in-thread" in codes(lint_program(b.build()))


def test_tcheck_bad_tid_detected():
    b = ProgramBuilder()
    with b.thread("worker"):
        b.treturn()
    with b.function("main"):
        b.tcheck(7)
        b.halt()
    findings = lint_program(b.build())
    assert "tcheck-bad-tid" in codes(findings)


def test_tcheck_without_threads_warned():
    b = ProgramBuilder()
    with b.function("main"):
        b.tcheck(0)
        b.halt()
    assert "tcheck-without-threads" in codes(lint_program(b.build()))


def test_unreachable_code_detected():
    b = ProgramBuilder()
    with b.function("main"):
        b.jmp("end")
        b.nop()  # unreachable
        b.label("end")
        b.halt()
    findings = lint_program(b.build())
    unreachable = [f for f in findings if f.code == "unreachable"]
    assert len(unreachable) == 1
    assert unreachable[0].pc == 1


def test_branch_fallthrough_is_reachable():
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(1) as (r,):
            b.li(r, 0)
            b.beqz(r, "end")
            b.nop()  # fallthrough: reachable
        b.label("end")
        b.halt()
    assert "unreachable" not in codes(lint_program(b.build()))


def test_call_return_path_is_reachable():
    b = ProgramBuilder()
    with b.function("main"):
        b.call("sub")
        b.halt()  # after the call: reachable via ret
    with b.function("sub"):
        b.nop()
        b.ret()
    assert "unreachable" not in codes(lint_program(b.build()))


def test_never_returning_callee_makes_fallthrough_unreachable():
    # per-call-target return sites: code after a call to a non-returning
    # subroutine is dead, and the old any-ret-reaches-any-call
    # approximation could not see it
    b = ProgramBuilder()
    with b.function("main"):
        b.call("spin")
        b.nop()  # dead: spin never returns
        b.halt()
    with b.function("spin"):
        b.label("loop")
        b.jmp("loop")
    findings = lint_program(b.build())
    unreachable = {f.pc for f in findings if f.code == "unreachable"}
    assert {1, 2} <= unreachable


def test_shared_subroutine_returns_to_each_caller():
    # one subroutine, two call sites: both return sites stay reachable
    # and nothing else gets resurrected by the shared ret
    b = ProgramBuilder()
    with b.function("main"):
        b.call("sub")   # pc 0
        b.call("sub")   # pc 1
        b.halt()        # pc 2
    with b.function("sub"):
        b.nop()
        b.ret()
    assert "unreachable" not in codes(lint_program(b.build()))


def test_errors_only_filter():
    b = ProgramBuilder()
    with b.function("main"):
        b.tcheck(0)  # warning
        b.halt()
    findings = lint_program(b.build())
    assert errors_only(findings) == []
    assert findings  # warning present


def test_errors_sort_first():
    p = Program()
    p.add_label("main")
    p.append(Instruction("tcheck", 0))  # warning (no threads)
    p.finalize()  # also no halt -> error
    findings = lint_program(p)
    assert findings[0].severity == ERROR


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_builds_are_lint_clean(name):
    """Every shipped workload build must be free of lint *errors* (the
    gzip/bzip2-style warnings about nothing are also absent today)."""
    workload = SUITE[name]
    inp = workload.make_input()
    assert errors_only(lint_program(workload.build_baseline(inp))) == []
    assert errors_only(lint_program(workload.build_dtt(inp).program)) == []
