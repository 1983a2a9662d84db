"""Synthesized programs survive the whole static toolchain untouched:
lint finds nothing new, the analyzer proves them safe, and the builder's
trigger-thread helpers reject misuse before it reaches synthesis."""

import pytest

from repro.analysis.checks import analysis_summary, analyze_program
from repro.autoconvert import discover_candidates, rank_candidates, synthesize
from repro.errors import BuilderError
from repro.isa.builder import ProgramBuilder
from repro.analysis.lint import Severity, lint_program
from repro.workloads.suite import SUITE


def synthesized_suite():
    """Every suite workload whose plain build yields candidates."""
    results = {}
    for name, workload in SUITE.items():
        program = workload.build_baseline(workload.make_input())
        candidates = rank_candidates(program)
        if candidates:
            results[name] = synthesize(program, candidates[:1])
    return results


SYNTHESIZED = synthesized_suite()


def test_at_least_five_workloads_synthesize():
    assert len(SYNTHESIZED) >= 5, sorted(SYNTHESIZED)


@pytest.mark.parametrize("name", sorted(SYNTHESIZED))
def test_rewritten_program_lints_clean(name):
    findings = [f for f in lint_program(SYNTHESIZED[name].program)
                if f.severity is Severity.ERROR]
    assert findings == [], f"{name}: {findings}"


@pytest.mark.parametrize("name", sorted(SYNTHESIZED))
def test_rewritten_program_analyzes_with_zero_errors(name):
    build = SYNTHESIZED[name].build
    summary = analysis_summary(analyze_program(build.program, build.specs))
    assert summary["errors"] == 0, f"{name}: {summary['codes']}"


@pytest.mark.parametrize("name", sorted(SYNTHESIZED))
def test_rewritten_program_introduces_no_new_lint_findings(name):
    workload = SUITE[name]
    baseline = workload.build_baseline(workload.make_input())
    before = {f.code for f in lint_program(baseline)}
    after = {f.code for f in lint_program(SYNTHESIZED[name].program)}
    assert after <= before, f"{name}: new findings {sorted(after - before)}"


def test_builder_thread_helper_declares_entry_and_function():
    b = ProgramBuilder()
    with b.thread("helper"):
        b.treturn()
    assert b.program.threads["helper"] == "__thread_helper"
    assert any(fn.name == "thread:helper" for fn in b.program.functions)


def test_tcheck_thread_resolves_declaration_order_ids():
    b = ProgramBuilder()
    with b.thread("first"):
        b.treturn()
    with b.thread("second"):
        b.treturn()
    with b.function("main"):
        pc1 = b.tcheck_thread("second")
        pc2 = b.tcheck_thread("first")
        b.halt()
    assert b.program.instructions[pc1].a == 1
    assert b.program.instructions[pc2].a == 0


def test_tcheck_thread_rejects_undeclared_threads():
    b = ProgramBuilder()
    with b.function("main"):
        with pytest.raises(BuilderError, match="not yet declared"):
            b.tcheck_thread("later")
