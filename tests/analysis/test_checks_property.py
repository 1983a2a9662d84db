"""Property: the analyzer never crashes and subsumes the linter.

Mirrors tests/isa/test_lint_property.py: random finalized programs
(straight-line bodies with random forward jumps/branches) are analyzed;
the analyzer must complete, report only registered codes, and include
every lint finding.  Registering a spec for an undeclared thread must
always surface spec-unknown-thread, never an exception.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import CHECKS, analyze_program
from repro.core.registry import TriggerSpec
from repro.isa.instructions import Instruction
from repro.analysis.lint import CODES, lint_program
from repro.isa.program import Program


@st.composite
def random_program(draw):
    """A finalized program of nops and forward jumps/branches + halt."""
    length = draw(st.integers(1, 20))
    program = Program()
    program.add_label("main")
    plan = []
    for pc in range(length):
        kind = draw(st.sampled_from(["nop", "jmp", "beqz"]))
        plan.append((pc, kind, draw(st.integers(pc + 1, length))))
    for pc, kind, target in plan:
        label = f"L{target}"
        if label not in program.labels:
            program.add_label(label, target)
        if kind == "nop":
            program.append(Instruction("nop"))
        elif kind == "jmp":
            program.append(Instruction("jmp", label=label))
        else:
            program.append(Instruction("beqz", 4, label=label))
    program.add_label(f"L{length}_halt")
    program.append(Instruction("halt"))
    return program.finalize()


@given(random_program())
@settings(max_examples=60, deadline=None)
def test_analyzer_completes_and_subsumes_lint(program):
    findings = analyze_program(program)
    known = set(CHECKS) | set(CODES)
    assert all(f.code in known for f in findings)
    assert set(lint_program(program)) <= set(findings)
    # output is deterministically ordered
    assert findings == sorted(findings, key=type(findings[0]).sort_key) \
        if findings else findings == []


@given(random_program())
@settings(max_examples=30, deadline=None)
def test_ghost_spec_reports_instead_of_raising(program):
    spec = TriggerSpec("ghost", store_pcs=[0])
    findings = analyze_program(program, [spec], include_lint=False)
    assert "spec-unknown-thread" in [f.code for f in findings]
