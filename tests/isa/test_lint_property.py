"""Property: the linter never crashes and reachability is sound.

Random finalized programs (straight-line bodies with random forward
jumps/branches) are linted; the linter must complete, and any pc it marks
unreachable must genuinely never execute.
"""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import Instruction
from repro.analysis.lint import lint_program
from repro.isa.program import Program
from repro.machine.machine import Machine
from repro.machine.context import ContextState


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
@settings(max_examples=80, deadline=None)
def test_lint_completes_and_reachability_is_sound(program):
    findings = lint_program(program)
    unreachable = {f.pc for f in findings if f.code == "unreachable"}
    # execute and record the pcs actually visited (r4 == 0, so beqz taken;
    # that is one concrete path — every visited pc must NOT be marked)
    machine = Machine(program, max_instructions=10_000)
    visited = set()
    main = machine.main_context
    while main.state is ContextState.RUNNING:
        visited.add(main.pc)
        machine.step(main)
    assert not (visited & unreachable), (
        f"lint marked executed pcs unreachable: {visited & unreachable}"
    )
