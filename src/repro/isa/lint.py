"""Static checks ("lints") for finalized DTIR programs.

The builder and finalizer catch structural errors; the linter catches the
*semantic* authoring mistakes that otherwise only surface as wrong answers
or runtime faults — most of them DTT-specific:

``no-halt``
    the program contains no ``halt``: the main context will run off the
    end of the program (an :class:`~repro.errors.ExecutionFault`).
``thread-missing-treturn``
    a declared support thread's body region contains no ``treturn``
    (finalize only checks that *some* treturn exists program-wide).
``halt-in-thread``
    ``halt`` inside a support-thread body faults at runtime (support
    contexts must ``treturn``).
``tstore-in-thread``
    a triggering store inside a support-thread body is silently demoted to
    a plain store unless cascading is enabled — usually a mistake.
``out-in-thread``
    output from a support thread interleaves nondeterministically with
    main-thread output under the timing simulator.
``tcheck-bad-tid``
    a ``tcheck`` references a thread id the program does not declare
    (faults at runtime when an engine is attached).
``tcheck-without-threads``
    DTT consume points in a program that declares no threads (they are
    no-ops without an engine, and an engine cannot be attached).
``unreachable``
    instructions no control path from the entry or any thread entry can
    reach (dead code, or a missing label).

Every finding carries a severity: ``error`` findings will fault or
mis-execute; ``warning`` findings are probably mistakes.  The finding
model is shared with the semantic analyzer
(:mod:`repro.analysis.findings`); reachability comes from the precise CFG
(:func:`repro.analysis.cfg.reachable_pcs`), which models call/ret return
sites exactly — code after a ``call`` to a never-returning subroutine is
dead, and a shared subroutine's ``ret`` only flows back to its real
callers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.cfg import reachable_pcs, thread_regions
from repro.analysis.findings import (ERROR, WARNING, Finding, Severity,
                                     errors_only)
from repro.errors import ProgramValidationError
from repro.isa.instructions import is_triggering_store
from repro.isa.program import Program

__all__ = ["ERROR", "WARNING", "CODES", "Finding", "Severity",
           "errors_only", "lint_program"]

#: lint code -> (severity, one-line description); the docs table must
#: list every code here (tests/test_docs_sync.py)
CODES: Dict[str, Tuple[Severity, str]] = {
    "no-halt": (
        ERROR, "no halt instruction: the main context runs off the end"),
    "thread-missing-treturn": (
        ERROR, "a support thread's body contains no treturn"),
    "halt-in-thread": (
        ERROR, "halt inside a support-thread body faults at runtime"),
    "tstore-in-thread": (
        WARNING,
        "a triggering store in a thread body is a plain store unless "
        "cascading is enabled"),
    "out-in-thread": (
        WARNING,
        "thread output interleaves nondeterministically under timing"),
    "tcheck-bad-tid": (
        ERROR, "tcheck references a thread id the program does not declare"),
    "tcheck-without-threads": (
        WARNING, "tcheck in a program that declares no support threads"),
    "unreachable": (
        WARNING, "no control path from any entry reaches the instruction"),
}


def lint_program(program: Program) -> List[Finding]:
    """Run every check; returns findings sorted errors-first, then by pc."""
    if not program.finalized:
        raise ProgramValidationError("lint requires a finalized program")
    findings: List[Finding] = []
    instructions = program.instructions
    regions = thread_regions(program)
    num_threads = len(program.threads)

    if not any(i.op == "halt" for i in instructions):
        findings.append(Finding(
            ERROR, "no-halt", None,
            "no halt instruction: the main context will run off the end",
        ))

    for name, region in regions.items():
        body = instructions[region.start:region.stop]
        if not any(i.op == "treturn" for i in body):
            findings.append(Finding(
                ERROR, "thread-missing-treturn", region.start,
                f"support thread {name!r} has no treturn in its body",
            ))
        for offset, instruction in enumerate(body):
            pc = region.start + offset
            if instruction.op == "halt":
                findings.append(Finding(
                    ERROR, "halt-in-thread", pc,
                    f"halt inside support thread {name!r} faults at runtime",
                ))
            elif is_triggering_store(instruction.op):
                findings.append(Finding(
                    WARNING, "tstore-in-thread", pc,
                    f"triggering store inside thread {name!r} is a plain "
                    "store unless cascading is enabled",
                ))
            elif instruction.op == "out":
                findings.append(Finding(
                    WARNING, "out-in-thread", pc,
                    f"output from thread {name!r} interleaves "
                    "nondeterministically under timed execution",
                ))

    for pc, instruction in enumerate(instructions):
        if instruction.op != "tcheck":
            continue
        tid = int(instruction.a)
        if num_threads == 0:
            findings.append(Finding(
                WARNING, "tcheck-without-threads", pc,
                "tcheck in a program that declares no support threads",
            ))
        elif not 0 <= tid < num_threads:
            findings.append(Finding(
                ERROR, "tcheck-bad-tid", pc,
                f"tcheck references thread id {tid}; program declares "
                f"{num_threads} thread(s)",
            ))

    reachable = reachable_pcs(program)
    for pc in range(len(instructions)):
        if pc not in reachable:
            findings.append(Finding(
                WARNING, "unreachable", pc,
                "no control path from the entry or a thread entry reaches "
                "this instruction",
            ))

    findings.sort(key=Finding.sort_key)
    return findings
