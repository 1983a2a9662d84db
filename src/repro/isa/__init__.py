"""DTIR — the small RISC-like ISA executed by the repro simulator.

The ISA models the paper's baseline instruction set plus the data-triggered
thread extensions (Tseng & Tullsen, HPCA 2011):

* ``tst``/``tstx`` — *triggering stores*: stores that, when they change the
  value at the watched address, enqueue an attached support thread.
* ``treturn`` — terminates a support thread.
* ``tcheck`` — the main thread's consume point: a barrier that waits until
  the named support thread has no pending or in-flight executions.

Public surface:

* :class:`~repro.isa.instructions.Instruction` and the ``OPCODES`` table
* :class:`~repro.isa.program.Program` / :class:`~repro.isa.program.Function`
* :class:`~repro.isa.builder.ProgramBuilder` — structured authoring DSL
* :func:`~repro.isa.assembler.format_program` /
  :func:`~repro.isa.assembler.parse_program` — two-way text assembler
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "registers": ("NUM_REGISTERS", "Reg", "register_index", "register_name"),
    "instructions": (
        "Instruction", "OPCODES", "OpClass", "OpInfo", "is_branch", "is_load",
        "is_store", "is_triggering_store"),
    "program": ("Function", "Program"),
    "builder": ("ProgramBuilder",),
    "assembler": ("format_program", "parse_program"),
})
