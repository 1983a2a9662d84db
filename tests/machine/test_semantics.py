"""The per-opcode semantics table covers the ISA exactly."""

from repro.isa.instructions import OPCODES
from repro.machine.machine import ENGINE_OPCODES
from repro.machine.semantics import SEMANTICS


def test_table_and_engine_opcodes_cover_every_opcode_once():
    # adding an opcode means one OPCODES row plus one template (or an
    # engine handler); this fails if either is missing
    assert not set(SEMANTICS) & ENGINE_OPCODES
    assert set(SEMANTICS) | ENGINE_OPCODES == set(OPCODES)
