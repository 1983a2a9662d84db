"""Generated documentation stays in sync with the code it describes."""

import pathlib
import subprocess
import sys

DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs"
TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def test_isa_reference_is_fresh():
    sys.path.insert(0, str(TOOLS))
    try:
        import gen_isa_reference
        expected = gen_isa_reference.render()
    finally:
        sys.path.pop(0)
    on_disk = (DOCS / "isa_reference.md").read_text()
    assert on_disk == expected, (
        "docs/isa_reference.md is stale; run tools/gen_isa_reference.py"
    )


def test_reference_covers_every_opcode():
    from repro.isa.instructions import OPCODES

    text = (DOCS / "isa_reference.md").read_text()
    missing = [op for op in OPCODES if f"`{op}`" not in text]
    assert not missing, f"opcodes missing from the reference: {missing}"


def test_architecture_documents_every_check_code():
    """The Static Analysis check catalog must list every analyzer and
    linter code, so a new check cannot ship undocumented."""
    from repro.analysis.checks import CHECKS
    from repro.isa.lint import CODES

    text = (DOCS / "architecture.md").read_text()
    missing = [code for code in list(CHECKS) + list(CODES)
               if f"`{code}`" not in text]
    assert not missing, (
        f"check codes missing from docs/architecture.md: {missing}"
    )


def test_architecture_documents_symbolic_analysis():
    """The symbolic parameterized-analysis subsection must exist, name
    every overlap verdict, and carry the check-version fingerprint
    format, so the v2 race-check semantics cannot drift undocumented."""
    from repro.analysis.checks import CHECK_VERSIONS
    from repro.analysis.symbolic import ALL, NONE, SOME, UNKNOWN

    text = (DOCS / "architecture.md").read_text()
    assert "### Symbolic parameterized analysis" in text
    missing = [v for v in sorted({ALL, NONE, SOME, UNKNOWN})
               if f"`{v}`" not in text]
    missing += [f"{code}.v{version}"
                for code, version in sorted(CHECK_VERSIONS.items())
                if version > 1 and f"(v{version})" not in text]
    assert not missing, (
        f"symbolic surfaces missing from docs/architecture.md: {missing}"
    )


def test_architecture_documents_every_rejection_reason():
    """The Automatic conversion section must document every way the
    acceptance gate can reject a candidate."""
    from repro.autoconvert.gate import REJECTION_REASONS

    text = (DOCS / "architecture.md").read_text()
    missing = [reason for reason in REJECTION_REASONS
               if f"`{reason}`" not in text]
    assert not missing, (
        f"rejection reasons missing from docs/architecture.md: {missing}"
    )


def test_architecture_documents_superblock_tier():
    """The Performance section's superblock subsection must name every
    block-formation boundary opcode and every code-cache counter, so the
    formation rules and the obs surface cannot drift undocumented."""
    from repro.machine.superblock import BOUNDARY_OPCODES, cache_stats

    text = (DOCS / "architecture.md").read_text()
    assert "### Superblock tier" in text
    missing = [op for op in sorted(BOUNDARY_OPCODES)
               if f"`{op}`" not in text]
    missing += [key for key in sorted(cache_stats())
                if f"`{key}`" not in text]
    assert not missing, (
        f"superblock surfaces missing from docs/architecture.md: {missing}"
    )


def test_architecture_documents_solo_run_ahead():
    """The solo and multi-context run-ahead subsections must name every
    side-exit opcode, every hot-block exit kind, and the coverage and
    compile gauges, so none can drift undocumented."""
    from repro.machine.machine import ENGINE_OPCODES
    from repro.machine.superblock import EXIT_KINDS

    text = (DOCS / "architecture.md").read_text()
    assert "### Solo run-ahead" in text
    assert "### Multi-context run-ahead" in text
    section = text.split("### Solo run-ahead", 1)[1].split("\n## ", 1)[0]
    missing = [op for op in sorted(ENGINE_OPCODES)
               if f"`{op}`" not in section]
    missing += [gauge for gauge in ("timing.solo_cycles",
                                    "timing.solo_instructions",
                                    "timing.multi_cycles",
                                    "timing.multi_instructions",
                                    "timing.compiled_blocks",
                                    "timing.compile_seconds",
                                    "timing.compiled_instructions")
                if f"`{gauge}`" not in section]
    missing += [kind for kind in EXIT_KINDS if f"*{kind}*" not in section]
    assert not missing, (
        f"solo run-ahead surfaces missing from docs/architecture.md: "
        f"{missing}"
    )


def test_architecture_documents_every_trend_verdict():
    """The Performance observatory section must catalog every verdict
    the trend analyzer can emit, so a new verdict cannot ship silently."""
    from repro.obs.trends import VERDICTS

    text = (DOCS / "architecture.md").read_text()
    missing = [code for code in VERDICTS if f"`{code}`" not in text]
    assert not missing, (
        f"trend verdicts missing from docs/architecture.md: {missing}"
    )
