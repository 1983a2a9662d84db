"""Examples stay runnable: execute each script and check its story.

Each example is run in-process (imported and ``main()`` called) with its
stdout captured — faster than subprocesses and still end-to-end through
the public API.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

CASES = {
    "quickstart": ["2 recomputations, 5 eliminated"],
    "sparse_engine": ["eliminated:", "solution checksum"],
    "mcf_network": ["outputs identical: yes", "speedup: 5.96x"],
    "profile_redundancy": ["measured: 75.9%", "hottest redundant-load"],
    "autoconvert_inventory": ["region pc 10..23 fed by stx at pc 9",
                              "safety findings: none",
                              "outputs identical over 120 steps: yes",
                              "speedup:  2.48x"],
    "export_trace": ["(5.96x)", "trace events",
                     "engine.triggers_fired"],
}

# Examples that take an output path get one under tmp_path so running
# the suite never litters the working directory.
WRITES_FILE = {"export_trace": "mcf_trace.json"}


def run_example(name, capsys, monkeypatch, tmp_path):
    path = EXAMPLES_DIR / f"{name}.py"
    argv = [str(path)]
    if name in WRITES_FILE:
        argv.append(str(tmp_path / WRITES_FILE[name]))
    monkeypatch.setattr(sys, "argv", argv)
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
        return capsys.readouterr().out
    finally:
        sys.modules.pop(spec.name, None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_example_runs_and_tells_its_story(name, capsys, monkeypatch,
                                          tmp_path):
    output = run_example(name, capsys, monkeypatch, tmp_path)
    for expected in CASES[name]:
        assert expected in output, f"{name}: missing {expected!r}"


def test_every_example_is_covered():
    on_disk = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(CASES)
