"""The committed cycle ledger: complete over the plan, and exact on a
representative slice (``tools/cycle_ledger.py --check`` runs all of it)."""

import json
from pathlib import Path

import pytest

from repro.core.config import DttConfig
from repro.exec.ledger import (diff_entries, entry_of, ledger_specs,
                               simulate)
from repro.exec.plan import RunSpec

LEDGER = json.loads((Path(__file__).resolve().parents[2] / "results"
                     / "cycle_ledger.json").read_text())

#: every machine configuration on baseline and DTT builds, the queue
#: overflow ablation at capacity 1, and the overlap workload
SLICE = [
    RunSpec.for_timed(name, build, config)
    for name in ("art", "twolf")
    for config in ("smt2", "cmp2", "serial", "smt4")
    for build in ("baseline", "dtt")
] + [
    RunSpec.for_timed("bursty-equake", "dtt", "smt2",
                      DttConfig(queue_capacity=1)),
    RunSpec.for_timed("bursty-equake", "baseline", "smt2"),
] + [
    RunSpec.for_timed("overlap", build, config)
    for config in ("smt2", "cmp2", "serial")
    for build in ("baseline", "dtt")
]


def test_ledger_pins_exactly_the_planned_timed_runs():
    assert LEDGER["schema"] == 1
    assert sorted(LEDGER["runs"]) == sorted(s.canonical()
                                           for s in ledger_specs())
    assert all(spec.canonical() in LEDGER["runs"] for spec in SLICE)


@pytest.mark.parametrize("spec", SLICE, ids=RunSpec.canonical)
def test_representative_runs_match_the_ledger(spec):
    expected = LEDGER["runs"][spec.canonical()]
    actual = entry_of(*simulate(spec))
    assert actual == expected, diff_entries(expected, actual)


def test_diff_names_the_drifting_fields():
    entry = LEDGER["runs"][SLICE[0].canonical()]
    drifted = dict(entry, cycles=entry["cycles"] + 1)
    assert diff_entries(entry, drifted) == ["cycles"]
