"""The committed cycle ledger: complete over the plan, and exact on a
representative slice (``tools/cycle_ledger.py --check`` runs all of it),
both as shipped and with every hot block compiled on first reach; its
profiles and functional DTT runs likewise.  Timed and functional DTT
entries carry a digest of the engine's ordered events, so the slice
compares dispatch order and cycle stamps, not only totals.  Each sliced
timed run also keeps the timing oracle's conservation laws, and each
sliced functional run the engine's."""

import json
from pathlib import Path

import pytest

from repro.core.config import DttConfig
from repro.core.trace import EngineEvent
from repro.exec.ledger import (EventDigest, diff_entries, entry_of,
                               functional_entry_of, functional_runs,
                               ledger_specs, profile, profile_entry_of,
                               profile_specs, run_functional, simulate)
from repro.exec.plan import RunSpec
from repro.machine import superblock

from tests.conftest import compile_at
from tests.timing.solo_diff import assert_conserved, assert_engine_conserved

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


#: the profiles with the most load sites tied on dynamic count, whose
#: order therefore rests on first execution
PROFILE_SLICE = [RunSpec.for_profile(name)
                 for name in ("equake", "twolf", "vpr")]

#: the functional DTT runs with the most engine events (bzip2, whose
#: duplicate triggers are suppressed) and the most support instructions
FUNCTIONAL_SLICE = [name for name in functional_runs()
                    if name.split(":")[0] in ("bzip2", "crafty", "mcf")]


def test_ledger_pins_exactly_the_planned_timed_runs():
    assert LEDGER["schema"] == 4
    assert sorted(LEDGER["runs"]) == sorted(s.canonical()
                                           for s in ledger_specs())
    assert all(spec.canonical() in LEDGER["runs"] for spec in SLICE)


def test_every_timed_dtt_run_pins_its_engine_event_digest():
    dtt = [name for name, spec in ((s.canonical(), s) for s in ledger_specs())
           if spec.build != "baseline"]
    assert len(dtt) == 36
    for name, entry in LEDGER["runs"].items():
        assert ("event_digest" in entry) == (name in dtt), name
        assert entry.get("events", 1) > 0, name


def test_ledger_pins_exactly_the_planned_profiles():
    assert sorted(LEDGER["profiles"]) == sorted(s.canonical()
                                               for s in profile_specs())
    assert len(LEDGER["profiles"]) == 15


def test_ledger_pins_every_functional_dtt_run():
    assert sorted(LEDGER["functional"]) == sorted(functional_runs())
    assert len(LEDGER["functional"]) == 15
    assert len(FUNCTIONAL_SLICE) == 3


@pytest.mark.parametrize("name", FUNCTIONAL_SLICE)
def test_representative_functional_runs_match_the_ledger(name):
    expected = LEDGER["functional"][name]
    machine, digest = run_functional(functional_runs()[name])
    assert machine.support_instructions > 0
    assert_engine_conserved(machine.dtt_engine, synchronous=True)
    actual = functional_entry_of(machine, digest)
    assert actual == expected, diff_entries(expected, actual)


@pytest.mark.parametrize("name", FUNCTIONAL_SLICE)
def test_functional_runs_match_the_ledger_with_every_block_compiled(
        name, monkeypatch):
    compile_at(monkeypatch, 1)
    expected = LEDGER["functional"][name]
    before = superblock.cache_stats()["blocks_compiled"]
    machine, digest = run_functional(functional_runs()[name])
    assert superblock.cache_stats()["blocks_compiled"] > before
    assert_engine_conserved(machine.dtt_engine, synchronous=True)
    actual = functional_entry_of(machine, digest)
    assert actual == expected, diff_entries(expected, actual)


def test_event_digest_is_order_sensitive():
    first = EngineEvent(1, "fired", "t", 8, activation_id=1)
    second = EngineEvent(2, "enqueued", "t", 8, activation_id=1)
    digests = []
    for events in ((first, second), (second, first)):
        digest = EventDigest()
        for event in events:
            digest.append(event)
        digests.append(digest.hexdigest())
    assert digests[0] != digests[1]


@pytest.mark.parametrize("spec", PROFILE_SLICE, ids=RunSpec.canonical)
def test_representative_profiles_match_the_ledger(spec):
    expected = LEDGER["profiles"][spec.canonical()]
    actual = profile_entry_of(profile(spec))
    assert actual == expected, diff_entries(expected, actual)


@pytest.mark.parametrize("spec", SLICE, ids=RunSpec.canonical)
def test_representative_runs_match_the_ledger(spec):
    expected = LEDGER["runs"][spec.canonical()]
    simulator, result, digest = simulate(spec)
    assert_conserved(simulator)
    actual = entry_of(simulator, result, digest)
    assert actual == expected, diff_entries(expected, actual)


@pytest.mark.parametrize("spec", SLICE, ids=RunSpec.canonical)
def test_runs_match_the_ledger_with_every_block_compiled(spec, monkeypatch):
    compile_at(monkeypatch, 1)
    expected = LEDGER["runs"][spec.canonical()]
    simulator, result, digest = simulate(spec)
    assert simulator.compiled_instructions > 0
    assert_conserved(simulator)
    actual = entry_of(simulator, result, digest)
    assert actual == expected, diff_entries(expected, actual)


def test_diff_names_the_drifting_fields():
    entry = LEDGER["runs"][SLICE[0].canonical()]
    drifted = dict(entry, cycles=entry["cycles"] + 1)
    assert diff_entries(entry, drifted) == ["cycles"]
