#!/usr/bin/env python3
"""Regenerate or check ``results/cycle_ledger.json``.

The ledger pins the timing model's exact output for every timed run of
the E1–E9 plan (with the engine's event order on DTT builds), both
redundancy analyses of every E1/E2 profile run, and the functional DTT
run of every suite workload with its engine's event order (see
:mod:`repro.exec.ledger`).  From the repository root::

    PYTHONPATH=src python3 tools/cycle_ledger.py           # rewrite it
    PYTHONPATH=src python3 tools/cycle_ledger.py --check   # exit 1 on drift

``--only SUBSTRING`` restricts a check to the entries whose canonical
name contains the substring.  A check also prints the share of
the run-aheads' instructions that compiled blocks retired, the
share of the other timed instructions that the multi-context run-ahead
retired, and the share of the profiled instructions whose analysis ran
as inline shadow transfers, and fails when any share is zero: a change
that silently falls back to the general issue loop, the step loop or
hook calls cannot pass on a matching ledger.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.exec.ledger import (build_ledger, diff_entries, functional_runs,
                               ledger_specs, profile_specs)

LEDGER_PATH = (pathlib.Path(__file__).resolve().parents[1]
               / "results" / "cycle_ledger.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed ledger")
    parser.add_argument("--only", default="",
                        help="check only runs whose name contains this")
    args = parser.parse_args(argv)

    def progress(name):
        print(f"  {name}", file=sys.stderr, flush=True)

    if not args.check:
        ledger = build_ledger(progress=progress)
        text = json.dumps(ledger, indent=1, sort_keys=True) + "\n"
        LEDGER_PATH.write_text(text, encoding="utf-8")
        print(f"wrote {len(ledger['runs'])} runs, "
              f"{len(ledger['profiles'])} profiles and "
              f"{len(ledger['functional'])} functional runs to {LEDGER_PATH}")
        return 0
    committed = json.loads(LEDGER_PATH.read_text())
    planned = {"runs": {spec.canonical(): spec for spec in ledger_specs()},
               "profiles": {spec.canonical(): spec
                            for spec in profile_specs()},
               "functional": {name: name for name in functional_runs()}}
    names, drifted = {}, {}
    for section, specs in planned.items():
        names[section] = [name for name in specs if args.only in name]
        pinned = committed.get(section, {})
        drifted.update((name, ["not in the ledger"])
                       for name in names[section] if name not in pinned)
        drifted.update((name, ["no longer planned"]) for name in pinned
                       if args.only in name and name not in specs)
    coverage = {}
    fresh = build_ledger(
        *[[planned[section][name] for name in names[section]
           if name in committed.get(section, {})]
          for section in ("runs", "profiles", "functional")],
        progress=progress, coverage=coverage)
    matched = 0
    for section in ("runs", "profiles", "functional"):
        for name, entry in fresh[section].items():
            if entry != committed[section][name]:
                drifted[name] = diff_entries(committed[section][name], entry)
            else:
                matched += 1
    for name, fields in sorted(drifted.items()):
        print(f"DRIFT {name}: {', '.join(fields)}")
    print(f"{matched}/{sum(map(len, names.values()))} runs, profiles and "
          f"functional runs match the ledger")
    solo = coverage.get("solo_instructions", 0)
    multi = coverage.get("multi_instructions", 0)
    compiled = coverage.get("compiled_instructions", 0)
    share = compiled / (solo + multi) if solo + multi else 0.0
    print(f"compiled blocks retired {compiled}/{solo + multi} run-ahead "
          f"instructions ({share:.1%})")
    others = coverage.get("instructions", 0) - solo
    share = multi / others if others else 0.0
    print(f"the multi-context run-ahead retired {multi}/{others} non-solo "
          f"instructions ({share:.1%})")
    profiled = coverage.get("profiled_instructions", 0)
    shadowed = coverage.get("shadow_instructions", 0)
    share = shadowed / profiled if profiled else 0.0
    print(f"shadow thunks retired {shadowed}/{profiled} profiled "
          f"instructions ({share:.1%})")
    failed = False
    if fresh["runs"] and not compiled:
        print("FAIL the compiled path retired no instructions")
        failed = True
    if others and not multi:
        print("FAIL the multi-context run-ahead retired no instructions")
        failed = True
    if fresh["profiles"] and not shadowed:
        print("FAIL no profiled instruction ran on a shadow thunk")
        failed = True
    return 1 if drifted or failed else 0

if __name__ == "__main__":
    sys.exit(main())
