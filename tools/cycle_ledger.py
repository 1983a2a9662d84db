#!/usr/bin/env python3
"""Regenerate or check ``results/cycle_ledger.json``.

The ledger pins the timing model's exact output for every timed run of
the E1–E9 plan (see :mod:`repro.exec.ledger`).  From the repository
root::

    PYTHONPATH=src python3 tools/cycle_ledger.py           # rewrite it
    PYTHONPATH=src python3 tools/cycle_ledger.py --check   # exit 1 on drift

``--only SUBSTRING`` restricts a check to the runs whose canonical name
contains the substring.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.exec.ledger import build_ledger, diff_entries, ledger_specs

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
        print(f"wrote {len(ledger['runs'])} runs to {LEDGER_PATH}")
        return 0
    committed = json.loads(LEDGER_PATH.read_text())["runs"]
    planned = {spec.canonical(): spec for spec in ledger_specs()}
    names = [name for name in planned if args.only in name]
    drifted = {name: ["not in the ledger"]
               for name in names if name not in committed}
    drifted.update((name, ["no longer planned"]) for name in committed
                   if args.only in name and name not in planned)
    fresh = build_ledger([planned[name] for name in names
                          if name in committed], progress=progress)["runs"]
    for name, entry in fresh.items():
        if entry != committed[name]:
            drifted[name] = diff_entries(committed[name], entry)
    for name, fields in sorted(drifted.items()):
        print(f"DRIFT {name}: {', '.join(fields)}")
    matched = sum(1 for name in fresh if name not in drifted)
    print(f"{matched}/{len(names)} runs match the ledger")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
