#!/usr/bin/env python3
"""The CI workflow's result gates, one subcommand per gate.

Each gate reads files an earlier ``dtt-harness`` command wrote, checks
them, prints one summary line, and exits 0.  A failed check prints
``gate <name> failed: <reason>`` and exits 1.  From the repository root::

    python3 tools/ci_gates.py interpreter BENCH_interpreter.json
    python3 tools/ci_gates.py json-parses out.json metrics.json
    python3 tools/ci_gates.py trace trace.json m9.json
    python3 tools/ci_gates.py store-compare compare.json cold.json warm.json
    python3 tools/ci_gates.py report report.html e1.json
    python3 tools/ci_gates.py trace-overhead BENCH_trace_overhead.json
    python3 tools/ci_gates.py heartbeat status.json
    python3 tools/ci_gates.py dashboard trends.html
    python3 tools/ci_gates.py analyze analyze.json
    python3 tools/ci_gates.py convert-smoke convert_manifest.json \\
        tests/autoconvert/expected_conversions.json
    python3 tools/ci_gates.py autoconvert-bench BENCH_autoconvert.json

The gates need only the standard library.
"""

from __future__ import annotations

import argparse
import json
import sys
from html.parser import HTMLParser
from typing import Callable, Dict

#: mcf's minimum ``Machine.run`` speedup over per-instruction stepping
MIN_MCF_SPEEDUP = 4.0

#: the same floor for runs under both redundancy observers
MIN_MCF_OBSERVED_SPEEDUP = 1.5

#: HTML elements that never take a closing tag
VOID_TAGS = frozenset({"meta", "br", "hr", "img", "link", "input"})


class GateFailure(Exception):
    """A gate's check did not hold."""


def require(condition, message) -> None:
    """Raise :class:`GateFailure` with ``message`` unless ``condition``."""
    if not condition:
        raise GateFailure(message)


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class Strict(HTMLParser):
    """Fails on any end tag that does not close the innermost open one."""

    def __init__(self):
        super().__init__()
        self.stack = []

    def handle_starttag(self, tag, attrs):
        if tag not in VOID_TAGS:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        require(self.stack and self.stack[-1] == tag,
                f"</{tag}> does not close the open tags {self.stack}")
        self.stack.pop()


def check_balanced_html(text: str) -> None:
    """Every non-void tag in ``text`` is closed, in nesting order."""
    parser = Strict()
    parser.feed(text)
    parser.close()
    require(not parser.stack, f"unclosed tags at end: {parser.stack}")


# -- gates ---------------------------------------------------------------------


def gate_interpreter(args) -> str:
    """mcf keeps its Machine.run speedup floors, unobserved and observed
    (bench schema 2)."""
    result = load_json(args.bench)
    require(result["schema"] == 2, f"schema {result['schema']} != 2")
    row = result["rows"]["mcf:superblock"]
    require(row["speedup"] >= MIN_MCF_SPEEDUP,
            f"Machine.run only {row['speedup']:.2f}x over stepping on mcf "
            f"(floor {MIN_MCF_SPEEDUP}x)")
    observed = row.get("observed_speedup")
    require(observed is not None, "mcf row has no observed_speedup cell")
    require(observed >= MIN_MCF_OBSERVED_SPEEDUP,
            f"observed Machine.run only {observed:.2f}x over stepping on "
            f"mcf (floor {MIN_MCF_OBSERVED_SPEEDUP}x)")
    return (f"mcf: {row['speedup']:.2f}x over legacy stepping, "
            f"{observed:.2f}x observed "
            f"(compile {row['build_seconds'] * 1000:.1f} ms)")


def gate_json_parses(args) -> str:
    """Every given file parses as JSON."""
    for path in args.files:
        load_json(path)
    return f"{len(args.files)} JSON surfaces parse"


def gate_trace(args) -> str:
    """Chrome trace sorted by ts; the engine counters keep their laws.

    Each finished timed run adds its engine summary to the ``engine.*``
    counters, so the summary laws hold over the totals in the forms the
    counters can state (they carry no enqueue count, and a timed run may
    end with activations queued or executing):

    - every matched triggering store was filtered as same-value or fired;
    - ``triggers_fired = duplicates_suppressed + queue_enqueued +
      overflow_inline_runs`` and each start either pops an enqueued
      activation or is an overflow run, so ``overflow_inline_runs <=
      executions_started <= triggers_fired - duplicates_suppressed``;
    - every completed or canceled execution was started.
    """
    trace = load_json(args.trace)
    ts = [event["ts"] for event in trace["traceEvents"]]
    require(ts and ts == sorted(ts), "trace events must be sorted by ts")
    metrics = load_json(args.metrics)
    names = ("triggering_stores", "same_value_suppressed", "triggers_fired",
             "duplicates_suppressed", "overflow_inline_runs",
             "executions_started", "executions_completed", "cancels")
    missing = [f"engine.{name}" for name in names
               if f"engine.{name}" not in metrics]
    require(not missing, f"metrics lack {missing}")
    n = {name: metrics[f"engine.{name}"]["value"] for name in names}
    require(n["triggers_fired"] > 0, "no trigger fired")
    require(n["triggering_stores"]
            == n["same_value_suppressed"] + n["triggers_fired"],
            f"triggering stores are not filtered + fired: {n}")
    require(n["overflow_inline_runs"] <= n["executions_started"]
            <= n["triggers_fired"] - n["duplicates_suppressed"],
            f"starts are not between the overflow runs and the fired "
            f"triggers no duplicate absorbed: {n}")
    require(n["executions_completed"] + n["cancels"]
            <= n["executions_started"],
            f"more executions ended than started: {n}")
    return (f"trace + metrics ok: {n['triggers_fired']} fired, "
            f"{n['executions_started']} started")


def gate_store_compare(args) -> str:
    """A warm store pass reruns nothing and compares clean."""
    report = load_json(args.compare)
    require(report["regressions"] == 0, report)
    require(report["missing_rows"] == [], report)
    load_json(args.cold)
    warm = load_json(args.warm)
    require(warm[-1]["manifest"]["store_hits"] > 0,
            "warm pass hit nothing in the store")
    require(all(entry["manifest"]["store_misses"] == 0 for entry in warm),
            "warm pass missed the store")
    return "store two-pass + compare smoke ok"


def gate_report(args) -> str:
    """The HTML report is balanced and names every experiment."""
    html_text = read_text(args.html)
    check_balanced_html(html_text)
    for entry in load_json(args.results):
        require(entry["experiment"] in html_text,
                f"report does not name {entry['experiment']}")
    return "explain + report smoke ok"


def gate_trace_overhead(args) -> str:
    """ctrace compresses >= 5x and sampling stays in its CI."""
    rows = load_json(args.bench)["rows"]
    for name, row in rows.items():
        require(row["compression_ratio"] >= 5.0,
                (name, row["compression_ratio"]))
        require(row["sampled_in_ci"], (name, row))
    ratios = {name: round(row["compression_ratio"], 1)
              for name, row in rows.items()}
    return f"trace overhead gate ok: {ratios}"


def gate_heartbeat(args) -> str:
    """The status file shows a finished, counted run."""
    status = load_json(args.status)
    require(status["status"] == "done", status)
    require(status["runs_completed"] == status["runs_total"] > 0, status)
    require(status["instructions_retired"] > 0, status)
    return (f"heartbeat ok: {status['runs_completed']} runs, "
            f"{status['instructions_retired']} instructions")


def gate_dashboard(args) -> str:
    """The trend dashboard is balanced, script-free HTML."""
    html_text = read_text(args.html)
    check_balanced_html(html_text)
    require("<script" not in html_text, "dashboard must not carry JS")
    require("Verdict catalog" in html_text, "dashboard lacks the catalog")
    return f"trend dashboard ok: {len(html_text)} bytes"


def gate_analyze(args) -> str:
    """The mcf DTT build analyzes clean."""
    report = load_json(args.report)
    require(report["summary"] == {"errors": 0, "warnings": 0, "codes": {}},
            report)
    require(report["targets"][0]["target"] == "mcf:dtt", report)
    return "analyze gate ok"


def gate_convert_smoke(args) -> str:
    """Each pinned workload converts exactly as pinned."""
    expected = load_json(args.expected)
    manifest = load_json(args.manifest)
    require(manifest["schema_version"] >= 6, manifest["schema_version"])
    audits = {row["workload"]: row for row in manifest["autoconvert"]}
    for name, pins in expected.items():
        audit = audits[name]
        got = [{"region_start": c["region_start"],
                "region_end": c["region_end"],
                "store_pcs": sorted(c["store_pcs"]),
                "params": c.get("params", [])}
               for c in audit["accepted"]]
        require(got == pins["accepted"], (name, got))
        require(audit["rejected"] == {}, (name, audit["rejected"]))
    # the parameterized pair must convert via a recovery proof
    for name in ("vpr", "twolf"):
        accepted = audits[name]["accepted"]
        require(len(accepted) == 1, (name, accepted))
        require(accepted[0]["params"], (name, accepted[0]))
        require(accepted[0]["recovery"], (name, accepted[0]))
    return f"convert smoke ok: {sorted(expected)}"


def gate_autoconvert_bench(args) -> str:
    """Every benched conversion wins and matches the hand build."""
    rows = load_json(args.bench)["rows"]
    require({"vpr", "twolf"} <= set(rows), sorted(rows))
    for name, row in rows.items():
        require(row["accepted"] >= 1, (name, row))
        require(row["speedup"] > 1.0, (name, row["speedup"]))
        require(row["analysis_errors"] == 0, (name, row))
        delta = abs(row["elimination"] - row["hand_elimination"])
        require(delta <= 0.1, (name, delta))
    speedups = {name: round(row["speedup"], 2) for name, row in rows.items()}
    return f"autoconvert gate ok: {speedups}"


#: subcommand -> (gate, positional arguments)
GATES: Dict[str, tuple] = {
    "interpreter": (gate_interpreter, ["bench"]),
    "json-parses": (gate_json_parses, ["files+"]),
    "trace": (gate_trace, ["trace", "metrics"]),
    "store-compare": (gate_store_compare, ["compare", "cold", "warm"]),
    "report": (gate_report, ["html", "results"]),
    "trace-overhead": (gate_trace_overhead, ["bench"]),
    "heartbeat": (gate_heartbeat, ["status"]),
    "dashboard": (gate_dashboard, ["html"]),
    "analyze": (gate_analyze, ["report"]),
    "convert-smoke": (gate_convert_smoke, ["manifest", "expected"]),
    "autoconvert-bench": (gate_autoconvert_bench, ["bench"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="gate", required=True)
    for name, (gate, params) in GATES.items():
        gate_parser = sub.add_parser(name, help=gate.__doc__)
        for param in params:
            if param.endswith("+"):
                gate_parser.add_argument(param[:-1], nargs="+")
            else:
                gate_parser.add_argument(param)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    gate: Callable = GATES[args.gate][0]
    try:
        print(gate(args))
    except GateFailure as failure:
        print(f"gate {args.gate} failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
