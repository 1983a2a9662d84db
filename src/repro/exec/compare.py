"""Regression compare: diff two result sets and flag what got worse.

``dtt-harness compare OLD NEW`` accepts, for each side, any of:

* a **result-store directory** (:mod:`repro.exec.store`) — every entry
  becomes one row of numeric cells (cycles, energy, instruction counts,
  redundancy fractions), plus a derived ``speedup`` cell for each DTT
  run whose baseline is also stored;
* a **results JSON file** (``dtt-harness run --json``) — one row per
  experiment (shape-check pass counts, manifest cost totals) plus one
  boolean cell per individual shape check;
* a **manifest JSON file** (a single :class:`RunManifest` dict) — cost
  and cache counters plus per-phase wall-clock;
* a **benchmark file** (any ``"kind": "bench_*"`` JSON, e.g.
  ``BENCH_interpreter.json`` from ``dtt-harness bench`` or
  ``BENCH_trace_overhead.json`` from ``dtt-harness bench --trace``) —
  one row per benchmark entry with its numeric columns.

Cells compare direction-aware: ``speedup`` (and check pass counts) may
only *fall* by more than the tolerance to count as a regression,
``cycles``/``energy`` may only *rise*, redundancy fractions regress on
drift in either direction, and wall-clock cells are informational only
(they are noisy and never gate).  A shape check flipping from pass to
fail is always a regression, tolerance notwithstanding.

CI-estimated metrics (sampled redundancy profiling) ship a sibling
``<metric>_ci_width`` cell; for those, the effective tolerance widens to
the confidence-interval width when that exceeds ``--tolerance`` —
movement inside the interval is sampling noise by definition.  The
``_ci_width`` / ``_ci_low`` / ``_ci_high`` cells themselves never gate.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.errors import CompareError

#: default relative tolerance before a numeric change counts
DEFAULT_TOLERANCE = 0.05

#: directions a cell can regress in
_DOWN_BAD = "down_bad"    # smaller is worse (speedup, checks passed)
_UP_BAD = "up_bad"        # bigger is worse (cycles, energy)
_DRIFT = "drift"          # any movement is suspect (fractions, counters)
_INFO = "info"            # never gates (wall clock, cache counters)


def metric_direction(name: str) -> str:
    """Which direction of change counts as a regression for ``name``."""
    base = name.rsplit(".", 1)[-1]
    if base.endswith(("_ci_width", "_ci_low", "_ci_high")):
        return _INFO  # interval bounds annotate their estimate, never gate
    if base in ("speedup", "observed_speedup", "checks_passed",
                "instructions_per_sec", "compression_ratio", "accepted",
                "elimination", "hand_elimination"):
        return _DOWN_BAD
    if base in ("cycles", "energy", "analysis_errors", "bytes_per_event",
                "sampled_abs_error", "rejected"):
        return _UP_BAD
    if ("seconds" in base or base.startswith("phase:")
            or base in ("events_per_sec",
                        "cache_hits", "cache_misses", "store_hits",
                        "store_misses", "peak_queue_depth", "checks_total",
                        "trace_dropped_events", "unmatched_closers",
                        "legacy_instructions_per_sec")):
        return _INFO
    return _DRIFT


class ResultSet:
    """One side of a comparison: numeric cells + boolean checks by row."""

    def __init__(self, source: str, kind: str,
                 cells: Dict[str, Dict[str, float]],
                 checks: Optional[Dict[str, bool]] = None):
        self.source = source
        self.kind = kind  # 'store' | 'results' | 'manifest' | 'bench'
        self.cells = cells
        self.checks = checks or {}

    def __repr__(self) -> str:
        return (f"ResultSet({self.kind}, {len(self.cells)} rows, "
                f"{len(self.checks)} checks)")


class Delta:
    """One compared cell (or check) and its verdict."""

    __slots__ = ("row", "metric", "old", "new", "relative", "direction",
                 "regression", "note")

    def __init__(self, row: str, metric: str, old, new, relative: float,
                 direction: str, regression: bool, note: str = ""):
        self.row = row
        self.metric = metric
        self.old = old
        self.new = new
        self.relative = relative
        self.direction = direction
        self.regression = regression
        self.note = note

    def as_dict(self) -> Dict:
        """JSON-ready dict of this delta."""
        return {
            "row": self.row,
            "metric": self.metric,
            "old": self.old,
            "new": self.new,
            "relative_change": round(self.relative, 6),
            "direction": self.direction,
            "regression": self.regression,
            "note": self.note,
        }


class CompareReport:
    """Everything the compare found, renderable and JSON-able."""

    def __init__(self, old: ResultSet, new: ResultSet, tolerance: float):
        self.old = old
        self.new = new
        self.tolerance = tolerance
        self.deltas: List[Delta] = []
        self.missing: List[str] = []  # rows only in old
        self.added: List[str] = []    # rows only in new

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regression]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions) or bool(self.missing)

    def as_dict(self) -> Dict:
        """JSON-ready dict of the full report (``compare --json``)."""
        return {
            "old": self.old.source,
            "new": self.new.source,
            "kind": self.old.kind,
            "tolerance": self.tolerance,
            "rows_compared": len(
                set(self.old.cells) & set(self.new.cells)),
            "missing_rows": sorted(self.missing),
            "added_rows": sorted(self.added),
            "changes": [d.as_dict() for d in self.deltas],
            "regressions": len(self.regressions),
        }

    def render(self) -> str:
        """Human-readable report, one line per change."""
        lines = [f"compare ({self.old.kind}): {self.old.source} -> "
                 f"{self.new.source}  [tolerance {self.tolerance:.1%}]"]
        for name in sorted(self.missing):
            lines.append(f"  MISSING {name} (present only in old)")
        for name in sorted(self.added):
            lines.append(f"  added   {name} (present only in new)")
        if not self.deltas:
            lines.append("  no changes beyond tolerance")
        for delta in self.deltas:
            mark = "REGRESSION" if delta.regression else "change    "
            if isinstance(delta.old, bool) or isinstance(delta.new, bool):
                movement = f"{delta.old} -> {delta.new}"
            else:
                movement = (f"{delta.old:g} -> {delta.new:g} "
                            f"({delta.relative:+.1%})")
            note = f"  [{delta.note}]" if delta.note else ""
            lines.append(
                f"  {mark} {delta.row} :: {delta.metric}: {movement}{note}")
        lines.append(
            f"{len(self.regressions)} regression(s), "
            f"{len(self.deltas)} change(s), "
            f"{len(self.missing)} missing row(s)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_result_set(path: str) -> ResultSet:
    """Load one comparison side, auto-detecting its format."""
    if os.path.isdir(path):
        return _load_store(path)
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise CompareError(f"cannot read {path!r}: {error}") from error
    result_set = payload_result_set(data, path)
    if result_set is None:
        raise CompareError(
            f"{path!r} is neither a results list, a run manifest, nor an "
            "interpreter benchmark file")
    return result_set


def payload_result_set(data, source: str) -> Optional[ResultSet]:
    """The result set of one decoded JSON payload, by its format.

    A list is a ``run --json`` results list, a dict whose ``kind``
    starts with ``bench`` a benchmark file, and a dict with
    ``phase_seconds`` a run manifest.  Returns None for anything else.
    """
    if isinstance(data, list):
        return _load_results(source, data)
    if isinstance(data, dict):
        if str(data.get("kind", "")).startswith("bench"):
            return _load_bench(source, data)
        if "phase_seconds" in data:
            return _load_manifest(source, data)
    return None


def _load_store(path: str) -> ResultSet:
    from repro.exec.plan import RunSpec
    from repro.exec.store import ResultStore

    if not os.path.isdir(os.path.join(path, "objects")):
        raise CompareError(
            f"{path!r} is a directory but not a result store "
            "(no objects/ inside)")
    store = ResultStore(path)
    cells: Dict[str, Dict[str, float]] = {}
    by_name: Dict[str, Dict] = {}
    for entry in store.entries():
        by_name[entry["canonical"]] = entry
        payload = entry.get("payload", {})
        row: Dict[str, float] = {}
        if entry.get("kind") == "timed":
            for metric in ("cycles", "instructions", "main_instructions",
                           "support_instructions", "dram_accesses",
                           "energy"):
                if isinstance(payload.get(metric), (int, float)):
                    row[metric] = payload[metric]
        else:
            loads = payload.get("loads", {})
            slices = payload.get("slices", {})
            for summary in (loads, slices):
                for metric, value in summary.items():
                    if (metric.endswith(("_fraction", "_ci_width"))
                            and isinstance(value, (int, float))):
                        row[metric] = value
        if row:
            cells[entry["canonical"]] = row
    # derive speedup for every DTT run whose baseline is also stored
    for name, entry in by_name.items():
        if entry.get("kind") != "timed":
            continue
        try:
            spec = RunSpec.from_dict(entry["identity"])
        except Exception:
            continue
        baseline_spec = spec.baseline_spec()
        if baseline_spec is None:
            continue
        baseline = by_name.get(baseline_spec.canonical())
        if baseline is None:
            continue
        dtt_cycles = entry["payload"].get("cycles")
        base_cycles = baseline["payload"].get("cycles")
        if dtt_cycles and base_cycles:
            cells.setdefault(name, {})["speedup"] = \
                base_cycles / dtt_cycles
    if not cells:
        raise CompareError(f"result store {path!r} holds no entries")
    return ResultSet(path, "store", cells)


def _load_results(path: str, data: List) -> ResultSet:
    cells: Dict[str, Dict[str, float]] = {}
    checks: Dict[str, bool] = {}
    for item in data:
        if not isinstance(item, dict) or "experiment" not in item:
            raise CompareError(
                f"{path!r}: expected experiment result dicts")
        eid = item["experiment"]
        item_checks = item.get("checks", [])
        cells[eid] = {
            "checks_passed": sum(1 for c in item_checks if c.get("passed")),
            "checks_total": len(item_checks),
        }
        manifest = item.get("manifest")
        if isinstance(manifest, dict):
            if isinstance(manifest.get("total_seconds"), (int, float)):
                cells[eid]["total_seconds"] = manifest["total_seconds"]
        for check in item_checks:
            checks[f"{eid} :: {check.get('name')}"] = bool(
                check.get("passed"))
    if not cells:
        raise CompareError(f"{path!r} holds no experiment results")
    return ResultSet(path, "results", cells, checks)


def _load_bench(path: str, data: Dict) -> ResultSet:
    cells: Dict[str, Dict[str, float]] = {}
    for name, row in (data.get("rows") or {}).items():
        if not isinstance(row, dict):
            raise CompareError(f"{path!r}: bench row {name!r} is not a dict")
        numeric = {
            metric: value for metric, value in row.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        if numeric:
            cells[name] = numeric
    if not cells:
        raise CompareError(f"{path!r} holds no benchmark rows")
    return ResultSet(path, "bench", cells)


def _load_manifest(path: str, data: Dict) -> ResultSet:
    row: Dict[str, float] = {}
    for metric in ("total_seconds", "cache_hits", "cache_misses",
                   "store_hits", "store_misses", "peak_queue_depth",
                   "trace_dropped_events", "unmatched_closers"):
        if isinstance(data.get(metric), (int, float)):
            row[metric] = data[metric]
    for phase, seconds in (data.get("phase_seconds") or {}).items():
        if isinstance(seconds, (int, float)):
            row[f"phase:{phase}"] = seconds
    label = data.get("experiment") or "manifest"
    cells = {label: row}
    # schema v4: one row per analyzed DTT build, so a conversion whose
    # safety profile changed (new analyzer errors: up_bad; warning drift)
    # is flagged next to its cost metrics
    for summary in data.get("analysis") or []:
        if not isinstance(summary, dict):
            continue
        name = f"analysis:{summary.get('workload')}:{summary.get('kind')}"
        analysis_row: Dict[str, float] = {}
        if isinstance(summary.get("errors"), (int, float)):
            analysis_row["analysis_errors"] = summary["errors"]
        if isinstance(summary.get("warnings"), (int, float)):
            analysis_row["analysis_warnings"] = summary["warnings"]
        if analysis_row:
            cells[name] = analysis_row
    # schema v6: one row per automatic conversion, so a converter that
    # starts accepting fewer candidates (down_bad), producing slower
    # builds (cycles: up_bad), or eliminating less redundancy (down_bad)
    # shows up next to the run it converted for.  Unknown extra fields
    # are ignored, so newer-schema manifests still load.
    for audit in data.get("autoconvert") or []:
        if not isinstance(audit, dict):
            continue
        name = f"autoconvert:{audit.get('workload', '?')}"
        convert_row: Dict[str, float] = {}
        for metric in ("considered", "baseline_cycles", "cycles",
                       "speedup", "elimination"):
            if isinstance(audit.get(metric), (int, float)):
                convert_row[metric] = audit[metric]
        if isinstance(audit.get("accepted"), list):
            convert_row["accepted"] = len(audit["accepted"])
        if isinstance(audit.get("rejected"), dict):
            convert_row["rejected"] = sum(
                count for count in audit["rejected"].values()
                if isinstance(count, (int, float)))
        if convert_row:
            cells[name] = convert_row
    return ResultSet(path, "manifest", cells)


# ---------------------------------------------------------------------------
# comparing
# ---------------------------------------------------------------------------


def _relative(old: float, new: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else float("inf") if new > 0 else float("-inf")
    return (new - old) / abs(old)


def compare_sets(old: ResultSet, new: ResultSet,
                 tolerance: float = DEFAULT_TOLERANCE) -> CompareReport:
    """Diff ``new`` against ``old``; changes beyond ``tolerance`` that
    move in a metric's bad direction are regressions."""
    if old.kind != new.kind:
        raise CompareError(
            f"cannot compare a {old.kind} set against a {new.kind} set; "
            "give two stores, two results files, or two manifests")
    if tolerance < 0:
        raise CompareError(f"tolerance must be >= 0, got {tolerance}")
    report = CompareReport(old, new, tolerance)
    report.missing = [row for row in old.cells if row not in new.cells]
    report.added = [row for row in new.cells if row not in old.cells]

    for row in sorted(set(old.cells) & set(new.cells)):
        old_cells, new_cells = old.cells[row], new.cells[row]
        for metric in sorted(set(old_cells) & set(new_cells)):
            if metric.endswith(("_ci_width", "_ci_low", "_ci_high")):
                continue  # consumed as the sibling estimate's tolerance
            before, after = old_cells[metric], new_cells[metric]
            relative = _relative(before, after)
            # a CI-estimated metric (sampled profiling) publishes a
            # sibling `<metric>_ci_width` cell; movement inside the wider
            # of the two intervals is sampling noise, not a change, so
            # the effective tolerance is max(tolerance, relative CI width)
            note = ""
            effective = tolerance
            ci_width = max(old_cells.get(f"{metric}_ci_width", 0.0),
                           new_cells.get(f"{metric}_ci_width", 0.0))
            if ci_width and before:
                ci_relative = ci_width / abs(before)
                if ci_relative > effective:
                    effective = ci_relative
                    note = f"tolerance = CI width ({ci_width:g})"
            if abs(relative) <= effective:
                continue
            direction = metric_direction(metric)
            regression = (
                (direction == _DOWN_BAD and relative < 0)
                or (direction == _UP_BAD and relative > 0)
                or direction == _DRIFT
            )
            report.deltas.append(Delta(
                row, metric, before, after, relative, direction, regression,
                note=note))

    for name in sorted(set(old.checks) & set(new.checks)):
        if old.checks[name] == new.checks[name]:
            continue
        flipped_to_fail = old.checks[name] and not new.checks[name]
        report.deltas.append(Delta(
            name.split(" :: ")[0], name.split(" :: ", 1)[-1],
            old.checks[name], new.checks[name],
            0.0, _DOWN_BAD, flipped_to_fail,
            note="check flipped" if flipped_to_fail else "check now passes"))
    return report


def compare_paths(old_path: str, new_path: str,
                  tolerance: float = DEFAULT_TOLERANCE) -> CompareReport:
    """Convenience: load both sides and compare them."""
    return compare_sets(load_result_set(old_path),
                        load_result_set(new_path), tolerance)
