"""The performance-history store: append-only JSONL of every bench run.

Every prior surface locked wins in with *single-snapshot* artifacts —
``BENCH_*.json`` plus a pairwise ``compare`` — which detects "worse than
the committed baseline" but cannot see trajectories: slow drift, noisy-
but-real regressions, or when a level shift actually landed.  This
module is the longitudinal half: a :class:`HistoryStore` under
``benchmarks/history/`` holds one :func:`make_record` per bench /
convert / harness invocation, keyed by git sha, timestamp, host
fingerprint, and bench kind, so :mod:`repro.obs.trends` can analyze the
whole series instead of one pair.

Records are **content-addressed**: ``record_id`` is the sha256 of the
record's canonical JSON (everything but the id itself), so re-appending
the same measurement is idempotent at read time — :meth:`HistoryStore.
records` deduplicates by id — while the file itself stays strictly
append-only.  Appends are a single ``O_APPEND`` ``write`` of one
newline-terminated line, which POSIX keeps atomic across concurrent
writers: two processes appending to one ``ci.jsonl`` interleave whole
lines, never bytes.  Torn or foreign lines (a crashed writer's partial
tail, hand edits) are skipped and counted, never fatal — history is
evidence, not a ledger that can deadlock CI.

Layout: a store opened on a *directory* keeps one ``<kind>.jsonl`` file
per record kind (``bench_interpreter.jsonl``, ``manifest.jsonl``, ...);
opened on a ``.jsonl`` *file* everything lands in that one file — the
shape CI uses for its single ``benchmarks/history/ci.jsonl`` stream.

Numeric rows are extracted by the same loaders ``dtt-harness compare``
uses (:mod:`repro.exec.compare`), so a metric means the same thing in a
pairwise diff and in a trend series.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

from repro.errors import HistoryError

#: serialized record shape; bump when fields change meaning
RECORD_SCHEMA = 1

#: default store location (relative to the repo / invocation cwd)
DEFAULT_HISTORY_DIR = os.path.join("benchmarks", "history")

_KIND_RE = re.compile(r"[^a-zA-Z0-9_.-]+")


def host_fingerprint() -> str:
    """A short, stable fingerprint of the executing host.

    Wall-clock metrics (instructions/sec, encode throughput) are only
    comparable on one machine class; the fingerprint lets the trend
    analyzer (or a reader) partition a shared history file by host.
    Hashes node name, machine architecture, and the Python major.minor —
    enough to separate "my laptop" from "the CI runner" without leaking
    a full hostname into committed artifacts.
    """
    identity = "|".join((
        platform.node(), platform.machine(),
        f"py{sys.version_info.major}.{sys.version_info.minor}",
    ))
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]


def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The checked-out commit sha, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) >= 7 else None


def record_id_of(record: Dict) -> str:
    """sha256 content address of a record (its ``record_id`` excluded)."""
    content = {k: v for k, v in record.items() if k != "record_id"}
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_record(kind: str, rows: Dict[str, Dict[str, float]],
                source: str = "", meta: Optional[Dict] = None,
                git_sha: Optional[str] = None,
                host: Optional[str] = None,
                timestamp: Optional[float] = None) -> Dict:
    """One history record: numeric ``rows`` plus run provenance.

    ``rows`` maps row name -> {metric: number} (the exact cell shape the
    compare loaders produce).  ``git_sha`` / ``host`` / ``timestamp``
    default to the current checkout, host, and wall clock; pass them
    explicitly to build synthetic series in tests.
    """
    if not kind:
        raise HistoryError("history record needs a non-empty kind")
    clean_rows: Dict[str, Dict[str, float]] = {}
    for row, cells in (rows or {}).items():
        numeric = {
            metric: value for metric, value in cells.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        if numeric:
            clean_rows[str(row)] = numeric
    if not clean_rows:
        raise HistoryError(
            f"history record of kind {kind!r} has no numeric rows")
    record = {
        "schema": RECORD_SCHEMA,
        "kind": kind,
        "timestamp": time.time() if timestamp is None else float(timestamp),
        "git_sha": current_git_sha() if git_sha is None else git_sha,
        "host": host_fingerprint() if host is None else host,
        "source": source,
        "rows": clean_rows,
    }
    if meta:
        record["meta"] = dict(meta)
    record["record_id"] = record_id_of(record)
    return record


def record_from_payload(data, source: str = "",
                        **provenance) -> Dict:
    """Build a record from any JSON payload ``compare`` understands.

    Accepts a ``bench_*`` dict (``dtt-harness bench`` / ``convert
    --bench-out``), a run-manifest dict, or a ``run --json`` results
    list; the record's rows are exactly the cells the corresponding
    compare loader extracts, and its kind is the bench ``kind`` (or
    ``manifest`` / ``results``).
    """
    # compare detects the payload's format and is the single source of
    # truth for which numeric cells it carries; import lazily (compare
    # pulls in the exec layer)
    from repro.exec import compare as _compare

    result_set = _compare.payload_result_set(data, source or "<payload>")
    if result_set is None:
        raise HistoryError(
            f"{source or 'payload'} is neither a bench file, a run "
            "manifest, nor a results list — nothing to append")
    kind = result_set.kind
    meta: Dict = {}
    if kind == "bench":
        kind = str(data["kind"])
        for field in ("schema", "repeat", "config"):
            if field in data:
                meta[field] = data[field]
    elif kind == "manifest":
        if data.get("experiment"):
            meta["experiment"] = data["experiment"]
        if data.get("schema_version") is not None:
            meta["schema_version"] = data["schema_version"]
    return make_record(kind, result_set.cells, source=source, meta=meta,
                       **provenance)


class HistoryStore:
    """Append-only JSONL store of performance-history records.

    ``path`` is either a directory (one ``<kind>.jsonl`` per record
    kind, created on demand) or a single ``*.jsonl`` file (all kinds in
    one stream).  Writers never rewrite existing bytes; readers
    tolerate and count corruption.
    """

    def __init__(self, path: str = DEFAULT_HISTORY_DIR):
        self.path = path
        self._single_file = path.endswith(".jsonl")
        if not self._single_file and os.path.isfile(path):
            raise HistoryError(
                f"{path!r} is a file but not *.jsonl; pass a directory "
                "or a .jsonl file")
        #: unreadable/foreign lines skipped by the last :meth:`records`
        self.corrupt_lines = 0

    # -- writing -------------------------------------------------------------

    def file_for(self, kind: str) -> str:
        """The JSONL file records of ``kind`` land in."""
        if self._single_file:
            return self.path
        safe = _KIND_RE.sub("_", kind) or "unknown"
        return os.path.join(self.path, f"{safe}.jsonl")

    def append(self, record: Dict) -> str:
        """Append one record; returns its ``record_id``.

        The line is written with a single ``os.write`` on an
        ``O_APPEND`` descriptor, so concurrent appenders (two CI shards,
        a bench and a convert racing) interleave whole records.
        """
        if "record_id" not in record:
            record = dict(record, record_id=record_id_of(record))
        target = self.file_for(str(record.get("kind", "unknown")))
        directory = os.path.dirname(os.path.abspath(target))
        os.makedirs(directory, exist_ok=True)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        fd = os.open(target, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        return record["record_id"]

    # -- reading -------------------------------------------------------------

    def _files(self) -> List[str]:
        if self._single_file:
            return [self.path] if os.path.isfile(self.path) else []
        try:
            names = sorted(os.listdir(self.path))
        except OSError:
            return []
        return [os.path.join(self.path, name) for name in names
                if name.endswith(".jsonl")]

    def records(self, kind: Optional[str] = None,
                host: Optional[str] = None) -> List[Dict]:
        """Every readable record, oldest first, deduplicated by id.

        ``kind`` / ``host`` filter; unreadable lines are counted in
        :attr:`corrupt_lines` (reset per call) and skipped.
        """
        self.corrupt_lines = 0
        seen = set()
        out: List[Dict] = []
        for path in self._files():
            try:
                with open(path, encoding="utf-8") as handle:
                    lines = handle.readlines()
            except OSError:
                continue
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    self.corrupt_lines += 1
                    continue
                if (not isinstance(record, dict)
                        or not isinstance(record.get("rows"), dict)
                        or "kind" not in record):
                    self.corrupt_lines += 1
                    continue
                if kind is not None and record["kind"] != kind:
                    continue
                if host is not None and record.get("host") != host:
                    continue
                rid = record.get("record_id") or record_id_of(record)
                if rid in seen:
                    continue
                seen.add(rid)
                out.append(record)
        out.sort(key=lambda r: (r.get("timestamp", 0.0),
                                r.get("record_id", "")))
        return out

    def kinds(self) -> List[str]:
        """Every record kind present in the store, sorted."""
        return sorted({record["kind"] for record in self.records()})

    def tail(self, kind: Optional[str] = None, count: int = 20,
             host: Optional[str] = None) -> List[Dict]:
        """The newest ``count`` records (optionally of one kind/host)."""
        records = self.records(kind=kind, host=host)
        return records[-count:] if count else records

    def __len__(self) -> int:
        return len(self.records())

    def __repr__(self) -> str:
        shape = "file" if self._single_file else "dir"
        return f"HistoryStore({self.path!r}, {shape})"


def append_payload(store_path: str, data, source: str = "",
                   **provenance) -> str:
    """Convenience: open a store, append one payload, return its id."""
    store = HistoryStore(store_path)
    return store.append(record_from_payload(data, source=source,
                                            **provenance))


def iter_row_metrics(records: Iterable[Dict]):
    """Yield ``(kind, row, metric, record, value)`` for every numeric
    cell of every record — the flattening :mod:`repro.obs.trends`
    builds its series from."""
    for record in records:
        kind = record.get("kind", "unknown")
        for row, cells in record.get("rows", {}).items():
            for metric, value in cells.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    yield kind, row, metric, record, value
