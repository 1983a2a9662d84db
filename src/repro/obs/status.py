"""Live run telemetry: an atomic JSON heartbeat for in-flight runs.

A full-suite traced run can take minutes with no output between
experiments.  A :class:`StatusFile` makes the run observable *while it
happens*: the harness passes ``--status-file status.json`` and any other
process — ``watch cat``, a dashboard, the coordinating service — reads a
complete, never-torn JSON snapshot of where the run is.

Integrity comes from :func:`repro.obs.ioutil.atomic_write_text`
(tmpfile + fsync + ``os.replace``): a reader sees either the previous
complete heartbeat or the next one, byte-for-byte, even mid-write, and
concurrent writers to one path degrade to last-writer-wins rather than
interleaved garbage.  Cost is bounded by ``min_interval`` write
throttling — phase transitions and completion always flush, per-run
ticks are coalesced — so the heartbeat never becomes the hot path.

Each heartbeat carries: pid, ``running``/``done``/``failed`` status, the
current phase (:meth:`~repro.harness.suite.ExperimentSpec.phase_name`
strings, the same names the manifest's ``phase_seconds`` uses), runs
completed / total, instructions retired, last and peak queue depth, and
an **ETA from EWMA throughput**: per-run seconds are exponentially
weighted (same ``alpha`` spirit as :mod:`repro.obs.trends` and the
result store's timing hints) and multiplied by the runs remaining, so
the estimate adapts as the suite moves from cheap kernels to traced
heavyweights.  :meth:`StatusFile.summary` condenses the final telemetry
for the v7 run manifest.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

from repro.obs.ioutil import atomic_write_text

#: EWMA weight of the newest per-run duration for the ETA estimate
ETA_ALPHA = 0.4

#: default write throttle; ticks inside the window coalesce
DEFAULT_MIN_INTERVAL = 0.25


class StatusFile:
    """Throttled atomic JSON heartbeat for one run.

    Cheap to tick (a dict update unless the throttle window elapsed)
    and safe to share a path across retries: every write replaces the
    whole file.  A ``path`` of None/"" disables everything, so callers
    wire it unconditionally.
    """

    def __init__(self, path: Optional[str],
                 min_interval: float = DEFAULT_MIN_INTERVAL):
        self.path = path or None
        self.min_interval = max(0.0, min_interval)
        self.started = time.time()
        self._last_write = 0.0
        self._ewma_run_seconds: Optional[float] = None
        self._ewma_instr_per_sec: Optional[float] = None
        self.state: Dict = {
            "pid": os.getpid(),
            "status": "running",
            "phase": None,
            "runs_completed": 0,
            "runs_total": None,
            "instructions_retired": 0,
            "queue_depth": 0,
            "peak_queue_depth": 0,
            "eta_seconds": None,
            "throughput_instructions_per_sec": None,
        }
        if self.path:
            self._write(force=True)

    @property
    def enabled(self) -> bool:
        return self.path is not None

    # -- lifecycle -----------------------------------------------------------

    def set_total(self, runs_total: int) -> None:
        """Declare how many runs the plan holds (enables the ETA)."""
        self.state["runs_total"] = int(runs_total)
        self._write(force=True)

    def begin_phase(self, phase: str) -> None:
        """A new phase started; always flushed (phases are rare and the
        most useful thing a watcher can see)."""
        self.state["phase"] = phase
        self._write(force=True)

    def complete_run(self, phase: str, seconds: float,
                     instructions: int = 0, queue_depth: int = 0) -> None:
        """One run finished: fold its cost into the EWMA and tick."""
        self.state["phase"] = phase
        self.state["runs_completed"] += 1
        self.state["instructions_retired"] += int(instructions)
        self.state["queue_depth"] = int(queue_depth)
        self.state["peak_queue_depth"] = max(
            self.state["peak_queue_depth"], int(queue_depth))
        if seconds >= 0:
            previous = self._ewma_run_seconds
            self._ewma_run_seconds = (
                seconds if previous is None
                else ETA_ALPHA * seconds + (1.0 - ETA_ALPHA) * previous)
        if seconds > 0 and instructions > 0:
            rate = instructions / seconds
            previous = self._ewma_instr_per_sec
            self._ewma_instr_per_sec = (
                rate if previous is None
                else ETA_ALPHA * rate + (1.0 - ETA_ALPHA) * previous)
        self._write()

    def note_cached(self, count: int = 1) -> None:
        """Runs served from memo/store: they count toward completion
        but not toward the EWMA (a cache hit says nothing about how
        long the remaining *executed* runs will take)."""
        self.state["runs_completed"] += count
        self._write()

    def tick(self, **fields) -> None:
        """Merge arbitrary telemetry fields and maybe flush."""
        self.state.update(fields)
        self._write()

    def finish(self, status: str = "done") -> None:
        """Terminal heartbeat; always flushed."""
        self.state["status"] = status
        self.state["eta_seconds"] = 0.0 if status == "done" else None
        self._write(force=True)

    # -- derived -------------------------------------------------------------

    def _eta(self) -> Optional[float]:
        total = self.state["runs_total"]
        if total is None or self._ewma_run_seconds is None:
            return None
        remaining = max(0, total - self.state["runs_completed"])
        return round(remaining * self._ewma_run_seconds, 3)

    def snapshot(self) -> Dict:
        """The JSON payload a reader sees (also written to disk)."""
        now = time.time()
        state = dict(self.state)
        if state["status"] == "running":
            state["eta_seconds"] = self._eta()
        state["ewma_run_seconds"] = (
            round(self._ewma_run_seconds, 4)
            if self._ewma_run_seconds is not None else None)
        if self._ewma_instr_per_sec is not None:
            state["throughput_instructions_per_sec"] = round(
                self._ewma_instr_per_sec, 1)
        state["elapsed_seconds"] = round(now - self.started, 3)
        state["updated"] = now
        return state

    def summary(self) -> Dict:
        """Condensed final telemetry for the run manifest (v7)."""
        state = self.snapshot()
        return {
            "status": state["status"],
            "runs_completed": state["runs_completed"],
            "runs_total": state["runs_total"],
            "instructions_retired": state["instructions_retired"],
            "peak_queue_depth": state["peak_queue_depth"],
            "ewma_run_seconds": state["ewma_run_seconds"],
            "throughput_instructions_per_sec":
                state["throughput_instructions_per_sec"],
            "elapsed_seconds": state["elapsed_seconds"],
            "status_file": self.path,
        }

    # -- writing -------------------------------------------------------------

    def _write(self, force: bool = False) -> None:
        if not self.path:
            return
        now = time.time()
        if not force and now - self._last_write < self.min_interval:
            return
        self._last_write = now
        payload = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        try:
            atomic_write_text(self.path, payload)
        except OSError:
            # telemetry must never kill the run it observes; a vanished
            # directory or full disk silently stops the heartbeat
            self.path = None


def read_status(path: str) -> Optional[Dict]:
    """Read one heartbeat; None when absent or (transiently) unreadable."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None
