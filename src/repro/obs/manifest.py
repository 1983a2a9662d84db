"""Run manifests: what ran, under what configuration, at what cost.

A :class:`RunManifest` is the provenance record of one harness run: a
stable fingerprint of everything that identified the run (seed, scale,
and the full set of memoization keys the runner executed, each of which
embeds workload, build kind, machine configuration, and DTT-config
fingerprint), wall-clock seconds per phase, the runner's memoization
hit/miss counts, and the peak thread-queue depth any engine reached.
Experiment results carry their manifest into ``--json`` output, so a
results file is self-describing: the numbers and the conditions that
produced them travel together.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional


class RunManifest:
    """Provenance + cost record for one harness run."""

    #: bump when the serialized shape changes
    #: (v2: store_hits / store_misses, canonical-string run keys;
    #:  v3: trace health counters + causal summary from traced runs;
    #:  v4: static-analysis summaries per DTT build;
    #:  v5: trace_drop_policy + sampling/ctrace provenance;
    #:  v6: autoconvert provenance — candidates considered/accepted and
    #:  per-reason rejection counts from the conversion gate;
    #:  v7: performance-history record ids appended by this run and the
    #:  final live-telemetry heartbeat summary)
    SCHEMA_VERSION = 7

    def __init__(
        self,
        fingerprint: str,
        seed: Optional[int],
        scale: Optional[int],
        phase_seconds: Dict[str, float],
        cache_hits: int,
        cache_misses: int,
        peak_queue_depth: int,
        experiment_id: str = "",
        store_hits: int = 0,
        store_misses: int = 0,
        trace_dropped_events: int = 0,
        unmatched_closers: int = 0,
        causal: Optional[Dict] = None,
        analysis: Optional[List[Dict]] = None,
        trace_drop_policy: str = "head",
        sampling: Optional[Dict] = None,
        ctrace: Optional[Dict] = None,
        autoconvert: Optional[List[Dict]] = None,
        history: Optional[List[Dict]] = None,
        status: Optional[Dict] = None,
    ):
        self.fingerprint = fingerprint
        self.seed = seed
        self.scale = scale
        self.phase_seconds = dict(phase_seconds)
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.store_hits = store_hits
        self.store_misses = store_misses
        self.peak_queue_depth = peak_queue_depth
        self.experiment_id = experiment_id
        #: events the EngineTrace discarded after its buffer filled —
        #: nonzero means the causal record (and any report built on it)
        #: is incomplete
        self.trace_dropped_events = trace_dropped_events
        #: completion/cancellation events whose activation had no open
        #: slice in the timeline pairing (mid-run attach or truncation)
        self.unmatched_closers = unmatched_closers
        #: merged :func:`repro.obs.causality.causal_summary` over the
        #: runner's traces, or None for untraced runs
        self.causal = dict(causal) if causal else None
        #: per-DTT-build static-analysis summaries
        #: (:meth:`SuiteRunner.analysis_summaries`); [] when no DTT build
        #: was run
        self.analysis = [dict(row) for row in (analysis or [])]
        #: which side of a full trace buffer survived ("head" keeps the
        #: first events — historical behavior — "tail" the most recent);
        #: interprets ``trace_dropped_events``
        self.trace_drop_policy = trace_drop_policy
        #: sampled-profiling provenance (rate, seed, per-workload CI
        #: widths); None for exact (unsampled) profiles
        self.sampling = dict(sampling) if sampling else None
        #: compressed-trace spill provenance (path, streams, events,
        #: bytes); None when no ctrace was written
        self.ctrace = dict(ctrace) if ctrace else None
        #: automatic-conversion provenance, one row per converted
        #: workload (:meth:`repro.autoconvert.gate.ConversionResult.\
        #: provenance`: candidates considered, accepted, rejection
        #: counts by reason, cycles, elimination); [] when the run
        #: performed no automatic conversion
        self.autoconvert = [dict(row) for row in (autoconvert or [])]
        #: performance-history records this run appended
        #: (:meth:`SuiteRunner.note_history`: record_id, kind, store
        #: path) — the join key between a manifest and the trend series
        #: it extended; [] when no ``--history`` was wired
        self.history = [dict(row) for row in (history or [])]
        #: final live-telemetry heartbeat summary
        #: (:meth:`repro.obs.status.StatusFile.summary`); None when no
        #: ``--status-file`` was wired
        self.status = dict(status) if status else None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_runner(cls, runner, experiment_id: str = "") -> "RunManifest":
        """Build a manifest from a :class:`~repro.harness.runner.SuiteRunner`.

        Captures the runner's *current* accumulated state; call after the
        experiment(s) of interest have run.
        """
        stats = runner.cache_stats()
        identity = {
            "seed": runner.seed,
            "scale": runner.scale,
            # canonical workload:build:config:seed:scale strings — the
            # same form the result store hashes into content addresses
            "runs": sorted(stats["keys"]),
        }
        causal = None
        dropped = 0
        unmatched = 0
        traces = runner.traces()
        if traces:
            # lazy: untraced runs never pay the causality import
            from repro.obs.causality import causal_summary
            from repro.obs.timeline import unmatched_closer_count

            causal = causal_summary(traces)
            dropped = causal["dropped_events"]
            unmatched = sum(unmatched_closer_count(trace)
                            for _name, trace in traces)
        return cls(
            fingerprint=fingerprint_of(identity),
            seed=runner.seed,
            scale=runner.scale,
            phase_seconds=runner.phase_seconds(),
            cache_hits=stats["hits"],
            cache_misses=stats["misses"],
            peak_queue_depth=runner.peak_queue_depth(),
            experiment_id=experiment_id,
            store_hits=stats["store_hits"],
            store_misses=stats["store_misses"],
            trace_dropped_events=dropped,
            unmatched_closers=unmatched,
            causal=causal,
            analysis=runner.analysis_summaries(),
            trace_drop_policy=runner.trace_keep,
            sampling=runner.sampling_provenance(),
            ctrace=runner.ctrace_provenance(),
            autoconvert=runner.autoconvert_provenance(),
            history=runner.history_provenance(),
            status=runner.status_summary(),
        )

    # -- serialization --------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds summed over all recorded phases."""
        return sum(self.phase_seconds.values())

    def as_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "schema_version": self.SCHEMA_VERSION,
            "experiment": self.experiment_id,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "scale": self.scale,
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in self.phase_seconds.items()
            },
            "total_seconds": round(self.total_seconds, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "peak_queue_depth": self.peak_queue_depth,
            "trace_dropped_events": self.trace_dropped_events,
            "trace_drop_policy": self.trace_drop_policy,
            "unmatched_closers": self.unmatched_closers,
            "causal": self.causal,
            "analysis": self.analysis,
            "sampling": self.sampling,
            "ctrace": self.ctrace,
            "autoconvert": self.autoconvert,
            "history": self.history,
            "status": self.status,
        }

    def to_json(self, indent: int = 2) -> str:
        """The manifest as a JSON string."""
        return json.dumps(self.as_dict(), indent=indent)

    def __repr__(self) -> str:
        return (
            f"RunManifest({self.experiment_id or 'run'}, "
            f"fingerprint={self.fingerprint[:12]}, "
            f"{len(self.phase_seconds)} phases, "
            f"hits={self.cache_hits}, misses={self.cache_misses})"
        )


def fingerprint_of(identity: Dict) -> str:
    """Stable sha256 hex digest of a JSON-serializable identity dict."""
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
