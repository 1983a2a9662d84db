"""Suite runner: executes (and memoizes) the runs experiments share.

E3, E4, E6 and E7 all need the same baseline/DTT timed runs; running the
whole suite once and caching results keeps the full harness fast.  Every
memo is keyed on the run's :class:`~repro.exec.plan.RunSpec`, which holds
everything that affects a run (kind, workload, build kind, machine
configuration, DTT configuration fingerprint, seed, scale), so distinct
experiments never alias.  The fingerprint is auto-derived from
``DttConfig.__slots__`` (:func:`repro.exec.plan.config_fingerprint`), so
a newly added configuration knob can never silently alias entries.

Timed runs and profiles take one path (:meth:`SuiteRunner._run`): the
in-memory memo, then the optional persistent backend, the
content-addressed :class:`~repro.exec.store.ResultStore` (read at most
once per run and counted as one ``runner.store_hits`` or
``runner.store_misses``), then the simulation, whose result is written
back, so a second harness invocation against the same store executes
zero simulations.  Only the simulate step differs by ``RunSpec.kind``.
DTT results restored from the store carry a
:class:`~repro.exec.store.StoredEngineView` standing in for the live
engine, so experiments that read engine counters keep working.

The runner is also the observability anchor of a harness run: it counts
memoization and store hits/misses, accumulates wall-clock seconds per
phase (one phase per distinct run), optionally wraps every DTT engine in
an :class:`~repro.core.trace.EngineTrace` for timeline export, and feeds
a shared :class:`~repro.obs.metrics.MetricsRegistry` through to the
timing simulator — all of which
:meth:`repro.obs.manifest.RunManifest.from_runner` rolls into the
per-run manifest.  The pool scheduler (:mod:`repro.exec.pool`) reads
the store once per planned run (:meth:`SuiteRunner.load_from_store`),
then executes the rest through :meth:`SuiteRunner.execute_spec` or in
workers, each with a private runner, whose results come back through
:meth:`SuiteRunner.install_payload` / :meth:`merge_worker_run`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.core.config import DttConfig
from repro.core.trace import EngineTrace
from repro.errors import CorrectnessError, DttError, ExecError
from repro.exec.plan import RunSpec, resolve_workload
from repro.profiling.report import RedundancyReport, profile_program
from repro.timing.params import named_config
from repro.timing.stats import TimingResult
from repro.timing.system import TimingSimulator
from repro.workloads.base import Workload
from repro.workloads.suite import SUITE


class SuiteRunner:
    """Runs workloads under timing/profiling with memoization."""

    def __init__(self, seed: Optional[int] = None, scale: Optional[int] = None,
                 metrics=None, trace: bool = False, store=None,
                 trace_keep: str = "head",
                 trace_max_events: int = 100_000,
                 ctrace_out: Optional[str] = None,
                 sample_rate: Optional[int] = None,
                 sample_seed: int = 0,
                 status=None):
        self.seed = seed
        self.scale = scale
        #: optional MetricsRegistry shared by every run this runner makes
        self.metrics = metrics
        #: when True, every DTT engine is wrapped in an EngineTrace; the
        #: store is then never *read* (traces need live engines), though
        #: executed runs are still written back
        self.trace_enabled = trace or ctrace_out is not None
        #: which side of a full trace buffer survives ("head" = first
        #: events, the historical default; "tail" = most recent window)
        self.trace_keep = trace_keep
        self.trace_max_events = trace_max_events
        #: path of the compressed spill file; when set, every traced
        #: run's full event stream is written through a
        #: :class:`~repro.obs.ctrace.CTraceWriter` regardless of the
        #: in-memory buffer cap (call :meth:`close_ctrace` when done)
        self.ctrace_out = ctrace_out
        #: profiling sample rate (denominator; None = exact profiling).
        #: Sampled profiles are estimates, so they stay memo-only — the
        #: persistent store never sees them
        self.sample_rate = sample_rate
        self.sample_seed = sample_seed
        self._ctrace_writer = None
        self._ctrace_footer: Optional[Dict] = None
        #: optional persistent :class:`~repro.exec.store.ResultStore`
        #: behind the in-memory memo; a path string is accepted and opened
        if isinstance(store, str):
            from repro.exec.store import ResultStore
            store = ResultStore(store)
        self.store = store
        #: optional live-telemetry heartbeat
        #: (:class:`~repro.obs.status.StatusFile`); a path string is
        #: accepted and opened.  Every executed run ticks it with the
        #: phase, wall-clock, instructions retired, and queue depth.
        if isinstance(status, str):
            from repro.obs.status import StatusFile
            status = StatusFile(status)
        self.status = status
        #: every memo is keyed on the run's RunSpec
        self._results: Dict[RunSpec, object] = {}
        self._engines: Dict[RunSpec, object] = {}
        self._traces: Dict[RunSpec, EngineTrace] = {}
        self._autoconvert: List[Dict] = []
        self._history: List[Dict] = []
        #: made once on first use: inputs by (workload, seed, scale),
        #: builds and analysis rows by (workload, kind, seed, scale)
        self._inputs: Dict[Tuple, object] = {}
        self._builds: Dict[Tuple, object] = {}
        self._analysis: Dict[Tuple, Dict] = {}
        self._phase_seconds: Dict[str, float] = {}
        self._hits = 0
        self._misses = 0
        self._store_hits = 0
        self._store_misses = 0

    # -- cache accounting --------------------------------------------------------

    def _record_hit(self) -> None:
        self._hits += 1
        if self.metrics is not None:
            self.metrics.counter(
                "runner.cache_hits", "memoized runs served from cache").inc()

    def _record_miss(self) -> None:
        self._misses += 1
        if self.metrics is not None:
            self.metrics.counter(
                "runner.cache_misses", "runs actually executed").inc()

    def _record_store_hit(self) -> None:
        self._store_hits += 1
        if self.metrics is not None:
            self.metrics.counter(
                "runner.store_hits",
                "runs restored from the persistent result store").inc()

    def _record_store_miss(self) -> None:
        self._store_misses += 1
        if self.metrics is not None:
            self.metrics.counter(
                "runner.store_misses",
                "store lookups that found no entry").inc()

    def _record_phase(self, phase: str, seconds: float) -> None:
        self._phase_seconds[phase] = self._phase_seconds.get(phase, 0.0) \
            + seconds
        if self.metrics is not None:
            self.metrics.histogram(
                "runner.run_seconds", "wall-clock seconds per executed run",
                buckets=(0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60, 300),
            ).observe(seconds)
        if self.store is not None:
            self.store.record_timing(phase, seconds)

    def cache_stats(self) -> Dict:
        """Hit/miss counts and the cached runs as canonical strings.

        ``keys`` holds the documented, serialization-safe
        ``workload:build:config:seed=<seed>:scale=<scale>`` form (see
        :func:`repro.exec.plan.canonical_run_name`) — the same strings
        the result store hashes into content addresses.
        """
        timed = sum(spec.kind == "timed" for spec in self._results)
        return {
            "hits": self._hits,
            "misses": self._misses,
            "store_hits": self._store_hits,
            "store_misses": self._store_misses,
            "timed_entries": timed,
            "profile_entries": len(self._results) - timed,
            "inputs": len(self._inputs),
            "builds": len(self._builds),
            "analysis_rows": len(self._analysis),
            "keys": [spec.canonical() for spec in self._results],
        }

    def clear(self) -> None:
        """Drop every memoized run, input, build and analysis row
        (counters and phase timings too)."""
        self._results.clear()
        self._inputs.clear()
        self._builds.clear()
        self._analysis.clear()
        self._engines.clear()
        self._traces.clear()
        self._autoconvert.clear()
        self._history.clear()
        self._phase_seconds.clear()
        self._hits = 0
        self._misses = 0
        self._store_hits = 0
        self._store_misses = 0

    def phase_seconds(self) -> Dict[str, float]:
        """Wall-clock seconds per phase (one phase per executed run)."""
        return dict(self._phase_seconds)

    def peak_queue_depth(self) -> int:
        """Deepest any cached engine's thread queue ever got."""
        depths = [engine.queue.depth_high_water
                  for engine in self._engines.values()]
        return max(depths, default=0)

    def analysis_summaries(self) -> List[Dict]:
        """Static-analysis summaries for every DTT build this runner ran.

        One row per distinct ``(workload, kind)`` among the memoized timed
        runs with a DTT build (``dtt`` / ``dtt-watch``), produced by
        :func:`repro.analysis.checks.summarize_build` under the default
        :class:`~repro.core.config.DttConfig` — the analyzer's verdict is
        a property of the *build* (program + trigger specs), not of the
        machine configuration, so ablation variants of one build share a
        row.  Rolled into the run manifest (schema v4) so ``compare`` can
        flag a conversion whose safety profile changed.

        Only bundled (suite-registered) workloads are summarized: ad-hoc
        experiment workloads (e.g. E9's contention micro-workloads) are
        left out.
        """
        seen = set()
        rows: List[Dict] = []
        for spec in self._results:
            workload, build = spec.workload, spec.build
            if (build not in ("dtt", "dtt-watch") or workload not in SUITE
                    or (workload, build) in seen):
                continue
            seen.add((workload, build))
            key = (workload, build, spec.seed, spec.scale)
            if key not in self._analysis:
                made = self._build(SUITE[workload], build, spec.seed,
                                   spec.scale)
                if made is None:
                    continue  # no address-watched variant
                from repro.analysis.checks import summarize_build

                self._analysis[key] = summarize_build(made, workload, build)
            row = self._analysis[key]
            rows.append(dict(row, codes=dict(row["codes"])))
        rows.sort(key=lambda row: (row["workload"], row["kind"]))
        return rows

    def traces(self) -> List[Tuple[str, EngineTrace]]:
        """(label, trace) for every traced run, in execution order."""
        return [(spec.phase_name(), trace)
                for spec, trace in self._traces.items()]

    def trace_for(self, workload: str, kind: str = "dtt",
                  config_name: str = "smt2") -> Optional[EngineTrace]:
        """The trace of one run (requires ``trace=True``), or None."""
        for spec, trace in self._traces.items():
            if (spec.workload, spec.build, spec.config_name) \
                    == (workload, kind, config_name):
                return trace
        return None

    # -- compressed-trace spill --------------------------------------------------

    def _begin_spill(self, stream_name: str):
        """Open (lazily) the ctrace writer and start a stream; returns
        the spill sink for the new EngineTrace, or None."""
        if self.ctrace_out is None:
            return None
        if self._ctrace_writer is None:
            from repro.obs.ctrace import CTraceWriter
            self._ctrace_writer = CTraceWriter(self.ctrace_out)
        self._ctrace_writer.begin_stream(stream_name)
        return self._ctrace_writer

    def _end_spill(self, trace: EngineTrace) -> None:
        if self._ctrace_writer is None:
            return
        self._ctrace_writer.end_stream(
            memory_dropped=trace.dropped, drop_policy=trace.keep)

    def close_ctrace(self) -> Optional[Dict]:
        """Commit the compressed spill file (idempotent).

        Until this runs the target path holds the previous artifact (or
        nothing) — the writer stages through a temp file.  Returns the
        footer metadata, or None when no spill was configured.
        """
        if self._ctrace_writer is not None:
            self._ctrace_footer = self._ctrace_writer.close()
            self._ctrace_writer = None
        return self._ctrace_footer

    # -- manifest provenance -----------------------------------------------------

    def sampling_provenance(self) -> Optional[Dict]:
        """Sampled-profiling provenance for the manifest (schema v5):
        rate, seed, and each sampled profile's estimator state.  None
        when profiling is exact."""
        if self.sample_rate is None:
            return None
        profiles = {}
        for spec, report in self._results.items():
            if spec.kind == "profile" and hasattr(report.loads, "provenance"):
                profiles[spec.workload] = report.loads.provenance()
        return {
            "sample_rate": self.sample_rate,
            "sample_seed": self.sample_seed,
            "profiles": profiles,
        }

    def note_autoconvert(self, workload: str, provenance: Dict) -> None:
        """Record one automatic conversion's gate audit for the manifest.

        ``provenance`` is :meth:`repro.autoconvert.gate.ConversionResult.\
        provenance`; the row lands in the manifest's ``autoconvert`` list
        (schema v6) keyed by workload name.
        """
        self._autoconvert.append(dict(provenance, workload=workload))

    def autoconvert_provenance(self) -> List[Dict]:
        """Automatic-conversion audit rows for the manifest (schema v6):
        one per :meth:`note_autoconvert` call, in recording order."""
        return [dict(row) for row in self._autoconvert]

    def note_history(self, record_id: str, kind: str, path: str) -> None:
        """Record one performance-history append for the manifest.

        Called after a ``--history`` append so the v7 manifest names the
        exact :mod:`repro.obs.history` record(s) this run produced — the
        join key between a manifest and the trend series it extended.
        """
        self._history.append(
            {"record_id": record_id, "kind": kind, "path": path})

    def history_provenance(self) -> List[Dict]:
        """History-append records for the manifest (schema v7): one per
        :meth:`note_history` call, in recording order."""
        return [dict(row) for row in self._history]

    def status_summary(self) -> Optional[Dict]:
        """Condensed heartbeat telemetry for the manifest (schema v7),
        or None when no ``--status-file`` was wired."""
        if self.status is None or not self.status.enabled:
            return None
        return self.status.summary()

    def ctrace_provenance(self) -> Optional[Dict]:
        """Compressed-spill provenance for the manifest (schema v5).

        Never closes the writer (a manifest can be built mid-harness,
        with more traced runs still to come): while the spill is open
        this reports live counters with ``committed: False``; after
        :meth:`close_ctrace` it reports the final footer.
        """
        if self.ctrace_out is None:
            return None
        provenance: Dict = {"path": self.ctrace_out}
        if self._ctrace_footer is not None:
            provenance.update(self._ctrace_footer)
            provenance["committed"] = True
        else:
            writer = self._ctrace_writer
            provenance.update({
                "streams": writer.streams_written if writer else 0,
                "events": writer.events_written if writer else 0,
                "committed": False,
            })
        return provenance

    # -- persistent store --------------------------------------------------------

    def _storable(self, spec: RunSpec) -> bool:
        """May ``spec`` go through the store?  Sampled profiles are
        estimates, so they stay memo-only: the store holds exact
        profiles only, and an estimate is never restored where an exact
        one is expected."""
        return self.store is not None and not (
            spec.kind == "profile" and self.sample_rate is not None)

    def load_from_store(self, spec: RunSpec) -> bool:
        """Serve ``spec`` from the persistent store if present.

        The one store read: it counts one hit or one miss.  Nothing is
        read (or counted) for a run the store may not hold, nor while
        tracing (traces need live engines).
        """
        if self.trace_enabled or not self._storable(spec):
            return False
        entry = self.store.get(spec)
        if entry is None:
            self._record_store_miss()
            return False
        self._install(spec, entry["payload"])
        self._record_store_hit()
        return True

    def _install(self, spec: RunSpec, payload: Dict) -> None:
        """Decode ``payload`` into the memo (and engine views)."""
        from repro.exec.store import decode_profile, decode_timed

        if spec.kind == "profile":
            self._results[spec] = decode_profile(payload)
        else:
            self._results[spec], view = decode_timed(payload)
            if view is not None:
                self._engines[spec] = view

    # -- spec-driven execution (the pool scheduler's interface) -----------------

    def is_cached(self, spec: RunSpec) -> bool:
        """Is this run already in the in-memory memo?"""
        return spec in self._results

    def execute_spec(self, spec: RunSpec,
                     check_against_baseline: bool = True) -> None:
        """Run one planned :class:`RunSpec` through the one path, without
        the store read: the scheduler already made it
        (:meth:`load_from_store`), for this run and its baseline."""
        self._run(spec, resolve_workload(spec.workload),
                  check_against_baseline, read_store=False)

    def result_for(self, spec: RunSpec):
        """The memoized result of ``spec`` (raises if never run)."""
        if spec not in self._results:
            raise ExecError(f"run {spec.canonical()} has not been executed")
        return self._results[spec]

    def payload_for(self, spec: RunSpec) -> Dict:
        """Encode the memoized result of ``spec`` (worker-side, and for
        the store's write-back)."""
        from repro.exec.store import encode_profile, encode_timed

        if spec.kind == "profile":
            return encode_profile(self.result_for(spec))
        return encode_timed(self.result_for(spec), self._engines.get(spec))

    def install_payload(self, spec: RunSpec, payload: Dict,
                        elapsed: float) -> None:
        """Adopt a worker-executed run: memo, store write-back, and the
        executed-run count.  The run's engine/timing/cache-miss counters
        arrive separately via :meth:`merge_worker_run` (already
        incremented worker-side); its store miss was counted when the
        scheduler read the store."""
        self._install(spec, payload)
        self._misses += 1
        if self._storable(spec):
            self.store.put(spec, payload, elapsed)

    def merge_worker_run(self, metrics_values: Optional[Dict],
                         phases: Optional[Dict[str, float]]) -> None:
        """Fold a worker's metrics snapshot and phase timings into this
        runner's registry, phase table, and store timing hints."""
        if metrics_values and self.metrics is not None:
            self.metrics.merge_values(metrics_values)
        for phase, seconds in (phases or {}).items():
            self._phase_seconds[phase] = \
                self._phase_seconds.get(phase, 0.0) + seconds
            if self.store is not None:
                self.store.record_timing(phase, seconds)

    # -- shared inputs and builds ------------------------------------------------

    def _build(self, workload: Workload, kind: str, seed, scale):
        """The one ``kind`` build (:meth:`Workload.build`) and input per
        key, made on first use; runs must not mutate them."""
        key = (workload.name, kind, seed, scale)
        if key not in self._builds:
            made = (workload.name, seed, scale)
            if made not in self._inputs:
                self._inputs[made] = workload.make_input(seed, scale)
            self._builds[key] = workload.build(kind, self._inputs[made])
        return self._builds[key]

    def build_for(self, workload: Workload, kind: str = "dtt"):
        """The shared ``kind`` build at this runner's seed and scale."""
        return self._build(workload, kind, self.seed, self.scale)

    # -- the one execution path --------------------------------------------------

    def _run(self, spec: RunSpec, workload: Workload,
             check_against_baseline: bool = True, read_store: bool = True):
        """Every run's path: the memo, then (with ``read_store``) the
        store, else simulate, account the phase and heartbeat, check a
        DTT output against its baseline, memoize and write back."""
        if spec in self._results:
            self._record_hit()
            return self._results[spec]
        if read_store and self.load_from_store(spec):
            return self._results[spec]
        self._record_miss()
        result, engine, elapsed = self._simulate(spec, workload)
        self._record_phase(spec.phase_name(), elapsed)
        if self.status is not None:
            self.status.complete_run(
                spec.phase_name(), elapsed,
                instructions=(result.instructions if spec.kind == "timed"
                              else 0),
                queue_depth=(engine.queue.depth_high_water
                             if engine is not None else 0))
        baseline_spec = spec.baseline_spec()
        if baseline_spec is not None and check_against_baseline:
            baseline = self._run(baseline_spec, workload,
                                 read_store=read_store)
            if result.output != baseline.output:
                raise CorrectnessError(
                    f"{workload.name}: {spec.build} output diverges from "
                    f"baseline under {spec.config_name}"
                )
        self._results[spec] = result
        if engine is not None:
            self._engines[spec] = engine
        if self._storable(spec):
            self.store.put(spec, self.payload_for(spec), elapsed)
        return result

    def _simulate(self, spec: RunSpec, workload: Workload):
        """Execute ``spec``: (result, live engine or None, seconds)."""
        if spec.kind == "profile":
            program = self.build_for(workload, "baseline")
            started = time.perf_counter()
            report = profile_program(program, workload.name,
                                     sample_rate=self.sample_rate,
                                     sample_seed=self.sample_seed)
            return report, None, time.perf_counter() - started
        build = self.build_for(workload, spec.build)
        if build is None:
            raise CorrectnessError(
                f"{workload.name} has no {spec.build} build")
        program, engine, trace = build, None, None
        if spec.build != "baseline":
            program = build.program
            engine = build.engine(config=spec.dtt_config(), deferred=True)
            if self.trace_enabled:
                spill = self._begin_spill(spec.phase_name())
                trace = self._traces[spec] = EngineTrace(
                    engine, max_events=self.trace_max_events,
                    keep=self.trace_keep, spill=spill)
        simulator = TimingSimulator(program, named_config(spec.config_name),
                                    engine=engine, metrics=self.metrics)
        started = time.perf_counter()
        result = simulator.run()
        elapsed = time.perf_counter() - started
        if trace is not None:
            self._end_spill(trace)
            if self.metrics is not None and trace.dropped:
                # labeled by drop policy: a "head" drop loses the run's
                # recent events, a "tail" drop its beginning — exported
                # metrics must distinguish the two windows
                self.metrics.counter(
                    "trace.dropped_events",
                    "events dropped by full in-memory trace buffers",
                    labels={"keep": trace.keep}).inc(trace.dropped)
        return result, engine, elapsed

    # -- timed runs and profiles -------------------------------------------------

    def timed(
        self,
        workload: Workload,
        kind: str = "baseline",
        config_name: str = "smt2",
        dtt_config: Optional[DttConfig] = None,
        check_against_baseline: bool = True,
    ) -> TimingResult:
        """One timed run.  ``kind`` is 'baseline', 'dtt', or 'dtt-watch'."""
        spec = RunSpec.for_timed(workload.name, kind, config_name,
                                 dtt_config, self.seed, self.scale)
        return self._run(spec, workload, check_against_baseline)

    def engine_for(self, workload: Workload, kind: str = "dtt",
                   config_name: str = "smt2",
                   dtt_config: Optional[DttConfig] = None):
        """The engine of a previously-run (or now-run) DTT timed run.

        For runs restored from the persistent store this is a read-only
        :class:`~repro.exec.store.StoredEngineView` carrying the same
        ``summary()`` / ``status`` / queue high-water surfaces.
        """
        spec = RunSpec.for_timed(workload.name, kind, config_name,
                                 dtt_config, self.seed, self.scale)
        if spec not in self._engines:
            self._run(spec, workload)
        if spec not in self._engines:
            raise DttError(
                f"no engine available for {workload.name}:{kind}:"
                f"{config_name} (baseline runs have no DTT engine)"
            )
        return self._engines[spec]

    def profile(self, workload: Workload) -> RedundancyReport:
        """Redundancy profile of the workload's baseline build.

        With :attr:`sample_rate` set, the profile is a bounded-memory
        *estimate* (see
        :class:`~repro.profiling.sampled.SampledRedundantLoadProfiler`)
        and is kept memo-only (:meth:`_storable`).
        """
        spec = RunSpec.for_profile(workload.name, self.seed, self.scale)
        return self._run(spec, workload)

    # -- sweeps ---------------------------------------------------------------------

    def speedup(self, workload: Workload, config_name: str = "smt2",
                dtt_config: Optional[DttConfig] = None) -> float:
        """Baseline-over-DTT cycle ratio for one workload/config."""
        baseline = self.timed(workload, "baseline", config_name)
        dtt = self.timed(workload, "dtt", config_name, dtt_config)
        return dtt.speedup_over(baseline)

    def suite(self):
        """The full workload suite, in canonical order."""
        return SUITE.values()
