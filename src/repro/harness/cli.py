"""Command-line entry point: ``dtt-harness`` / ``python -m repro.harness.cli``.

Commands::

    dtt-harness list                 # experiments and workloads
    dtt-harness run E3               # one experiment
    dtt-harness run all              # everything, shared runner
    dtt-harness run all --jobs 4     # shard the run plan across workers
    dtt-harness run all --store .dtt-store   # persist + reuse results
    dtt-harness run E1 E3 --json out.json
    dtt-harness run E3 --trace-out t.json --metrics-out m.json
    dtt-harness run E3 --ctrace-out run.ctrace --trace-keep tail
    dtt-harness run E1 --sample-rate 64      # CI-bounded estimates
    dtt-harness compare old.json new.json    # flag regressions
    dtt-harness convert --workload mcf       # auto-convert to DTT
    dtt-harness convert --workload all --bench-out BENCH_autoconvert.json
    dtt-harness bench                # interpreter instructions/sec
    dtt-harness bench --trace        # trace codec + sampling accuracy
    dtt-harness stats --sample-rate 64 --ctrace-out run.ctrace
    dtt-harness explain --ctrace run.ctrace --activation 3
    dtt-harness report --ctrace run.ctrace -o report.html
    dtt-harness run E1 --profile profile.txt # cProfile the whole run
    dtt-harness verify               # correctness sweep of the suite
    dtt-harness sweep                # headline robustness across seeds
    dtt-harness stats                # run one workload, print the metrics
    dtt-harness explain --workload mcf --activation 3   # causal lineage
    dtt-harness explain --workload mcf --address 1040   # why suppressed?
    dtt-harness report --store .dtt-store -o report.html  # cross-run HTML
    dtt-harness lint --workload all          # structural checks, all builds
    dtt-harness lint program.dtt --json      # lint one assembly file
    dtt-harness analyze --workload mcf       # DTT safety analysis
    dtt-harness analyze --workload all --fail-on warning \
        --baseline benchmarks/analysis_baseline.json    # the CI gate
    dtt-harness bench --history benchmarks/history   # grow the series
    dtt-harness run E3 --status-file status.json     # live heartbeat
    dtt-harness history --gate               # trend gate over the store
    dtt-harness history benchmarks/history/ci.jsonl \
        --append BENCH_interpreter.json --gate       # CI: ingest + gate
    dtt-harness dashboard -o trends.html     # sparkline + flame HTML

``--store`` also defaults from the ``DTT_STORE`` environment variable;
``--no-store`` disables it.  ``compare`` accepts two result-store
directories, two ``--json`` results files, or two manifest JSON files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import SuiteRunner
from repro.workloads.base import verify_workload
from repro.workloads.suite import SUITE


def _cmd_list(_args) -> int:
    print("experiments:")
    for experiment_id, fn in EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()
        print(f"  {experiment_id}: {doc[0] if doc else fn.__name__}")
    print("workloads:")
    for name, workload in SUITE.items():
        print(f"  {name:8s} {workload.description}")
    return 0


def _cmd_run(args) -> int:
    for path in (args.json, args.metrics_out, args.trace_out,
                 args.ctrace_out, args.profile, args.status_file):
        # fail before the (slow) runs, not after
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            print(f"output directory does not exist: {path}")
            return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 2
    if not args.profile:
        return _run_experiments(args)
    import cProfile
    import io
    import pstats

    from repro.obs.flame import fold_superblock_frames
    from repro.obs.ioutil import atomic_write_text

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _run_experiments(args)
    finally:
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(50)
        stats.sort_stats("tottime").print_stats(25)
        atomic_write_text(args.profile,
                          fold_superblock_frames(buffer.getvalue()))
        print(f"wrote {args.profile} (pstats text: cumulative top 50, "
              "tottime top 25)")
    return status


def _run_experiments(args) -> int:
    from repro.obs.metrics import MetricsRegistry

    wanted = [w.upper() for w in args.experiments]
    if "ALL" in wanted:
        wanted = list(EXPERIMENTS)
    store = None if args.no_store \
        else (args.store or os.environ.get("DTT_STORE"))
    jobs = args.jobs
    if args.trace_out and jobs > 1:
        print("note: --trace-out needs live engines; forcing --jobs 1")
        jobs = 1
    if args.ctrace_out and jobs > 1:
        print("note: --ctrace-out needs live engines; forcing --jobs 1")
        jobs = 1
    if args.sample_rate is not None and jobs > 1:
        print("note: --sample-rate estimates stay memo-only; forcing "
              "--jobs 1")
        jobs = 1
    if args.sample_rate is not None and args.sample_rate < 1:
        print(f"--sample-rate must be >= 1, got {args.sample_rate}")
        return 2
    registry = MetricsRegistry() if args.metrics_out else None
    runner = SuiteRunner(seed=args.seed, scale=args.scale, metrics=registry,
                         trace=bool(args.trace_out), store=store,
                         trace_keep=args.trace_keep,
                         ctrace_out=args.ctrace_out,
                         sample_rate=args.sample_rate,
                         sample_seed=args.sample_seed,
                         status=args.status_file or None)
    try:
        return _run_experiments_inner(args, runner, wanted, jobs, registry)
    except BaseException:
        if runner.status is not None:
            runner.status.finish("failed")
        raise


def _run_experiments_inner(args, runner, wanted, jobs, registry) -> int:
    from repro.obs.timeline import traces_to_chrome

    if jobs > 1 or runner.store is not None or runner.status is not None:
        # state the deduplicated run matrix once and execute it up front
        # (sharded across workers / served from the store); every
        # experiment below is then pure memo hits.  A status file also
        # takes this path: the plan size is the ETA's denominator
        from repro.exec.plan import build_plan
        from repro.exec.pool import execute_plan

        plan = build_plan(wanted, seed=args.seed, scale=args.scale)
        stats = execute_plan(plan, runner, jobs=jobs,
                             task_timeout=args.task_timeout)
        executed = stats["parallel_executed"] + stats["serial_executed"]
        print(f"plan: {stats['planned']} runs — {stats['memo_hits']} "
              f"memoized, {stats['store_hits']} from store, {executed} "
              f"executed ({stats['mode']}, jobs={stats['jobs']})")
        if stats["worker_retries"]:
            print(f"note: {stats['worker_retries']} run(s) retried after "
                  "a worker crash")
        print()
    results = []
    failed = False
    for experiment_id in wanted:
        result = run_experiment(experiment_id, runner)
        results.append(result)
        print(result.render())
        print()
        failed = failed or not result.all_passed
    if runner.status is not None:
        runner.status.finish("done" if not failed else "failed")
    if args.history:
        _append_history(args.history, [r.as_dict() for r in results],
                        source=args.json or "run", runner=runner)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump([r.as_dict() for r in results], handle, indent=2)
        print(f"wrote {args.json}")
    if args.metrics_out:
        from repro.machine.superblock import publish_metrics

        publish_metrics(registry)  # code-cache counters ride along
        with open(args.metrics_out, "w") as handle:
            handle.write(registry.to_json())
        print(f"wrote {args.metrics_out}")
    if args.trace_out:
        from repro.obs.ioutil import atomic_write_text

        atomic_write_text(args.trace_out,
                          json.dumps(traces_to_chrome(runner.traces())))
        print(f"wrote {args.trace_out} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.ctrace_out:
        footer = runner.close_ctrace() or {}
        print(f"wrote {args.ctrace_out} ({footer.get('streams', 0)} "
              f"streams, {footer.get('events', 0)} events, "
              f"{footer.get('bytes', 0)} bytes compressed)")
    return 1 if failed else 0


def _cmd_compare(args) -> int:
    from repro.errors import CompareError
    from repro.exec.compare import compare_paths

    if args.json and not os.path.isdir(os.path.dirname(args.json) or "."):
        print(f"output directory does not exist: {args.json}")
        return 2
    try:
        report = compare_paths(args.old, args.new, tolerance=args.tolerance)
    except CompareError as error:
        print(f"compare failed: {error}")
        return 2
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"wrote {args.json}")
    return 1 if report.has_regressions else 0


def _cmd_bench(args) -> int:
    from repro.errors import MachineError
    from repro.harness.bench import (render_bench, render_trace_bench,
                                     run_bench, run_trace_bench, write_bench)

    output = args.output
    if args.trace and output == "BENCH_interpreter.json":
        output = "BENCH_trace_overhead.json"  # untouched default: retarget
    if output and not os.path.isdir(os.path.dirname(output) or "."):
        print(f"output directory does not exist: {output}")
        return 2
    if args.repeat < 1:
        print(f"--repeat must be >= 1, got {args.repeat}")
        return 2
    try:
        if args.trace:
            result = run_trace_bench(workloads=args.workloads,
                                     repeat=args.repeat, seed=args.seed,
                                     scale=args.scale,
                                     sample_rate=args.sample_rate)
        else:
            result = run_bench(workloads=args.workloads, repeat=args.repeat,
                               seed=args.seed, scale=args.scale,
                               max_instructions=args.max_instructions)
    except MachineError as error:
        print(f"bench failed: {error}")
        return 2
    print(render_trace_bench(result) if args.trace else render_bench(result))
    if output:
        write_bench(result, output)
        print(f"wrote {output}")
    if args.history:
        if _append_history(args.history, result,
                           source=output or "bench") is None:
            return 2
    return 0


def _append_history(store_path: str, payload, source: str,
                    runner=None) -> Optional[str]:
    """Append one payload to the performance-history store.

    Returns the record id (None on a HistoryError, which is printed,
    not raised — a malformed payload should fail the command without a
    traceback).  When ``runner`` is given the append is recorded as
    provenance, so a manifest built *afterwards* carries the record id.
    """
    from repro.errors import HistoryError
    from repro.obs.history import HistoryStore, record_from_payload

    try:
        store = HistoryStore(store_path)
        record = record_from_payload(payload, source=source)
        record_id = store.append(record)
    except HistoryError as error:
        print(f"history append failed: {error}")
        return None
    target = store.file_for(record["kind"])
    if runner is not None:
        runner.note_history(record_id, record["kind"], target)
    print(f"history: appended {record['kind']} record "
          f"{record_id[:12]} to {target}")
    return record_id


def _cmd_stats(args) -> int:
    from repro.obs.metrics import MetricsRegistry

    if args.workload not in SUITE:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(SUITE)}")
        return 2
    if args.sample_rate is not None and args.sample_rate < 1:
        print(f"--sample-rate must be >= 1, got {args.sample_rate}")
        return 2
    registry = MetricsRegistry()
    runner = SuiteRunner(seed=args.seed, scale=args.scale, metrics=registry,
                         ctrace_out=args.ctrace_out,
                         sample_rate=args.sample_rate,
                         sample_seed=args.sample_seed)
    workload = SUITE[args.workload]
    runner.timed(workload, "baseline")
    runner.timed(workload, "dtt")
    from repro.machine.superblock import publish_metrics

    publish_metrics(registry)
    print(f"metrics after a baseline + DTT timed run of {workload.name} "
          f"(smt2):")
    if args.prometheus:
        print(registry.to_prometheus_text(), end="")
    else:
        print(registry.render())
    if args.sample_rate is not None:
        profile = runner.profile(workload)
        loads = profile.loads
        load = loads.load_estimate
        store = loads.store_estimate
        print(f"\nsampled redundancy profile (1/{args.sample_rate} of "
              f"addresses, seed {args.sample_seed}):")
        print(f"  redundant loads: {load.fraction:.4f}  "
              f"95% CI [{load.ci_low:.4f}, {load.ci_high:.4f}]  "
              f"width {load.ci_width:.4f}  "
              f"({load.trials:,} loads sampled)")
        print(f"  silent stores:   {store.fraction:.4f}  "
              f"95% CI [{store.ci_low:.4f}, {store.ci_high:.4f}]  "
              f"width {store.ci_width:.4f}  "
              f"({store.trials:,} stores sampled)")
    if args.ctrace_out:
        from repro.obs.timeline import traces_to_chrome

        chrome_bytes = len(json.dumps(
            traces_to_chrome(runner.traces()), indent=1).encode("utf-8"))
        footer = runner.close_ctrace() or {}
        ctrace_bytes = footer.get("bytes", 0)
        events = footer.get("events", 0)
        ratio = chrome_bytes / ctrace_bytes if ctrace_bytes else 0.0
        print(f"\ncompressed trace: {args.ctrace_out}")
        print(f"  {events:,} events in {ctrace_bytes:,} bytes "
              f"({ctrace_bytes / events if events else 0:.2f} B/event); "
              f"{ratio:.1f}x smaller than the JSON Chrome export "
              f"({chrome_bytes:,} bytes)")
    return 0


def _cmd_explain(args) -> int:
    from repro.obs.causality import CausalGraph
    from repro.obs.report import (render_activation_list,
                                  render_explain_activation,
                                  render_explain_address)

    if args.ctrace:
        from repro.errors import CTraceError
        from repro.obs.ctrace import CTraceReader

        try:
            reader = CTraceReader(args.ctrace)
            wanted = f"{args.workload}:dtt:{args.config}"
            names = [name for name, _stream in reader.named_streams()]
            trace = reader.stream(wanted if wanted in names else None)
        except (OSError, CTraceError) as error:
            print(f"cannot read compressed trace: {error}")
            return 2
        label = trace.name
    else:
        if args.workload not in SUITE:
            print(f"unknown workload {args.workload!r}; "
                  f"choose from {', '.join(SUITE)}")
            return 2
        workload = SUITE[args.workload]
        runner = SuiteRunner(seed=args.seed, scale=args.scale, trace=True)
        try:
            runner.timed(workload, "dtt", args.config)
        except Exception as error:
            print(f"cannot run {workload.name} under DTT: {error}")
            return 2
        trace = runner.trace_for(workload.name, "dtt", args.config)
        if trace is None:
            print(f"{workload.name} produced no DTT trace under "
                  f"{args.config}")
            return 2
        label = f"{workload.name}:dtt:{args.config}"
    graph = CausalGraph.from_trace(trace)
    if args.activation is not None:
        print(render_explain_activation(graph, args.activation))
    elif args.address is not None:
        print(render_explain_address(graph, args.address))
    else:
        print(render_activation_list(graph, label))
    if trace.truncated:
        print(f"warning: trace buffer filled; {trace.dropped} events "
              "dropped — lineage may be incomplete")
    return 0


def _cmd_report(args) -> int:
    from repro.exec.store import ResultStore
    from repro.obs.ioutil import atomic_write_text
    from repro.obs.report import html_report

    entries = []
    if args.store:
        if not os.path.isdir(os.path.join(args.store, "objects")):
            print(f"{args.store!r} is not a result store "
                  "(no objects/ inside)")
            return 2
        entries = list(ResultStore(args.store).entries())
    results = None
    if args.results:
        try:
            with open(args.results, encoding="utf-8") as handle:
                results = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read {args.results!r}: {error}")
            return 2
        if not isinstance(results, list):
            print(f"{args.results!r} is not a results list "
                  "(expected `run --json` output)")
            return 2
    streams = []
    if args.ctrace:
        from repro.errors import CTraceError
        from repro.obs.ctrace import CTraceReader

        try:
            streams = CTraceReader(args.ctrace).named_streams()
        except (OSError, CTraceError) as error:
            print(f"cannot read compressed trace: {error}")
            return 2
    if not entries and results is None and not streams:
        print("nothing to report: pass --store, --results, "
              "and/or --ctrace")
        return 2
    atomic_write_text(args.output,
                      html_report(entries, results, title=args.title,
                                  ctrace_streams=streams))
    sources = []
    if entries:
        sources.append(f"{len(entries)} stored runs")
    if results is not None:
        sources.append(f"{len(results)} experiment results")
    if streams:
        sources.append(f"{len(streams)} compressed trace streams")
    print(f"wrote {args.output} ({', '.join(sources)})")
    return 0


def _cmd_history(args) -> int:
    from repro.errors import HistoryError
    from repro.obs.history import HistoryStore
    from repro.obs.trends import analyze_history

    if args.window < 1:
        print(f"--window must be >= 1, got {args.window}")
        return 2
    if args.min_runs < 2:
        print(f"--min-runs must be >= 2, got {args.min_runs}")
        return 2
    if args.append:
        try:
            with open(args.append, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read {args.append!r}: {error}")
            return 2
        if _append_history(args.path, payload, source=args.append) is None:
            return 2
    try:
        report = analyze_history(HistoryStore(args.path),
                                 window=args.window,
                                 tolerance=args.tolerance,
                                 min_runs=args.min_runs,
                                 kind=args.kind)
    except HistoryError as error:
        print(f"history analysis failed: {error}")
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render(verbose=args.verbose))
    return 1 if args.gate and report.has_regressions else 0


def _flame_attributions(report, seed=None, scale=None):
    """Cycle attributions for every SUITE workload a flagged (or
    improved) series row names: one traced DTT run each, joined with
    its redundancy profile so the flame cells carry silent-store
    counts.  A workload that fails to trace is skipped with a note —
    the dashboard must render even when one build is broken."""
    from repro.obs.causality import CausalGraph
    from repro.obs.flame import attribute_cycles

    wanted = []
    for verdict in report.verdicts:
        if verdict.verdict not in ("regression", "changepoint",
                                   "improvement"):
            continue
        for name in (verdict.row, verdict.row.rsplit(":", 1)[-1]):
            if name in SUITE and name not in wanted:
                wanted.append(name)
                break
    flames = {}
    if not wanted:
        return flames
    runner = SuiteRunner(seed=seed, scale=scale, trace=True)
    for name in sorted(wanted):
        workload = SUITE[name]
        try:
            result = runner.timed(workload, "dtt")
            trace = runner.trace_for(name, "dtt", "smt2")
        except Exception as error:
            print(f"note: no cycle attribution for {name}: {error}")
            continue
        if trace is None:
            print(f"note: {name} produced no DTT trace; "
                  "no cycle attribution")
            continue
        graph = CausalGraph.from_trace(trace)
        flames[name] = attribute_cycles(name, graph, result.cycles)
    return flames


def _cmd_dashboard(args) -> int:
    from repro.errors import HistoryError
    from repro.obs.history import HistoryStore
    from repro.obs.ioutil import atomic_write_text
    from repro.obs.report import trend_dashboard_html
    from repro.obs.trends import analyze_history

    if not os.path.isdir(os.path.dirname(args.output) or "."):
        print(f"output directory does not exist: {args.output}")
        return 2
    try:
        report = analyze_history(HistoryStore(args.history),
                                 window=args.window,
                                 tolerance=args.tolerance,
                                 min_runs=args.min_runs)
    except HistoryError as error:
        print(f"dashboard failed: {error}")
        return 2
    flames = {} if args.no_flames else _flame_attributions(
        report, seed=args.seed, scale=args.scale)
    atomic_write_text(args.output,
                      trend_dashboard_html(report, flames,
                                           title=args.title))
    print(f"wrote {args.output} ({len(report.verdicts)} series, "
          f"{len(report.flagged)} gating verdict(s), "
          f"{len(flames)} flame section(s))")
    return 0


def _analysis_targets(args):
    """Resolve a lint/analyze invocation to ``(label, program, specs)``
    triples — one per analyzed build.  ``specs`` is None for targets with
    no trigger registry (assembly files, baseline builds); exits via
    SystemExit(2) on unusable arguments."""
    from repro.isa.assembler import parse_program
    from repro.workloads.suite import workload_names

    targets = []
    if args.program:
        try:
            with open(args.program, encoding="utf-8") as handle:
                program = parse_program(handle.read())
            program.finalize()
        except Exception as error:
            print(f"cannot load {args.program!r}: {error}")
            raise SystemExit(2)
        targets.append((os.path.basename(args.program), program, None))
    names = list(args.workload or [])
    if "all" in names:
        names = workload_names()
    kind = args.kind
    for name in names:
        if name not in SUITE:
            print(f"unknown workload {name!r}; "
                  f"choose from {', '.join(SUITE)} or 'all'")
            raise SystemExit(2)
        workload = SUITE[name]
        build = workload.build(kind, workload.make_input(args.seed,
                                                         args.scale))
        if build is None:
            continue  # no watch variant: nothing to analyze
        if kind == "baseline":
            targets.append((f"{name}:baseline", build, None))
        else:
            targets.append((f"{name}:{kind}", build.program, build.specs))
    if not targets:
        print("nothing to check: pass an assembly file or --workload NAME")
        raise SystemExit(2)
    return targets


def _render_findings(label: str, findings, suppressed: int = 0) -> None:
    counts = f"{sum(1 for f in findings if f.severity == 'error')} error(s), " \
             f"{sum(1 for f in findings if f.severity == 'warning')} warning(s)"
    if suppressed:
        counts += f", {suppressed} baselined"
    print(f"{label}: {counts}")
    for finding in findings:
        print(f"  {finding!r}")
        if finding.detail:
            print(f"      {finding.detail}")


def _cmd_lint(args) -> int:
    from repro.analysis.lint import lint_program

    try:
        targets = _analysis_targets(args)
    except SystemExit as error:
        return int(error.code)
    payload = []
    worst_errors = 0
    for label, program, _specs in targets:
        findings = lint_program(program)
        worst_errors += sum(1 for f in findings if f.severity == "error")
        if args.json:
            payload.append({
                "target": label,
                "findings": [f.to_dict() for f in findings],
            })
        else:
            _render_findings(label, findings)
    if args.json:
        print(json.dumps(payload, indent=2))
    return 1 if worst_errors else 0


def _cmd_analyze(args) -> int:
    from repro.analysis import (Baseline, analysis_summary, analyze_program)
    from repro.errors import DttError

    try:
        targets = _analysis_targets(args)
    except SystemExit as error:
        return int(error.code)
    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except DttError as error:
            print(str(error))
            return 2
    written = Baseline()
    payload = []
    failed = False
    all_findings = []
    for label, program, specs in targets:
        findings = analyze_program(program, specs)
        written.add(findings, target=label)
        suppressed = 0
        if baseline is not None:
            findings, suppressed = baseline.filter(findings, target=label)
        all_findings.extend(findings)
        summary = analysis_summary(findings)
        if summary["errors"] or (args.fail_on == "warning"
                                 and summary["warnings"]):
            failed = True
        if args.json:
            row = {
                "target": label,
                "findings": [f.to_dict() for f in findings],
                "summary": summary,
                "suppressed": suppressed,
            }
            if specs is not None:
                from repro.analysis.symbolic import symbolic_report

                row["symbolic"] = symbolic_report(program, specs)
            payload.append(row)
        else:
            _render_findings(label, findings, suppressed)
    if args.write_baseline:
        written.save(args.write_baseline)
        print(f"wrote {args.write_baseline} "
              f"({len(written)} fingerprint(s))")
        return 0
    totals = analysis_summary(all_findings)
    if args.json:
        print(json.dumps({"targets": payload, "summary": totals}, indent=2))
    else:
        print(f"total: {totals['errors']} error(s), "
              f"{totals['warnings']} warning(s) "
              f"across {len(targets)} target(s)")
    return 1 if failed else 0


def _cmd_convert(args) -> int:
    from repro.autoconvert import convert_program
    from repro.obs.manifest import RunManifest
    from repro.workloads.suite import workload_names

    names = list(args.workload or [])
    if "all" in names:
        names = workload_names()
    for name in names:
        if name not in SUITE:
            print(f"unknown workload {name!r}; "
                  f"choose from {', '.join(SUITE)} or 'all'")
            return 2
    if args.top_k < 1:
        print(f"--top-k must be >= 1, got {args.top_k}")
        return 2

    runner = SuiteRunner(seed=args.seed, scale=args.scale)
    rows = {}
    status = 0
    for name in names:
        workload = SUITE[name]
        inp = workload.make_input(args.seed, args.scale)
        program = workload.build_baseline(inp)
        result = convert_program(
            program, top_k=args.top_k, min_speedup=args.min_speedup,
            config_name=args.config, sample_rate=args.sample_rate,
            sample_seed=args.sample_seed)
        runner.note_autoconvert(name, result.provenance())
        hand_elimination = _hand_elimination(workload, inp,
                                             result.baseline_redundant)
        print(f"  {name:8s} {len(result.accepted)}/{result.considered} "
              f"accepted  speedup {result.speedup:6.3f}  "
              f"elimination {result.elimination:6.1%}"
              + (f"  (hand {hand_elimination:6.1%})"
                 if hand_elimination is not None else ""))
        for reason, count in sorted(result.rejected.items()):
            print(f"           rejected {count} x {reason}")
        row = {
            "considered": result.considered,
            "accepted": len(result.accepted),
            "baseline_cycles": result.baseline_cycles,
            "cycles": result.cycles,
            "speedup": round(result.speedup, 6),
            "elimination": round(result.elimination, 6),
            "analysis_errors": 0,  # the gate only accepts at zero errors
        }
        if hand_elimination is not None:
            row["hand_elimination"] = round(hand_elimination, 6)
        rows[name] = row
        if not result.accepted:
            status = 1
        if args.emit:
            from repro.isa.assembler import format_program
            from repro.obs.ioutil import atomic_write_text
            if result.build is None:
                print(f"           nothing accepted; not writing {args.emit}")
            else:
                path = (args.emit if len(names) == 1
                        else f"{args.emit}.{name}")
                atomic_write_text(path, format_program(result.build.program))
                print(f"           wrote {path}")

    payload = {
        "kind": "bench_autoconvert",
        "config": args.config,
        "top_k": args.top_k,
        "min_speedup": args.min_speedup,
        "rows": rows,
    }
    if args.history:
        # append before the manifest is built, so the v7 manifest
        # carries the record id of the series this run extended
        if _append_history(args.history, payload,
                           source=args.bench_out or "convert",
                           runner=runner) is None:
            return 2
    manifest = RunManifest.from_runner(runner, experiment_id="convert")
    if args.json:
        from repro.obs.ioutil import atomic_write_text
        atomic_write_text(args.json, manifest.to_json())
        print(f"wrote {args.json}")
    if args.bench_out:
        from repro.obs.ioutil import atomic_write_text
        atomic_write_text(args.bench_out, json.dumps(payload, indent=2))
        print(f"wrote {args.bench_out}")
    return status


def _hand_elimination(workload, inp, baseline_redundant):
    """The hand-written conversion's redundancy elimination, or None
    when the workload has no (working) hand conversion to compare to."""
    from repro.machine.machine import Machine, run_to_completion
    from repro.profiling.redundancy import RedundantLoadProfiler

    if not baseline_redundant:
        return None
    try:
        build = workload.build_dtt(inp)
        machine = Machine(build.program, num_contexts=2)
        machine.attach_engine(build.engine())
        profiler = RedundantLoadProfiler()
        machine.add_observer(profiler)
        run_to_completion(machine)
    except Exception:
        return None
    return 1.0 - profiler.redundant_loads / baseline_redundant


def _cmd_sweep(args) -> int:
    from repro.harness.sweeps import sweep_redundancy, sweep_speedup

    seeds = tuple(args.seeds) if args.seeds else None
    failed = False
    for sweep in (sweep_redundancy, sweep_speedup):
        result = sweep(seeds) if seeds else sweep()
        print(result.render())
        print()
        failed = failed or not result.all_passed
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    status = 0
    for name, workload in SUITE.items():
        try:
            verify_workload(workload, seed=args.seed, scale=args.scale)
            print(f"  {name:8s} OK")
        except Exception as error:  # report every failure, not just the first
            print(f"  {name:8s} FAILED: {error}")
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    """The dtt-harness argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="dtt-harness",
        description="Reproduction harness for 'Data-triggered threads' "
                    "(Tseng & Tullsen, HPCA 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments and workloads")
    run = sub.add_parser("run", help="run experiments (E1..E8 or 'all')")
    run.add_argument("experiments", nargs="+",
                     help="experiment ids, or 'all'")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--scale", type=int, default=None)
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="shard the run plan across N worker processes "
                          "(default: 1, serial)")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="persistent result store directory (default: "
                          "$DTT_STORE if set); repeated runs against the "
                          "same store skip already-computed simulations")
    run.add_argument("--no-store", action="store_true",
                     help="disable the result store even if DTT_STORE is set")
    run.add_argument("--task-timeout", type=float, default=600.0,
                     metavar="SECONDS",
                     help="per-run timeout under --jobs N (default: 600)")
    run.add_argument("--json", default=None, help="also write JSON here")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write a Chrome trace-event timeline of every "
                          "DTT run (open in chrome://tracing / Perfetto)")
    run.add_argument("--ctrace-out", default=None, metavar="FILE",
                     help="spill the full event stream of every DTT run "
                          "to a compressed trace file (readable by "
                          "`explain --ctrace` / `report --ctrace`); the "
                          "in-memory buffer cap no longer loses events")
    run.add_argument("--trace-keep", default="head",
                     choices=["head", "tail"],
                     help="which side of a full trace buffer survives: "
                          "'head' keeps the first events (default), "
                          "'tail' the most recent window")
    run.add_argument("--sample-rate", type=int, default=None, metavar="K",
                     help="profile redundancy on a 1/K address sample "
                          "(bounded memory, estimates with 95%% CIs) "
                          "instead of exactly")
    run.add_argument("--sample-seed", type=int, default=0,
                     help="seed of the sampling hash (default: 0); same "
                          "seed + rate = same estimate, any process")
    run.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="write the metrics-registry snapshot as JSON")
    run.add_argument("--profile", default=None, metavar="FILE",
                     help="wrap the whole run in cProfile and write the "
                          "pstats text report here")
    run.add_argument("--history", default=None, metavar="DIR",
                     help="append this run's results to a performance-"
                          "history store (a directory of per-kind JSONL "
                          "files, or one .jsonl file) for `dtt-harness "
                          "history` trend analysis")
    run.add_argument("--status-file", default=None, metavar="FILE",
                     help="write a live atomic-JSON heartbeat (phase, "
                          "runs completed, instructions retired, queue "
                          "depth, EWMA ETA) to FILE while the run is in "
                          "flight")
    bench = sub.add_parser(
        "bench",
        help="measure interpreter instructions/sec (fast path vs legacy "
             "stepping) and write BENCH_interpreter.json")
    bench.add_argument("--workloads", nargs="+", default=None,
                       metavar="NAME",
                       help="workload classes to measure (default: mcf "
                            "equake perlbmk)")
    bench.add_argument("--repeat", type=int, default=3, metavar="N",
                       help="timed attempts per driver; best is reported "
                            "(default: 3)")
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--scale", type=int, default=None)
    bench.add_argument("--max-instructions", type=int, default=50_000_000)
    bench.add_argument("--trace", action="store_true",
                       help="run the trace-overhead benchmark instead "
                            "(ctrace bytes/event, compression ratio, codec "
                            "events/sec, sampled-vs-exact profiler error) "
                            "and write BENCH_trace_overhead.json")
    bench.add_argument("--sample-rate", type=int, default=64, metavar="K",
                       help="sampling denominator for the --trace bench's "
                            "accuracy measurement (default: 64)")
    bench.add_argument("-o", "--output", default="BENCH_interpreter.json",
                       metavar="FILE",
                       help="benchmark JSON path (default: "
                            "BENCH_interpreter.json, or "
                            "BENCH_trace_overhead.json under --trace); "
                            "'' skips writing")
    bench.add_argument("--history", default=None, metavar="DIR",
                       help="also append the result to a performance-"
                            "history store for `dtt-harness history` "
                            "trend analysis")
    convert = sub.add_parser(
        "convert",
        help="automatically convert plain workload builds to DTT: "
             "profile, synthesize, prove (static checks + output "
             "equality), accept only on a measured cycle win")
    convert.add_argument("--workload", nargs="+", default=["mcf"],
                         metavar="NAME",
                         help="workload(s) to convert, or 'all' "
                              "(default: mcf)")
    convert.add_argument("--top-k", type=int, default=8, metavar="N",
                         help="profile-ranked candidates the gate "
                              "considers (default: 8)")
    convert.add_argument("--min-speedup", type=float, default=1.0,
                         metavar="X",
                         help="minimum simulated-cycle speedup vs the "
                              "unconverted baseline to accept (default: "
                              "1.0 — any strict win)")
    convert.add_argument("--config", default="smt2",
                         help="timing configuration for the measurement "
                              "(default: smt2)")
    convert.add_argument("--seed", type=int, default=None)
    convert.add_argument("--scale", type=int, default=None)
    convert.add_argument("--sample-rate", type=int, default=None,
                         metavar="K",
                         help="rank candidates from a 1/K sampled "
                              "profile (CI-lower-bound ordering) instead "
                              "of an exact one")
    convert.add_argument("--sample-seed", type=int, default=0)
    convert.add_argument("--json", default=None, metavar="FILE",
                         help="write the run manifest (schema v7, with "
                              "the full conversion audit) here")
    convert.add_argument("--emit", default=None, metavar="FILE",
                         help="write the converted program as assembly "
                              "text (suffixed per workload when "
                              "converting several)")
    convert.add_argument("--bench-out", default=None, metavar="FILE",
                         help="write a bench_autoconvert JSON (one row "
                              "per workload) usable with `compare`")
    convert.add_argument("--history", default=None, metavar="DIR",
                         help="append the conversion metrics to a "
                              "performance-history store; the --json "
                              "manifest then carries the record id")
    compare = sub.add_parser(
        "compare",
        help="diff two result sets (stores, --json files, or manifests) "
             "and flag regressions")
    compare.add_argument("old", help="baseline side: store dir / JSON file")
    compare.add_argument("new", help="candidate side: store dir / JSON file")
    compare.add_argument("--tolerance", type=float, default=0.05,
                         help="relative change tolerated before flagging "
                              "(default: 0.05)")
    compare.add_argument("--json", default=None,
                         help="also write the compare report as JSON here")
    verify = sub.add_parser("verify", help="verify baseline == DTT == reference")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--scale", type=int, default=None)
    sweep = sub.add_parser("sweep", help="headline robustness across seeds")
    sweep.add_argument("--seeds", type=int, nargs="+", default=None)
    stats = sub.add_parser(
        "stats", help="run one workload metered and print the registry")
    stats.add_argument("--workload", default="mcf",
                       help="workload to run (default: mcf)")
    stats.add_argument("--seed", type=int, default=None)
    stats.add_argument("--scale", type=int, default=None)
    stats.add_argument("--prometheus", action="store_true",
                       help="print Prometheus text format instead of the "
                            "aligned table")
    stats.add_argument("--sample-rate", type=int, default=None, metavar="K",
                       help="also run a 1/K sampled redundancy profile and "
                            "print the estimates with their 95%% CIs")
    stats.add_argument("--sample-seed", type=int, default=0)
    stats.add_argument("--ctrace-out", default=None, metavar="FILE",
                       help="spill the DTT run's events to a compressed "
                            "trace and print its compression ratio")
    explain = sub.add_parser(
        "explain",
        help="trace one DTT run and explain an activation's causal "
             "lineage (or an address's suppression)")
    explain.add_argument("--workload", default="mcf",
                         help="workload to trace (default: mcf)")
    explain.add_argument("--config", default="smt2",
                         help="machine configuration (default: smt2)")
    explain.add_argument("--ctrace", default=None, metavar="FILE",
                         help="explain from a compressed trace file "
                              "(written by `run --ctrace-out`) instead of "
                              "re-running the workload")
    explain.add_argument("--seed", type=int, default=None)
    explain.add_argument("--scale", type=int, default=None)
    what = explain.add_mutually_exclusive_group()
    what.add_argument("--activation", type=int, default=None, metavar="N",
                      help="explain why activation N ran (trigger -> match "
                           "-> enqueue -> dispatch -> outcome)")
    what.add_argument("--address", type=int, default=None, metavar="ADDR",
                      help="explain what happened at one trigger address "
                           "(suppressions, duplicates, activations)")
    what.add_argument("--list", action="store_true",
                      help="list every activation with its outcome "
                           "(the default)")
    report = sub.add_parser(
        "report",
        help="write a self-contained cross-run HTML report from a result "
             "store and/or a `run --json` results file")
    report.add_argument("--store", default=None, metavar="DIR",
                        help="result store directory to aggregate")
    report.add_argument("--results", default=None, metavar="FILE",
                        help="results JSON written by `run --json` "
                             "(adds paper-claim vs measured and latency "
                             "sections)")
    report.add_argument("--ctrace", default=None, metavar="FILE",
                        help="compressed trace file (`run --ctrace-out`); "
                             "adds a per-stream causal summary section")
    report.add_argument("-o", "--output", default="report.html",
                        metavar="FILE",
                        help="output HTML path (default: report.html)")
    report.add_argument("--title", default="DTT reproduction report",
                        help="report page title")
    history = sub.add_parser(
        "history",
        help="trend analysis over the performance-history store: "
             "EWMA prediction intervals + changepoint flagging per "
             "metric series; --gate exits nonzero on regressions")
    history.add_argument("path", nargs="?", default="benchmarks/history",
                         help="history store: a directory of per-kind "
                              "JSONL files or one .jsonl file "
                              "(default: benchmarks/history)")
    history.add_argument("--append", default=None, metavar="FILE",
                         help="first append this bench / manifest / "
                              "results JSON to the store (the CI "
                              "ingestion step), then analyze")
    history.add_argument("--kind", default=None,
                         help="restrict the analysis to one record kind "
                              "(e.g. bench_interpreter)")
    history.add_argument("--window", type=int, default=20, metavar="N",
                         help="newest records per kind to analyze "
                              "(default: 20)")
    history.add_argument("--tolerance", type=float, default=0.05,
                         help="relative change floor before a deviation "
                              "can flag (default: 0.05)")
    history.add_argument("--min-runs", type=int, default=3, metavar="N",
                         help="fewest runs of a series before its "
                              "verdicts may gate (default: 3)")
    history.add_argument("--gate", action="store_true",
                         help="exit 1 when any series gets a gating "
                              "verdict (regression / changepoint) — "
                              "the CI trend gate")
    history.add_argument("--verbose", action="store_true",
                         help="list quiet (ok / info / short) series "
                              "too, not just flagged ones")
    history.add_argument("--json", action="store_true",
                         help="print the trend report as JSON instead "
                              "of text")
    dashboard = sub.add_parser(
        "dashboard",
        help="write the self-contained trend-dashboard HTML "
             "(sparklines, verdicts, flame-style cycle attribution "
             "for flagged workloads)")
    dashboard.add_argument("--history", default="benchmarks/history",
                           metavar="DIR",
                           help="history store to analyze "
                                "(default: benchmarks/history)")
    dashboard.add_argument("-o", "--output", default="trends.html",
                           metavar="FILE",
                           help="output HTML path (default: trends.html)")
    dashboard.add_argument("--window", type=int, default=20, metavar="N")
    dashboard.add_argument("--tolerance", type=float, default=0.05)
    dashboard.add_argument("--min-runs", type=int, default=3, metavar="N")
    dashboard.add_argument("--title", default="DTT performance trends",
                           help="dashboard page title")
    dashboard.add_argument("--no-flames", action="store_true",
                           help="skip the traced runs that build the "
                                "cycle-attribution sections")
    dashboard.add_argument("--seed", type=int, default=None)
    dashboard.add_argument("--scale", type=int, default=None)

    def _add_target_arguments(command):
        command.add_argument("program", nargs="?", default=None,
                             help="assembly file to check (optional)")
        command.add_argument("--workload", nargs="+", default=None,
                             metavar="NAME",
                             help="bundled workload(s) to check, or 'all'")
        command.add_argument("--kind", default="dtt",
                             choices=["baseline", "dtt", "dtt-watch"],
                             help="which build of a workload to check "
                                  "(default: dtt)")
        command.add_argument("--seed", type=int, default=None)
        command.add_argument("--scale", type=int, default=None)
        command.add_argument("--json", action="store_true",
                             help="print findings as JSON instead of text")

    lint = sub.add_parser(
        "lint",
        help="structural checks over a program or workload builds "
             "(nonzero exit on errors)")
    _add_target_arguments(lint)
    analyze = sub.add_parser(
        "analyze",
        help="DTT safety analysis (lint + trigger coverage + race checks); "
             "nonzero exit per --fail-on")
    _add_target_arguments(analyze)
    analyze.add_argument("--fail-on", default="error",
                         choices=["error", "warning"],
                         help="findings severity that makes the exit code "
                              "nonzero (default: error)")
    analyze.add_argument("--baseline", default=None, metavar="FILE",
                         help="suppress findings fingerprinted in this "
                              "baseline file")
    analyze.add_argument("--write-baseline", default=None, metavar="FILE",
                         help="write all current findings as a baseline "
                              "and exit 0")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "convert":
        return _cmd_convert(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "history":
        return _cmd_history(args)
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # piping into `head` etc. closes stdout early; exit quietly
        sys.exit(0)
