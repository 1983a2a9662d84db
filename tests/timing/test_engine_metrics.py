"""The engine's counts reach a metrics registry once per finished timed
run, from ``DttEngine.summary()``: the ``engine.*`` counters add up over
the runs, ``queue.depth_high_water`` keeps their peak, ``queue.depth`` is
the queue's length when the last run ended, and the dispatch-latency
histogram holds one observation per deferred dispatch."""

from repro.core.config import DttConfig
from repro.exec.plan import resolve_workload
from repro.harness.runner import SuiteRunner
from repro.obs.metrics import Counter, MetricsRegistry
from repro.timing.params import named_config
from repro.timing.system import TimingSimulator

from tests.timing.solo_diff import assert_engine_conserved

#: DTT runs on a multi-context SMT, the single-context serial machine
#: and a two-core CMP, plus the queue-overflow path at capacity 1
RUNS = [(name, config_name, None)
        for name in ("mcf", "twolf")
        for config_name in ("smt2", "serial", "cmp2")] + [
    ("bursty-equake", "smt2", DttConfig(queue_capacity=1))]


def test_queue_depth_is_the_queue_length_after_a_serial_run():
    registry = MetricsRegistry()
    workload = resolve_workload("mcf")
    build = workload.build_dtt(workload.make_input())
    engine = build.engine(deferred=True)
    TimingSimulator(build.program, named_config("serial"), engine=engine,
                    metrics=registry).run()
    assert engine.summary()["queue_enqueued"] > 0
    assert registry.gauge("queue.depth").value == len(engine.queue) == 0


def test_registry_counts_are_the_runs_summaries():
    registry = MetricsRegistry()
    runner = SuiteRunner(metrics=registry)
    engines = []
    for name, config_name, dtt_config in RUNS:
        workload = resolve_workload(name)
        runner.timed(workload, "dtt", config_name, dtt_config,
                     check_against_baseline=False)
        engines.append((config_name, runner.engine_for(
            workload, "dtt", config_name, dtt_config)))
    summaries = [engine.summary() for _, engine in engines]
    for _, engine in engines:
        assert_engine_conserved(engine)
    counters = [instrument for instrument in registry
                if isinstance(instrument, Counter)
                and instrument.name.startswith("engine.")]
    assert len(counters) == 11
    for counter in counters:
        field = counter.name[len("engine."):]
        assert counter.value == sum(
            summary[field] for summary in summaries), field
    assert registry.gauge("queue.depth_high_water").value == max(
        summary["queue_depth_high_water"] for summary in summaries)
    # a multi-context machine dispatches every start but the overflow
    # runs onto a context; the serial machine runs every start inline
    deferred = sum(engine.summary()["executions_started"]
                   - engine.summary()["overflow_inline_runs"]
                   for config_name, engine in engines
                   if config_name != "serial")
    latency = registry.histogram("engine.dispatch_latency_cycles")
    assert latency.count == deferred > 0
    totals = {field: registry.counter(f"engine.{field}").value
              for field in ("cancels", "overflow_inline_runs",
                            "duplicates_suppressed")}
    assert all(totals.values()), totals
