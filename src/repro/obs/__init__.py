"""Observability: metrics registry, run manifests, exportable timelines.

The paper's whole evaluation is counter-driven — redundant-load rates,
triggers fired/suppressed, clean vs. wait consumes — so instrumentation
is not an afterthought here; it is the measuring instrument.  This
package is the one place those measurements live:

* :mod:`repro.obs.metrics` — a dependency-free registry of named
  counters, gauges, and fixed-bucket histograms, with snapshot/diff and
  Prometheus-text / JSON exporters;
* :mod:`repro.obs.timeline` — converts an
  :class:`~repro.core.trace.EngineTrace` into Chrome trace-event JSON,
  so a DTT run can be opened in ``chrome://tracing`` or Perfetto;
* :mod:`repro.obs.manifest` — a per-run :class:`RunManifest` (config
  fingerprint, wall-clock per phase, cache hit/miss counts, peak queue
  depth) attached to every experiment result;
* :mod:`repro.obs.history` — the append-only, content-addressed
  :class:`HistoryStore` of per-run performance records (JSONL under
  ``benchmarks/history/``);
* :mod:`repro.obs.trends` — EWMA prediction intervals + changepoint
  flagging over a history store's series (``dtt-harness history``);
* :mod:`repro.obs.flame` — flamegraph-style cycle attribution joining
  timing totals with the causal trace's per-static-site costs;
* :mod:`repro.obs.status` — a throttled atomic-JSON heartbeat
  (:class:`StatusFile`) for live run telemetry (``--status-file``).

Everything here observes; nothing here decides.  Components accept an
optional :class:`MetricsRegistry` and run identically (and pay nothing)
without one.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "flame": ("attribute_cycles", "flame_svg", "folded_stacks"),
    "history": (
        "HistoryStore", "append_payload", "host_fingerprint", "make_record",
        "record_from_payload"),
    "manifest": ("RunManifest",),
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricsSnapshot"),
    "status": ("StatusFile", "read_status"),
    "timeline": ("trace_to_chrome", "traces_to_chrome", "write_chrome_trace"),
    "trends": ("TrendReport", "TrendVerdict", "analyze_history"),
})
