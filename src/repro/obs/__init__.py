"""Observability: metrics registry, trace export, simulator profiling.

The paper's headline numbers (Figures 1-4 idle structure, Figure 5's
~6.8x load-balancing ratio, Table 1's grid ratio) are *observability*
claims: they hang on accurate per-rank busy/idle/migration accounting.
This package gives that accounting a first-class home:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms keyed by name + labels, scraped from the
  tracer, the transport layer, the network, the load balancer and the
  fault injector;
* :mod:`repro.obs.export` — streaming export of
  :class:`~repro.runtime.tracer.Tracer` records and metric snapshots to
  JSONL and Chrome trace-event JSON (viewable in Perfetto), with a
  bounded ring option for million-event sweeps;
* :class:`~repro.obs.profile.SimProfiler` — per-event-kind dispatch
  counts and sim-time histograms for the DES kernel, attached via
  :meth:`repro.des.simulator.Simulator.attach_observer` (observation
  only: the event trace is the same with or without it);
* :mod:`repro.obs.harness` — `repro trace` / `repro metrics` CLI verbs
  and the metrics sidecars the experiment harnesses emit.

Everything exported is a pure function of virtual time and seeded
randomness, so two runs of the same scenario produce byte-identical
sidecars — CI regression-checks the ``stable_digest`` exactly like the
``BENCH_*.json`` reports.  See ``docs/observability.md``.
"""

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.export import (
    TraceRing,
    iter_trace_events,
    metrics_jsonl_lines,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.profile import SimProfiler
from repro.obs.harness import (
    MetricsSidecar,
    ObsRun,
    collect_result_metrics,
    run_observed,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TraceRing",
    "iter_trace_events",
    "metrics_jsonl_lines",
    "write_chrome_trace",
    "write_metrics_jsonl",
    "SimProfiler",
    "MetricsSidecar",
    "ObsRun",
    "collect_result_metrics",
    "run_observed",
]
