"""``repro.obs``: the unified observability layer.

Three pieces, all stdlib-only:

* **metrics** (:mod:`repro.obs.metrics`) — a Prometheus-style registry of
  counters, gauges and fixed-bucket histograms, off by default; the
  service's ``/metrics`` endpoint and the CLI's ``--obs-metrics`` dump
  render it as text exposition format.  :mod:`repro.obs.adapters` mirrors
  the legacy telemetry objects in without changing their JSON forms.
* **tracing** (:mod:`repro.obs.trace`) — ``obs.span("campaign.unit",
  unit=uid)`` around instrumented work, written to bounded JSON-lines
  trace files by ``--obs-trace``; the default recorder is a shared no-op
  so uninstrumented runs pay nothing.
* **analysis** (:mod:`repro.obs.summarize`) — ``repro-undervolt trace
  summarize`` renders a trace into a per-phase wall/self-time table with a
  deterministic-when-stripped digest.

See ``docs/observability.md`` for the metric families and span taxonomy.
"""

from .adapters import (
    ENGINE_EVENTS,
    bind_engine_counters,
    bind_service_stats,
    build_info,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricFamily,
    MetricsError,
    MetricsRegistry,
    active,
    disable,
    enable,
    get_registry,
)
from .progress import EventStream, ProgressEvent
from .summarize import (
    TraceError,
    load_trace,
    render_summary_table,
    summarize_trace,
    trace_digest,
)
from .trace import (
    NULL_RECORDER,
    JsonlTraceRecorder,
    NullRecorder,
    event,
    get_recorder,
    install_trace,
    reset_recorder,
    set_recorder,
    span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "ENGINE_EVENTS",
    "EventStream",
    "JsonlTraceRecorder",
    "MetricFamily",
    "MetricsError",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "ProgressEvent",
    "TraceError",
    "active",
    "bind_engine_counters",
    "bind_service_stats",
    "build_info",
    "disable",
    "enable",
    "event",
    "get_recorder",
    "get_registry",
    "install_trace",
    "load_trace",
    "render_summary_table",
    "reset_recorder",
    "set_recorder",
    "span",
    "summarize_trace",
    "trace_digest",
]
