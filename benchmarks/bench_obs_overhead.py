"""Figs. 1 & 7 unobserved vs observed — the observability layer costs
under 2% on the fleet campaign path with tracing off (the null recorder
is the default), and under 10% fully instrumented (JSON-lines trace file
plus live metrics registry).

Acceptance benchmark for :mod:`repro.obs`.  Two claims over the
``fleet16-fast`` guardband campaign (the CI smoke fleet):

* **off is free** — with the null recorder installed (the default), the
  instrumentation amounts to one shared no-op context manager per span
  site.  Measured directly: the per-call cost of a null ``span()``,
  multiplied by the number of records a fully traced run actually emits,
  must stay under 2% of the campaign's wall-clock;
* **on is cheap** — running the same campaign with a trace recorder
  writing every span *and* the metrics registry collecting must finish
  within 10% of the untraced wall-clock.  Untraced and traced passes
  alternate, five of each, and their medians are compared, so a slow
  stretch of the host (or heap left behind by earlier benchmarks in the
  same process) weighs on both sides alike.
"""

import shutil
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from _emit import emit_json
from conftest import run_once, save_report
from repro.analysis import ExperimentReport
from repro.campaign import preset_spec, run_campaign
from repro.obs import enable, disable, build_info, install_trace, reset_recorder
from repro.obs import trace as obs_trace
from repro.obs.summarize import summarize_trace

PAIRS = 5
NULL_SPAN_CALLS = 200_000


def _campaign_wall_s() -> float:
    """One fresh fleet16-fast campaign run, serial, in a throwaway root."""
    root = Path(tempfile.mkdtemp(prefix="obs-bench-"))
    try:
        t0 = time.perf_counter()
        run_campaign(preset_spec("fleet16-fast"), root=root, scheduler="serial")
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(root, ignore_errors=True)


@pytest.mark.benchmark(group="obs")
def test_obs_overhead(benchmark):
    def body():
        report = ExperimentReport(
            "obs_overhead",
            "observability overhead on the fleet16-fast campaign path",
        )

        # --- alternating passes: the default null recorder, then fully
        # instrumented (trace file + metrics registry) ---------------------
        base_walls, traced_walls = [], []
        n_records = 0
        for _ in range(PAIRS):
            base_walls.append(_campaign_wall_s())
            with tempfile.TemporaryDirectory(prefix="obs-bench-") as tmp:
                trace_path = Path(tmp) / "trace.jsonl"
                install_trace(trace_path)
                build_info("bench", enable())
                try:
                    traced_walls.append(_campaign_wall_s())
                finally:
                    disable()
                    reset_recorder()
                n_records = summarize_trace(str(trace_path))["n_records"]
        base_wall = statistics.median(base_walls)
        traced_wall = statistics.median(traced_walls)

        # --- the null recorder's measured per-call cost -------------------
        t0 = time.perf_counter()
        for _ in range(NULL_SPAN_CALLS):
            with obs_trace.span("bench.noop", die="x"):
                pass
        null_span_s = (time.perf_counter() - t0) / NULL_SPAN_CALLS

        null_overhead = n_records * null_span_s / base_wall
        traced_overhead = traced_wall / base_wall - 1.0

        section = report.new_section("overhead", ["metric", "value"])
        section.add_row("median campaign wall, null recorder (s)", round(base_wall, 4))
        section.add_row("median campaign wall, fully instrumented (s)", round(traced_wall, 4))
        section.add_row("trace records per run", n_records)
        section.add_row("null span cost (ns/call)", round(1e9 * null_span_s, 1))
        section.add_row("tracing-off overhead (%)", round(100 * null_overhead, 4))
        section.add_row("fully instrumented overhead (%)", round(100 * max(0.0, traced_overhead), 2))

        assert null_overhead < 0.02, (
            f"null-recorder overhead {100 * null_overhead:.3f}% >= 2%"
        )
        assert traced_overhead < 0.10, (
            f"instrumented overhead {100 * traced_overhead:.2f}% >= 10%"
        )
        emit_json(
            "obs_overhead",
            {"trace_records": n_records},
            extra={"null_span_ns": round(1e9 * null_span_s, 1)},
        )
        return report

    report = run_once(benchmark, body)
    save_report(report)
