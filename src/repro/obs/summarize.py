"""Trace-file analysis: per-phase timing tables and deterministic digests.

``repro-undervolt trace summarize`` loads a JSON-lines trace file (see
:mod:`repro.obs.trace`), groups spans by name — the *phase* — and reports
per-phase counts, wall-clock totals and self time (wall minus the time
spent in child spans), plus a digest of the trace's *stripped* form.

Robustness is the point: trace files come from processes that may have
been SIGKILLed mid-write, so the loader treats a malformed **final** line
as a torn write — skipped with a warning, never a crash.  A malformed
line anywhere else is corruption and raises.

The digest hashes only what is deterministic: each span reduced to
``name|k=v,...`` (labels sorted), the multiset of those strings sorted and
sha256'd.  Span ids, parent ids, pids, timestamps and durations are
stripped, and events are excluded (progress events carry completion-order
ordinals).  A parallel campaign run therefore digests identically for any
worker count ≥ 2 — the wave/shard structure is deterministic even though
the schedule is not.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple


class TraceError(ValueError):
    """A structurally corrupt trace file (not a torn final line)."""


def load_trace(path: str) -> Tuple[List[Dict[str, Any]], List[str]]:
    """All records from a JSON-lines trace file, plus loader warnings.

    A malformed or truncated **final** line is the signature of a writer
    killed mid-``write`` — it is dropped with a warning.  Malformed lines
    before the end mean the file is corrupt and raise :class:`TraceError`.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: List[Dict[str, Any]] = []
    warnings: List[str] = []
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except ValueError:
            if index == len(lines) - 1:
                warnings.append(
                    f"skipped torn final line ({len(line)} bytes) — "
                    "writer likely killed mid-write"
                )
                continue
            raise TraceError(
                f"{path}: malformed record on line {index + 1}"
            ) from None
        records.append(record)
    return records, warnings


def _stripped_key(span: Dict[str, Any]) -> str:
    """One span reduced to its deterministic form: name plus sorted labels."""
    labels = span.get("labels") or {}
    parts = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{span.get('name', '')}|{parts}"


def trace_digest(records: List[Dict[str, Any]]) -> str:
    """sha256 over the sorted multiset of stripped span keys."""
    keys = sorted(
        _stripped_key(record)
        for record in records
        if record.get("kind") == "span"
    )
    hasher = hashlib.sha256()
    for key in keys:
        hasher.update(key.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def summarize_trace(path: str) -> Dict[str, Any]:
    """The ``trace summarize`` document for one trace file.

    Per phase (span name): span count, total wall-clock, self time (wall
    minus direct children's wall), and mean wall.  Self time is what makes
    nested instrumentation readable — ``campaign.run`` wall includes every
    unit, but its self time is only the orchestration overhead.
    """
    records, warnings = load_trace(path)
    spans = [r for r in records if r.get("kind") == "span"]
    events = [r for r in records if r.get("kind") == "event"]

    wall_by_id: Dict[str, float] = {}
    child_wall: Dict[str, float] = {}
    for span in spans:
        span_id = span.get("span_id")
        if isinstance(span_id, str):
            wall_by_id[span_id] = float(span.get("duration_s", 0.0))
    for span in spans:
        parent = span.get("parent_id")
        if isinstance(parent, str):
            child_wall[parent] = child_wall.get(parent, 0.0) + float(
                span.get("duration_s", 0.0)
            )

    phases: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        name = str(span.get("name", ""))
        wall = float(span.get("duration_s", 0.0))
        span_id = span.get("span_id")
        self_s = wall - child_wall.get(span_id, 0.0) if isinstance(span_id, str) else wall
        phase = phases.setdefault(
            name, {"n_spans": 0, "wall_s": 0.0, "self_s": 0.0}
        )
        phase["n_spans"] += 1
        phase["wall_s"] += wall
        phase["self_s"] += max(0.0, self_s)

    phase_rows = []
    for name in sorted(phases):
        phase = phases[name]
        phase_rows.append(
            {
                "phase": name,
                "n_spans": phase["n_spans"],
                "wall_s": round(phase["wall_s"], 6),
                "self_s": round(phase["self_s"], 6),
                "mean_ms": round(
                    1000.0 * phase["wall_s"] / phase["n_spans"], 6
                ),
            }
        )

    pids = sorted({r.get("pid") for r in records if r.get("pid") is not None})
    return {
        "trace": path,
        "n_records": len(records),
        "n_spans": len(spans),
        "n_events": len(events),
        "n_processes": len(pids),
        "digest": trace_digest(records),
        "batching": _batching_block(spans),
        "phases": phase_rows,
        "warnings": warnings,
    }


def _batching_block(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """How much evaluation rode batched kernel crossings in this trace.

    ``engine.batch`` spans carry an ``n`` label counting the requests one
    crossing settled; ``sched.task`` and ``engine.evaluate`` are the
    unbatched units of work.  The headline ratio — ``sched.task`` spans per
    ``engine.batch`` span — reads as "tasks each batched crossing
    replaced"; ``None`` when the trace has no batch spans (a probe-only or
    single-request flow never batches).
    """
    counts = {"engine.batch": 0, "sched.task": 0, "engine.evaluate": 0}
    batched_requests = 0
    for span in spans:
        name = span.get("name")
        if name not in counts:
            continue
        counts[name] += 1
        if name == "engine.batch":
            try:
                batched_requests += int((span.get("labels") or {}).get("n", 0))
            except (TypeError, ValueError):
                pass
    n_batched = counts["engine.batch"]
    return {
        "n_batch_spans": n_batched,
        "n_sched_tasks": counts["sched.task"],
        "n_inline_evaluations": counts["engine.evaluate"],
        "batched_requests": batched_requests,
        "sched_tasks_per_batch": (
            round(counts["sched.task"] / n_batched, 4) if n_batched else None
        ),
        "requests_per_batch": (
            round(batched_requests / n_batched, 4) if n_batched else None
        ),
    }


def _render_batching_line(batching: Dict[str, Any]) -> str:
    """One batching line for the text table (the sched.task/engine.batch ratio)."""
    if not batching.get("n_batch_spans"):
        return "batching: no batched crossings (probe-only or single-request flow)"
    parts = [
        f"batching: {batching['n_batch_spans']} engine.batch spans settled "
        f"{batching['batched_requests']} requests"
    ]
    if batching.get("sched_tasks_per_batch") is not None:
        parts.append(
            f"sched.task/engine.batch ratio {batching['sched_tasks_per_batch']}"
        )
    return "; ".join(parts)


def render_summary_table(document: Dict[str, Any]) -> str:
    """The summarize doc as a fixed-width text table for terminals."""
    lines = [
        f"trace: {document['trace']}",
        f"records: {document['n_records']}  spans: {document['n_spans']}  "
        f"events: {document['n_events']}  processes: {document['n_processes']}",
        f"digest: {document['digest']}",
        _render_batching_line(document.get("batching") or {}),
        "",
        f"{'phase':<28} {'spans':>8} {'wall_s':>12} {'self_s':>12} {'mean_ms':>12}",
    ]
    for row in document["phases"]:
        lines.append(
            f"{row['phase']:<28} {row['n_spans']:>8} "
            f"{row['wall_s']:>12.4f} {row['self_s']:>12.4f} {row['mean_ms']:>12.4f}"
        )
    for warning in document.get("warnings", ()):
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


__all__ = [
    "TraceError",
    "load_trace",
    "render_summary_table",
    "summarize_trace",
    "trace_digest",
]
