"""Tests for trace loading, summarize documents, and digest stability."""

import json

import pytest

from repro.campaign import CampaignSpec, ChipGroup, run_campaign
from repro.obs import (
    TraceError,
    install_trace,
    load_trace,
    reset_recorder,
    summarize_trace,
    trace_digest,
)
from repro.obs import trace as trace_module


def write_trace(path, records, tail=""):
    lines = [
        json.dumps(record, separators=(",", ":"), sort_keys=True)
        for record in records
    ]
    path.write_text("\n".join(lines) + "\n" + tail)


def span_record(name, span_id, parent_id=None, duration=1.0, labels=None):
    return {
        "kind": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "pid": 7,
        "t_start_s": 0.0,
        "duration_s": duration,
        "labels": labels or {},
    }


class TestLoader:
    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, [span_record("a", "7-1")], tail='{"kind":"spa')
        records, warnings = load_trace(str(path))
        assert len(records) == 1
        assert len(warnings) == 1
        assert "torn final line" in warnings[0]
        assert summarize_trace(str(path))["warnings"] == warnings

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('not-json\n{"kind":"span","name":"a"}\n')
        with pytest.raises(TraceError, match="line 1"):
            load_trace(str(path))

    def test_empty_file_summarizes_to_zero_counts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        document = summarize_trace(str(path))
        assert document["n_records"] == 0
        assert document["phases"] == []


class TestSummary:
    def test_self_time_excludes_direct_children(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, [
            span_record("run", "7-1", duration=10.0),
            span_record("unit", "7-2", parent_id="7-1", duration=3.0),
            span_record("unit", "7-3", parent_id="7-1", duration=4.0),
        ])
        document = summarize_trace(str(path))
        by_phase = {row["phase"]: row for row in document["phases"]}
        assert by_phase["run"]["wall_s"] == 10.0
        assert by_phase["run"]["self_s"] == 3.0  # 10 - (3 + 4)
        assert by_phase["unit"]["n_spans"] == 2
        assert by_phase["unit"]["mean_ms"] == 3500.0
        assert document["n_processes"] == 1

    def test_events_are_counted_but_not_phased(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, [
            span_record("work", "7-1"),
            {"kind": "event", "name": "tick", "span_id": "7-2",
             "parent_id": "7-1", "pid": 7, "t_start_s": 0.0, "fields": {}},
        ])
        document = summarize_trace(str(path))
        assert document["n_spans"] == 1
        assert document["n_events"] == 1
        assert [row["phase"] for row in document["phases"]] == ["work"]


class TestDigest:
    def test_digest_strips_ids_pids_and_timings(self):
        first = [span_record("a", "7-1", duration=1.0, labels={"x": 1})]
        second = [span_record("a", "9-5", duration=9.9, labels={"x": 1})]
        second[0]["pid"] = 9
        assert trace_digest(first) == trace_digest(second)

    def test_digest_is_order_insensitive_but_label_sensitive(self):
        spans = [span_record("a", "7-1", labels={"x": 1}),
                 span_record("b", "7-2", labels={"y": 2})]
        assert trace_digest(spans) == trace_digest(list(reversed(spans)))
        changed = [span_record("a", "7-1", labels={"x": 3}),
                   span_record("b", "7-2", labels={"y": 2})]
        assert trace_digest(spans) != trace_digest(changed)

    def test_events_do_not_enter_the_digest(self):
        spans = [span_record("a", "7-1")]
        with_event = spans + [
            {"kind": "event", "name": "tick", "span_id": "7-9", "pid": 7,
             "t_start_s": 0.0, "fields": {"done": 1}},
        ]
        assert trace_digest(spans) == trace_digest(with_event)


def small_spec():
    # Four dies: the scout wave covers one, leaving a three-shard warm
    # wave — enough for the process scheduler to actually fork workers
    # (single-task waves run inline in the parent).
    from repro.fpga.platform import fleet_serials

    return CampaignSpec(
        name="obs-digest",
        groups=(
            ChipGroup(platform="ZC702", serials=fleet_serials("ZC702", 4)),
        ),
        sweep="guardband",
        runs_per_step=3,
    )


class TestCampaignDigestStability:
    def run_traced(self, tmp_path, tag, **kwargs):
        trace_path = tmp_path / f"{tag}.jsonl"
        install_trace(trace_path)
        try:
            run_campaign(small_spec(), root=tmp_path / f"root-{tag}", **kwargs)
        finally:
            reset_recorder()
        return trace_path

    def test_parallel_campaign_digest_is_worker_count_invariant(self, tmp_path):
        """The stripped digest must not depend on the schedule.

        Serial, 2-worker and 3-worker runs execute the same wave plan, so
        they must digest identically (ids, pids and timings are stripped;
        the wave/shard/task structure is deterministic).
        """
        two = self.run_traced(tmp_path, "w2", scheduler="process", max_workers=2)
        three = self.run_traced(tmp_path, "w3", scheduler="process", max_workers=3)
        serial = self.run_traced(tmp_path, "serial", scheduler="serial")

        doc_two = summarize_trace(str(two))
        doc_three = summarize_trace(str(three))
        doc_serial = summarize_trace(str(serial))
        assert doc_two["digest"] == doc_three["digest"] == doc_serial["digest"]
        assert doc_two["n_processes"] >= 2
        assert doc_serial["n_processes"] == 1
        for document in (doc_two, doc_serial):
            phases = {row["phase"] for row in document["phases"]}
            assert {"campaign.run", "campaign.wave", "campaign.shard",
                    "campaign.unit", "sched.task"} <= phases


def test_module_leaves_the_null_recorder_installed():
    assert trace_module.get_recorder() is trace_module.NULL_RECORDER


class TestBatchingBlock:
    def test_batched_trace_reports_ratio_and_requests(self, tmp_path):
        from repro.obs.summarize import render_summary_table

        path = tmp_path / "t.jsonl"
        write_trace(path, [
            span_record("sched.task", "7-1"),
            span_record("sched.task", "7-2"),
            span_record("sched.task", "7-3"),
            span_record("sched.task", "7-4"),
            span_record("engine.batch", "7-5", labels={"n": 24}),
            span_record("engine.batch", "7-6", labels={"n": "16"}),
            span_record("engine.evaluate", "7-7", labels={"kind": "probe"}),
        ])
        batching = summarize_trace(str(path))["batching"]
        assert batching["n_batch_spans"] == 2
        assert batching["n_sched_tasks"] == 4
        assert batching["n_inline_evaluations"] == 1
        assert batching["batched_requests"] == 40
        assert batching["sched_tasks_per_batch"] == 2.0
        assert batching["requests_per_batch"] == 20.0
        table = render_summary_table(summarize_trace(str(path)))
        assert "sched.task/engine.batch ratio 2.0" in table
        assert "settled 40 requests" in table

    def test_unbatched_trace_reports_off(self, tmp_path):
        from repro.obs.summarize import render_summary_table

        path = tmp_path / "t.jsonl"
        write_trace(path, [span_record("engine.evaluate", "7-1")])
        document = summarize_trace(str(path))
        assert document["batching"]["sched_tasks_per_batch"] is None
        assert document["batching"]["batched_requests"] == 0
        assert "no batched crossings" in render_summary_table(document)

    def test_batching_block_never_moves_the_digest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, [span_record("engine.batch", "7-1", labels={"n": 5})])
        document = summarize_trace(str(path))
        assert document["digest"] == trace_digest(load_trace(str(path))[0])
