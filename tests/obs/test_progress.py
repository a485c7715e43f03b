"""Tests for the campaign progress event stream."""

import json

from repro.campaign import CampaignSpec, ChipGroup, run_campaign
from repro.obs import EventStream, ProgressEvent, install_trace, reset_recorder


class TestEventStream:
    def test_subscribers_receive_events_in_order(self):
        stream = EventStream(record_trace=False)
        seen = []
        stream.subscribe(lambda event: seen.append(("a", event.name)))
        stream.subscribe(lambda event: seen.append(("b", event.name)))
        stream.emit("tick", n=1)
        assert seen == [("a", "tick"), ("b", "tick")]

    def test_emit_returns_the_event_with_its_fields(self):
        stream = EventStream(record_trace=False)
        event = stream.emit("campaign.progress", unit_id="u1", done=2, pending=3)
        assert event == ProgressEvent(
            name="campaign.progress",
            fields={"unit_id": "u1", "done": 2, "pending": 3},
        )

    def test_unsubscribe_handle_removes_the_subscriber(self):
        stream = EventStream(record_trace=False)
        seen = []
        unsubscribe = stream.subscribe(seen.append)
        stream.emit("one")
        unsubscribe()
        unsubscribe()  # idempotent
        stream.emit("two")
        assert [event.name for event in seen] == ["one"]

    def test_events_are_forwarded_to_the_trace_recorder(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = install_trace(path)
        try:
            EventStream().emit("campaign.progress", done=1)
        finally:
            reset_recorder()
        (line,) = [json.loads(raw) for raw in path.read_text().splitlines()]
        assert line["kind"] == "event"
        assert line["name"] == "campaign.progress"
        assert line["fields"] == {"done": 1}
        assert recorder.enabled


ZC702_STOCK_SERIAL = "630851561533-44019"


class TestRunCampaignIntegration:
    def spec(self):
        return CampaignSpec(
            name="obs-progress",
            groups=(ChipGroup(platform="ZC702", serials=(ZC702_STOCK_SERIAL,)),),
            sweep="guardband",
            runs_per_step=3,
        )

    def test_progress_events_carry_unit_and_counts(self, tmp_path):
        stream = EventStream(record_trace=False)
        calls = []
        stream.subscribe(lambda event: calls.append(event.fields))
        run_campaign(self.spec(), root=tmp_path, scheduler="serial", events=stream)
        assert len(calls) == 1
        fields = calls[0]
        assert fields["done"] == 1 and fields["pending"] == 1  # pending at start
        assert len(fields["unit_id"]) == 16  # the unit's deterministic digest id

    def test_event_stream_receives_campaign_progress(self, tmp_path):
        stream = EventStream(record_trace=False)
        names = []
        stream.subscribe(lambda event: names.append(event.name))
        run_campaign(self.spec(), root=tmp_path, scheduler="serial", events=stream)
        assert names == ["campaign.progress"]
