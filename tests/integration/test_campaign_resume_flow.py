"""End-to-end campaign lifecycle in a tmpdir, driven through the CLI.

The scenario the store's resume semantics exist for: a fleet campaign is
started, killed mid-flight, resumed from the command line, and reported.
The interruption is simulated by raising out of a subscriber to the
runner's progress events after a few units — exactly the state a SIGKILL
between two unit commits leaves behind (completed units committed, the
rest absent).  The resumed adaptive run must skip the committed units,
re-evaluate nothing that the per-die caches already hold, and the final
``report --json`` must aggregate all chips.
"""

import json

import pytest

from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.cli import main
from repro.obs import EventStream


class InterruptedMidCampaign(RuntimeError):
    pass


@pytest.fixture()
def spec_file(tmp_path):
    document = {
        "name": "e2e-resume",
        "chips": [{"platform": "ZC702", "n_chips": 6}],
        "sweep": "guardband",
        "runs_per_step": 2,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    return path


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestInterruptedCampaignResume:
    INTERRUPT_AFTER = 3

    def test_run_interrupt_resume_report(self, capsys, tmp_path, spec_file):
        root = tmp_path / "campaigns"
        spec = CampaignSpec.from_json(spec_file.read_text())

        # --- first run, killed after a few units -------------------------
        def die_after_some(event):
            if event.fields["done"] >= self.INTERRUPT_AFTER:
                raise InterruptedMidCampaign(event.fields["unit_id"])

        events = EventStream(record_trace=False)
        events.subscribe(die_after_some)
        with pytest.raises(InterruptedMidCampaign):
            run_campaign(spec, root=root, scheduler="serial", events=events)

        store = CampaignStore(spec.name, root)
        committed = store.completed_ids()
        assert 0 < len(committed) < spec.n_units, "partially completed on disk"

        status = run_json(capsys, [
            "campaign", "status", "--name", spec.name, "--root", str(root), "--json",
        ])
        assert status["n_completed"] == len(committed)
        assert status["complete"] is False

        # --- resume through the CLI --------------------------------------
        resumed = run_json(capsys, [
            "campaign", "run", "--spec", str(spec_file), "--root", str(root),
            "--backend", "serial", "--json",
        ])
        assert resumed["n_skipped"] == len(committed)
        assert resumed["n_executed"] == spec.n_units - len(committed)
        # The interrupted units' probes were cached per die, so any unit the
        # interrupt killed *after its probes but before its commit* replays
        # from disk; either way the resumed run never repeats a committed
        # unit's evaluations.
        assert resumed["evaluations"]["n_exhaustive_equivalent"] > 0

        # --- a second resume is a no-op with zero evaluations ------------
        noop = run_json(capsys, [
            "campaign", "run", "--spec", str(spec_file), "--root", str(root),
            "--backend", "serial", "--json",
        ])
        assert noop["n_executed"] == 0
        assert noop["n_skipped"] == spec.n_units
        assert noop["evaluations"]["n_evaluations"] == 0

        # --- the report sees the whole fleet ------------------------------
        report = run_json(capsys, [
            "campaign", "report", "--name", spec.name, "--root", str(root), "--json",
        ])
        assert report["complete"] is True
        assert report["n_completed"] == spec.n_units
        assert len(report["units"]) == spec.n_units
        assert report["search"] == "adaptive"
        assert report["evaluations"]["n_units"] == spec.n_units
        assert report["evaluations"]["n_evaluations"] > 0
        vmin = report["population"]["fleet"]["vccbram_vmin_v"]
        assert vmin["n"] == spec.n_units
        assert 0.55 <= vmin["min"] <= vmin["max"] <= 0.65

    def test_interrupted_units_resume_from_their_caches(self, tmp_path, spec_file):
        """A unit killed after probing but before committing costs nothing."""
        root = tmp_path / "campaigns"
        spec = CampaignSpec.from_json(spec_file.read_text())
        report = run_campaign(spec, root=root, scheduler="serial")
        assert report.evaluations["n_evaluations"] > 0

        # Simulate the worst interruption: every commit marker lost, caches
        # intact (markers are committed *after* the cache is saved).
        store = CampaignStore(spec.name, root)
        for marker in store.units_dir.glob("*.json"):
            marker.unlink()

        rerun = run_campaign(spec, root=root, scheduler="serial")
        assert len(rerun.executed) == spec.n_units
        assert rerun.evaluations["n_evaluations"] == 0
        assert rerun.evaluations["n_cache_hits"] > 0
