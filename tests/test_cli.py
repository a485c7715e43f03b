"""Tests for the ``repro-undervolt`` command-line interface."""

import contextlib
import io
import json

import pytest

from repro.cli import build_parser, main


def run_json(capsys, argv):
    """Run the CLI and parse its JSON document."""
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def strip_timing(payload):
    """Pop and validate the segregated ``timing`` block of a --json document.

    Every CLI --json document keeps its wall-clock (non-deterministic)
    measurements under the single ``timing`` key; stripping it leaves a
    document that is a pure function of inputs and seeds, which the golden
    structure and determinism tests assert exactly.
    """
    timing = payload.pop("timing")
    assert "wall_s" in timing
    assert timing["wall_s"] >= 0.0
    return payload


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["guardband", "--platform", "VC999"])

    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.platform == "VC707"
        assert args.runs == 11
        assert args.pattern == "FFFF"


class TestBadFlagValues:
    """An unusable flag value fails as one ``error:`` line naming the flag."""

    @pytest.mark.parametrize("argv,flag", [
        (["campaign", "run", "--preset", "fleet16-fast", "--jobs", "0"], "--jobs"),
        (["runtime", "scale", "--dies", "0"], "--dies"),
        (["sweep", "--pattern", "XYZ"], "--pattern"),
        (["sweep", "--runs", "0"], "--runs"),
        (["runtime", "run", "--steps", "-1"], "--steps"),
        (["serve", "--bundle", "absent.json", "--engine-workers", "0"],
         "--engine-workers"),
        (["runtime", "run", "--capacity-rps", "0"], "--capacity-rps"),
        (["runtime", "scale", "--capacity-rps", "-5"], "--capacity-rps"),
    ])
    def test_fails_with_one_error_line(self, capsys, monkeypatch, tmp_path, argv, flag):
        monkeypatch.chdir(tmp_path)  # the default campaign root is relative
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err
        assert not list(tmp_path.iterdir())  # rejected before any work


class TestGuardbandCommand:
    def test_json_output_contains_both_rails(self, capsys):
        assert main(["guardband", "--platform", "ZC702", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["platform"] == "ZC702"
        assert set(payload["rails"]) == {"VCCBRAM", "VCCINT"}
        assert payload["rails"]["VCCBRAM"]["vmin_v"] == pytest.approx(0.61, abs=0.011)

    def test_table_output_mentions_guardband(self, capsys):
        assert main(["guardband", "--platform", "ZC702"]) == 0
        output = capsys.readouterr().out
        assert "guardband" in output
        assert "VCCBRAM" in output and "VCCINT" in output


class TestSweepCommand:
    def test_json_points_cover_critical_region(self, capsys):
        assert main(["sweep", "--platform", "ZC702", "--runs", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        points = payload["points"]
        assert points[0]["faults_per_mbit"] == 0.0
        assert points[-1]["faults_per_mbit"] > 100
        assert points[0]["bram_power_w"] > points[-1]["bram_power_w"]

    def test_pattern_option_changes_rates(self, capsys):
        main(["sweep", "--platform", "ZC702", "--runs", "3", "--pattern", "0000", "--json"])
        sparse = json.loads(capsys.readouterr().out)
        main(["sweep", "--platform", "ZC702", "--runs", "3", "--pattern", "FFFF", "--json"])
        dense = json.loads(capsys.readouterr().out)
        assert sparse["points"][-1]["faults_per_mbit"] < dense["points"][-1]["faults_per_mbit"]


class TestJsonGoldenStructure:
    """The ``--json`` documents must keep the keys docs/cli.md documents.

    These are structure tests, not value tests: every key here is part of
    the machine-readable contract and renaming one is a breaking change
    that must update ``docs/cli.md`` in the same commit.
    """

    RAIL_KEYS = {
        "vnom_v", "vmin_v", "vcrash_v", "guardband_fraction",
        "power_reduction_factor_at_vmin",
    }

    SEARCH_KEYS = {"mode", "n_evaluations", "n_cache_hits", "n_exhaustive_equivalent"}

    BACKEND_KEYS = {"kind", "scheduler", "jobs", "source", "counters"}

    COUNTER_KEYS = {
        "n_requests", "n_cache_hits", "n_backend_evaluations", "n_deduplicated",
    }

    def test_guardband_schema(self, capsys):
        payload = strip_timing(
            run_json(capsys, ["guardband", "--platform", "ZC702", "--json"])
        )
        assert set(payload) == {"platform", "rails", "search", "backend"}
        assert set(payload["rails"]) == {"VCCBRAM", "VCCINT"}
        for rail in payload["rails"].values():
            assert set(rail) == self.RAIL_KEYS
        assert set(payload["search"]) == self.SEARCH_KEYS
        assert set(payload["backend"]) == self.BACKEND_KEYS
        assert payload["backend"]["kind"] == "simulated"
        assert set(payload["backend"]["counters"]) == self.COUNTER_KEYS

    def test_sweep_schema(self, capsys):
        payload = strip_timing(
            run_json(capsys, ["sweep", "--platform", "ZC702", "--runs", "2", "--json"])
        )
        assert set(payload) == {"platform", "pattern", "search", "points", "backend"}
        assert payload["points"]
        for point in payload["points"]:
            assert set(point) == {"vccbram_v", "faults_per_mbit", "bram_power_w"}
        assert set(payload["search"]) == self.SEARCH_KEYS
        assert set(payload["backend"]) == self.BACKEND_KEYS

    def test_characterize_schema(self, capsys):
        payload = strip_timing(run_json(
            capsys, ["characterize", "--platform", "ZC702", "--runs", "5", "--json"]
        ))
        assert set(payload) == {
            "platform", "vcrash_v", "pattern_rates_per_mbit", "stability",
            "location_overlap", "variability",
        }
        assert set(payload["stability"]) == {
            "AVERAGE fault rate", "MINIMUM fault rate", "MAXIMUM fault rate",
            "STD. DEV of fault rates",
        }
        assert set(payload["variability"]) == {
            "max_percent", "mean_percent", "never_faulty_fraction",
        }

    def test_icbp_schema(self, capsys):
        payload = strip_timing(run_json(
            capsys,
            ["icbp", "--platform", "ZC702", "--train-samples", "300", "--seeds", "1", "--json"],
        ))
        assert set(payload) == {
            "platform", "voltage_v", "baseline_error", "default_placement",
            "icbp", "power_savings_vs_vmin",
        }
        assert set(payload["default_placement"]) == {"error", "accuracy_loss"}
        assert set(payload["icbp"]) == {"error", "accuracy_loss", "protected_layers"}

    def test_campaign_schemas(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-golden",
            "chips": [{"platform": "ZC702", "n_chips": 2}],
            "sweep": "guardband",
            "runs_per_step": 3,
        }))
        root = str(tmp_path / "campaigns")

        run = strip_timing(run_json(capsys, [
            "campaign", "run", "--spec", str(spec_path), "--root", root, "--json",
        ]))
        assert set(run) == {
            "name", "spec_hash", "n_units", "n_executed", "n_skipped",
            "n_workers", "search", "backend", "store", "evaluations",
            "executed_unit_ids", "governor_bundle",
        }
        assert set(run["backend"]) == self.BACKEND_KEYS
        assert run["backend"]["kind"] == "simulated"
        assert run["store"] == {"version": 1}
        assert run["n_executed"] == 2
        assert run["governor_bundle"] is None
        assert {
            "n_units", "n_evaluations", "n_cache_hits", "n_exhaustive_equivalent",
            "evaluations_saved", "saved_fraction", "speedup_factor",
        } == set(run["evaluations"])

        status = strip_timing(run_json(capsys, [
            "campaign", "status", "--name", "cli-golden", "--root", root, "--json",
        ]))
        assert set(status) == {
            "name", "spec_hash", "sweep", "n_units", "n_completed",
            "n_pending", "complete", "store", "pending_unit_ids",
        }
        assert status["complete"] is True
        assert status["store"] == {"version": 1}

        report = strip_timing(run_json(capsys, [
            "campaign", "report", "--name", "cli-golden", "--root", root, "--json",
        ]))
        assert set(report) == {
            "name", "sweep", "spec_hash", "n_units", "n_completed",
            "complete", "search", "store", "evaluations", "units", "population",
        }
        assert report["store"] == {"version": 1}
        assert set(report["population"]) == {"fleet", "by_platform"}
        for row in report["units"]:
            assert {"unit_id", "platform", "serial", "temperature_c", "pattern"} <= set(row)
        for dist in report["population"]["fleet"].values():
            assert {"mean", "median", "min", "max", "std", "n", "p5", "p95",
                    "spread_fraction"} <= set(dist)


class TestStoreVersionGoldens:
    """The same campaign through a v1 and a v2 store yields byte-identical
    ``--json`` documents (modulo the ``store`` block), pinned as goldens."""

    def documents(self, capsys, tmp_path, version):
        root = str(tmp_path / f"v{version}")
        run_json(capsys, [
            "campaign", "run", "--preset", "fleet16-fast", "--root", root,
            "--store-version", str(version), "--json",
        ])
        report = strip_timing(run_json(capsys, [
            "campaign", "report", "--name", "fleet16-fast", "--root", root,
            "--json",
        ]))
        runtime = strip_timing(run_json(capsys, [
            "runtime", "run", "--campaign", "fleet16-fast", "--root", root,
            "--json",
        ]))
        return report, runtime

    def test_v2_documents_match_the_v1_goldens(self, capsys, tmp_path, golden):
        report_v1, runtime_v1 = self.documents(capsys, tmp_path, 1)
        report_v2, runtime_v2 = self.documents(capsys, tmp_path, 2)
        assert report_v1.pop("store") == {"version": 1}
        store_block = report_v2.pop("store")
        assert store_block["version"] == 2 and store_block["n_segments"] >= 1
        assert json.dumps(report_v2, sort_keys=True) == json.dumps(
            report_v1, sort_keys=True
        )
        assert json.dumps(runtime_v2, sort_keys=True) == json.dumps(
            runtime_v1, sort_keys=True
        )
        golden("campaign_report_fleet16_fast", report_v1)
        golden("runtime_run_campaign_fleet16_fast", runtime_v1)


def _cli_document(argv):
    """Run the CLI outside ``capsys`` (usable from wider-scoped fixtures)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return strip_timing(json.loads(out.getvalue()))


def _campaign_documents(root, jobs, scheduler, store_version):
    """fleet16-fast's run, report and runtime documents, stripped of the
    blocks that name the configuration (timing, backend, workers, store)."""
    root = str(root)
    run = _cli_document([
        "campaign", "run", "--preset", "fleet16-fast", "--root", root,
        "--jobs", str(jobs), "--backend", scheduler,
        "--store-version", str(store_version), "--json",
    ])
    for key in ("backend", "n_workers", "store"):
        run.pop(key)
    report = _cli_document([
        "campaign", "report", "--name", "fleet16-fast", "--root", root, "--json",
    ])
    report.pop("store")
    runtime = _cli_document([
        "runtime", "run", "--campaign", "fleet16-fast", "--root", root, "--json",
    ])
    return json.dumps([run, report, runtime], sort_keys=True)


class TestWorkerCountInvariance:
    """Campaign documents are a function of the spec, not of the schedule:
    ``evaluations`` and ``executed_unit_ids`` included, every worker count
    and scheduler yields the same bytes, in either store layout."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        return _campaign_documents(tmp_path_factory.mktemp("reference"), 1, "serial", 1)

    @pytest.mark.parametrize("store_version", [1, 2])
    @pytest.mark.parametrize("jobs,scheduler", [
        (1, "serial"), (1, "process"), (2, "process"), (3, "process"), (2, "thread"),
    ])
    def test_documents_do_not_depend_on_worker_count(
        self, tmp_path, reference, jobs, scheduler, store_version
    ):
        documents = _campaign_documents(tmp_path, jobs, scheduler, store_version)
        assert documents == reference


class TestTimingSegregation:
    """Wall-clock values live only under ``timing``; the rest is exact."""

    def test_every_json_document_carries_a_timing_block(self, capsys):
        for argv in (
            ["guardband", "--platform", "ZC702", "--json"],
            ["sweep", "--platform", "ZC702", "--runs", "2", "--json"],
            ["characterize", "--platform", "ZC702", "--runs", "5", "--json"],
        ):
            payload = run_json(capsys, argv)
            assert "timing" in payload
            assert payload["timing"]["wall_s"] >= 0.0

    def test_documents_are_bit_identical_once_timing_is_stripped(self, capsys):
        argv = ["guardband", "--platform", "ZC702", "--json"]
        first = strip_timing(run_json(capsys, argv))
        second = strip_timing(run_json(capsys, argv))
        assert first == second


class TestRuntimeCommand:
    RUN_ARGS = [
        "runtime", "run", "--platform", "ZC702", "--chips", "2",
        "--steps", "40", "--capacity-rps", "900", "--train-samples", "200",
    ]

    def test_run_json_schema_and_acceptance_shape(self, capsys):
        payload = strip_timing(run_json(capsys, self.RUN_ARGS + ["--json"]))
        assert set(payload) == {"fleet", "trace", "backend", "baselines", "policies"}
        assert payload["fleet"] == {"n_chips": 2, "source": "inline", "icbp": True}
        assert payload["backend"] == {
            "kind": "simulated", "scheduler": "serial", "jobs": 1,
            "source": None, "counters": None,
        }
        assert set(payload["baselines"]) == {
            "nominal_energy_j", "guardband_floor_energy_j",
        }
        assert set(payload["policies"]) == {
            "static-nominal", "static-undervolt", "reactive", "predictive",
        }
        for row in payload["policies"].values():
            assert {
                "policy", "energy_j", "faulty_inferences", "slo_violations",
                "crash_steps", "guardband_recovered_fraction", "served",
                "requests", "mean_voltage_v",
            } <= set(row)
        predictive = payload["policies"]["predictive"]
        assert predictive["faulty_inferences"] == 0
        assert predictive["guardband_recovered_fraction"] > 0.6

    def test_single_policy_and_table_output(self, capsys):
        assert main(self.RUN_ARGS + ["--policy", "predictive"]) == 0
        out = capsys.readouterr().out
        assert "predictive" in out and "guardband recovered" in out
        assert "static-nominal" not in out

    def test_save_and_report_round_trip(self, capsys, tmp_path):
        saved = tmp_path / "telemetry.json"
        run_json(capsys, self.RUN_ARGS + ["--save", str(saved), "--json"])
        report = strip_timing(run_json(capsys, [
            "runtime", "report", "--telemetry", str(saved), "--json",
        ]))
        assert set(report) == {"telemetry", "trace", "baselines", "policies"}
        assert set(report["policies"]) == {
            "static-nominal", "static-undervolt", "reactive", "predictive",
        }
        # The report recovers the run's own numbers exactly.
        assert report["policies"]["predictive"]["faulty_inferences"] == 0
        assert main(["runtime", "report", "--telemetry", str(saved)]) == 0
        assert "Runtime telemetry report" in capsys.readouterr().out

    def test_missing_telemetry_fails_cleanly(self, capsys, tmp_path):
        assert main([
            "runtime", "report", "--telemetry", str(tmp_path / "ghost.json"),
        ]) == 2
        assert "no telemetry document" in capsys.readouterr().err

    def test_corrupt_telemetry_fails_cleanly(self, capsys, tmp_path):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        assert main(["runtime", "report", "--telemetry", str(corrupt)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_invalid_fleet_size_fails_cleanly(self, capsys):
        assert main(["runtime", "run", "--platform", "ZC702", "--chips", "0"]) == 2
        assert "at least one chip" in capsys.readouterr().err

    def test_unknown_campaign_fails_cleanly(self, capsys, tmp_path):
        assert main([
            "runtime", "run", "--campaign", "ghost", "--root", str(tmp_path),
        ]) == 2
        assert "no campaign manifest" in capsys.readouterr().err

    def test_sim_core_stepped_matches_event_payload(self, capsys):
        """Both simulation cores yield byte-identical --json documents."""
        event = strip_timing(run_json(capsys, self.RUN_ARGS + ["--json"]))
        stepped = strip_timing(run_json(
            capsys, self.RUN_ARGS + ["--sim-core", "stepped", "--json"],
        ))
        assert json.dumps(stepped, sort_keys=True) == json.dumps(
            event, sort_keys=True
        )

    def test_sim_jobs_sharding_is_deterministic(self, capsys):
        serial = strip_timing(run_json(capsys, self.RUN_ARGS + ["--json"]))
        sharded = strip_timing(run_json(
            capsys, self.RUN_ARGS + ["--sim-jobs", "2", "--json"],
        ))
        assert json.dumps(sharded, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )

    def test_invalid_sim_jobs_fails_cleanly(self, capsys):
        assert main(self.RUN_ARGS + ["--sim-jobs", "0"]) == 2
        assert "--sim-jobs" in capsys.readouterr().err


class TestRuntimeScaleCommand:
    """``runtime scale``: the synthetic-population governor comparison."""

    SCALE_ARGS = [
        "runtime", "scale", "--platform", "ZC702", "--dies", "64",
        "--steps", "48", "--fleet-seed", "4",
    ]

    def test_scale_json_schema_and_golden(self, capsys, golden):
        payload = strip_timing(run_json(capsys, self.SCALE_ARGS + ["--json"]))
        assert set(payload) == {
            "fleet", "trace", "backend", "core", "device_seconds",
            "baselines", "policies",
        }
        assert payload["core"] == "event"
        assert payload["fleet"]["n_dies"] == 64
        assert payload["fleet"]["drifted_dies"] >= 0
        assert payload["trace"]["load_scale"] == 4.0
        assert set(payload["policies"]) == {
            "static-nominal", "static-undervolt", "reactive", "predictive",
        }
        for row in payload["policies"].values():
            assert {
                "energy_j", "served", "faulty_inferences", "slo_violations",
                "crash_steps", "n_actuations",
                "guardband_recovered_fraction", "digest",
            } <= set(row)
        assert payload["policies"]["static-nominal"][
            "guardband_recovered_fraction"
        ] == 0.0
        golden("runtime_scale_small", payload)

    def test_scale_cores_agree_on_digests(self, capsys):
        event = strip_timing(run_json(capsys, self.SCALE_ARGS + ["--json"]))
        stepped = strip_timing(run_json(
            capsys, self.SCALE_ARGS + ["--sim-core", "stepped", "--json"],
        ))
        for name, row in event["policies"].items():
            assert stepped["policies"][name]["digest"] == row["digest"], name

    def test_scale_sharded_backend_is_deterministic(self, capsys):
        serial = strip_timing(run_json(capsys, self.SCALE_ARGS + ["--json"]))
        sharded = strip_timing(run_json(
            capsys,
            self.SCALE_ARGS + ["--backend", "process", "--jobs", "3", "--json"],
        ))
        assert sharded["backend"]["scheduler"] == "process"
        for name, row in serial["policies"].items():
            assert sharded["policies"][name]["digest"] == row["digest"], name

    def test_scale_table_output(self, capsys):
        assert main(self.SCALE_ARGS + ["--policy", "predictive"]) == 0
        out = capsys.readouterr().out
        assert "Population governor comparison" in out
        assert "predictive" in out and "static-nominal" not in out

    def test_invalid_load_scale_fails_cleanly(self, capsys):
        assert main(self.SCALE_ARGS + ["--load-scale", "0"]) == 2
        assert "--load-scale" in capsys.readouterr().err


class TestSearchFlag:
    """The --search knob: provably identical answers, different cost."""

    def test_guardband_modes_agree_bit_for_bit(self, capsys):
        adaptive = run_json(
            capsys, ["guardband", "--platform", "ZC702", "--search", "adaptive", "--json"]
        )
        exhaustive = run_json(
            capsys, ["guardband", "--platform", "ZC702", "--search", "exhaustive", "--json"]
        )
        assert adaptive["rails"] == exhaustive["rails"]
        assert adaptive["search"]["mode"] == "adaptive"
        assert exhaustive["search"]["mode"] == "exhaustive"
        assert (
            adaptive["search"]["n_evaluations"]
            < exhaustive["search"]["n_evaluations"]
        )
        assert (
            adaptive["search"]["n_exhaustive_equivalent"]
            == exhaustive["search"]["n_evaluations"]
        )

    def test_sweep_modes_agree(self, capsys):
        adaptive = run_json(
            capsys,
            ["sweep", "--platform", "ZC702", "--runs", "2", "--search", "adaptive", "--json"],
        )
        exhaustive = run_json(
            capsys,
            ["sweep", "--platform", "ZC702", "--runs", "2", "--search", "exhaustive", "--json"],
        )
        assert adaptive["points"] == exhaustive["points"]

    def test_campaign_run_search_override_changes_identity(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-search",
            "chips": [{"platform": "ZC702", "n_chips": 1}],
            "sweep": "guardband",
            "runs_per_step": 2,
        }))
        root = str(tmp_path / "campaigns")
        adaptive = run_json(capsys, [
            "campaign", "run", "--spec", str(spec_path), "--root", root, "--json",
        ])
        assert adaptive["search"] == "adaptive"
        # Overriding the knob is a different campaign under the same name:
        # the store refuses to mix the two.
        assert main([
            "campaign", "run", "--spec", str(spec_path), "--root", root,
            "--search", "exhaustive", "--json",
        ]) == 2
        assert "does not match" in capsys.readouterr().err


class TestCampaignCommand:
    def test_run_resume_and_tables(self, capsys, tmp_path):
        root = str(tmp_path / "campaigns")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-flow",
            "chips": [{"platform": "ZC702", "n_chips": 2}],
            "sweep": "fvm",
        }))
        assert main(["campaign", "run", "--spec", str(spec_path), "--root", root]) == 0
        out = capsys.readouterr().out
        assert "units executed" in out and "cli-flow" in out

        # Resume executes nothing.
        assert main(["campaign", "run", "--spec", str(spec_path), "--root", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_executed"] == 0 and payload["n_skipped"] == 2

        assert main(["campaign", "report", "--name", "cli-flow", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "population statistics" in out
        assert "FVM similarity" in out

    def test_requires_exactly_one_spec_source(self, capsys, tmp_path):
        assert main(["campaign", "run", "--root", str(tmp_path)]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main([
            "campaign", "status", "--name", "x", "--preset", "fleet16",
            "--root", str(tmp_path),
        ]) == 2

    def test_unknown_preset_and_missing_spec_fail_cleanly(self, capsys, tmp_path):
        assert main(["campaign", "run", "--preset", "nope", "--root", str(tmp_path)]) == 2
        assert "unknown preset" in capsys.readouterr().err
        assert main([
            "campaign", "run", "--spec", str(tmp_path / "missing.json"),
            "--root", str(tmp_path),
        ]) == 2

    def test_status_of_unknown_campaign_fails_cleanly(self, capsys, tmp_path):
        assert main(["campaign", "status", "--name", "ghost", "--root", str(tmp_path)]) == 2
        assert "no campaign manifest" in capsys.readouterr().err

    def test_malformed_spec_fails_cleanly_not_with_a_traceback(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "name": "bad", "chips": [{"platform": "NOPE", "n_chips": 2}],
        }))
        assert main(["campaign", "run", "--spec", str(spec_path),
                     "--root", str(tmp_path)]) == 2
        assert "unknown platform" in capsys.readouterr().err


class TestBackendFlag:
    """--backend/--jobs: identical answers, different execution substrate."""

    def test_guardband_thread_backend_bit_identical(self, capsys):
        serial = run_json(capsys, ["guardband", "--platform", "ZC702", "--json"])
        threaded = run_json(capsys, [
            "guardband", "--platform", "ZC702",
            "--backend", "thread", "--jobs", "4", "--json",
        ])
        assert threaded["rails"] == serial["rails"]
        assert threaded["backend"]["scheduler"] == "thread"
        assert threaded["backend"]["jobs"] == 4

    def test_parallel_backend_defaults_jobs_to_cpu_count(self, capsys):
        import os

        payload = run_json(capsys, [
            "sweep", "--platform", "ZC702", "--runs", "2",
            "--backend", "thread", "--json",
        ])
        assert payload["backend"]["jobs"] == (os.cpu_count() or 1)
        assert main([
            "sweep", "--platform", "ZC702", "--backend", "thread", "--jobs", "0",
        ]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_backends_bit_identical(self, capsys):
        serial = run_json(
            capsys, ["sweep", "--platform", "ZC702", "--runs", "3", "--json"]
        )
        for backend in ("thread", "process"):
            parallel = run_json(capsys, [
                "sweep", "--platform", "ZC702", "--runs", "3",
                "--backend", backend, "--jobs", "2", "--json",
            ])
            assert parallel["points"] == serial["points"]
            assert parallel["backend"]["scheduler"] == backend

    def test_record_then_replay_round_trip(self, capsys, tmp_path):
        store = tmp_path / "zc702-sweep.json"
        recorded = run_json(capsys, [
            "sweep", "--platform", "ZC702", "--runs", "3",
            "--record-store", str(store), "--json",
        ])
        assert store.exists()
        replayed = run_json(capsys, [
            "sweep", "--platform", "ZC702", "--runs", "3",
            "--backend", "replay", "--replay-store", str(store), "--json",
        ])
        assert replayed["points"] == recorded["points"]
        assert replayed["backend"]["kind"] == "replay"
        assert str(store) in replayed["backend"]["source"]

    def test_record_requires_adaptive_search(self, capsys, tmp_path):
        assert main([
            "sweep", "--platform", "ZC702", "--runs", "2",
            "--search", "exhaustive", "--record-store", str(tmp_path / "s.json"),
        ]) == 2
        assert "adaptive" in capsys.readouterr().err

    def test_guardband_replays_from_a_campaign_store(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-replay-src",
            "chips": [{"platform": "ZC702", "n_chips": 1}],
            "sweep": "guardband",
            "runs_per_step": 3,
        }))
        root = tmp_path / "campaigns"
        run_json(capsys, [
            "campaign", "run", "--spec", str(spec_path), "--root", str(root), "--json",
        ])
        live = run_json(capsys, [
            "guardband", "--platform", "ZC702", "--runs", "3", "--json",
        ])
        replayed = run_json(capsys, [
            "guardband", "--platform", "ZC702", "--runs", "3",
            "--backend", "replay",
            "--replay-store", str(root / "cli-replay-src"), "--json",
        ])
        assert replayed["rails"] == live["rails"]
        assert replayed["backend"]["kind"] == "replay"

    def test_replay_without_store_fails_cleanly(self, capsys):
        assert main(["guardband", "--platform", "ZC702", "--backend", "replay"]) == 2
        assert "--replay-store" in capsys.readouterr().err

    def test_replay_of_missing_store_fails_cleanly(self, capsys, tmp_path):
        assert main([
            "guardband", "--platform", "ZC702", "--backend", "replay",
            "--replay-store", str(tmp_path / "ghost.json"),
        ]) == 2
        assert "no recorded evaluation store" in capsys.readouterr().err

    def test_replay_of_incomplete_store_fails_cleanly(self, capsys, tmp_path):
        # A sweep recording lacks the guardband walk's probe evaluations.
        store = tmp_path / "sweep-only.json"
        run_json(capsys, [
            "sweep", "--platform", "ZC702", "--runs", "2",
            "--record-store", str(store), "--json",
        ])
        assert main([
            "guardband", "--platform", "ZC702", "--backend", "replay",
            "--replay-store", str(store),
        ]) == 2
        assert "no recorded evaluation" in capsys.readouterr().err

    def test_campaign_run_thread_backend_matches_process(self, capsys, tmp_path):
        def spec_for(name):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "name": name,
                "chips": [{"platform": "ZC702", "n_chips": 2}],
                "sweep": "guardband",
                "runs_per_step": 2,
            }))
            return path

        by_backend = {}
        for backend in ("thread", "process", "serial"):
            name = f"cli-backend-{backend}"
            root = str(tmp_path / backend)
            run_json(capsys, [
                "campaign", "run", "--spec", str(spec_for(name)),
                "--root", root, "--backend", backend, "--jobs", "2", "--json",
            ])
            report = run_json(capsys, [
                "campaign", "report", "--name", name, "--root", root, "--json",
            ])
            # Unit ids digest only the unit descriptor (not the campaign
            # name), so the per-unit metric rows are directly comparable.
            by_backend[backend] = {
                unit["unit_id"]: unit for unit in report["units"]
            }
        assert by_backend["thread"] == by_backend["process"] == by_backend["serial"]


class TestCorruptCampaignStore:
    """Missing/corrupt campaign directories exit non-zero with one line."""

    @staticmethod
    def corrupt_store(tmp_path):
        store_dir = tmp_path / "broken"
        store_dir.mkdir()
        (store_dir / "manifest.json").write_text("{not json at all")
        return store_dir

    def test_status_of_corrupt_manifest_fails_cleanly(self, capsys, tmp_path):
        self.corrupt_store(tmp_path)
        assert main([
            "campaign", "status", "--name", "broken", "--root", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "corrupt" in err and "Traceback" not in err

    def test_report_of_corrupt_manifest_fails_cleanly(self, capsys, tmp_path):
        self.corrupt_store(tmp_path)
        assert main([
            "campaign", "report", "--name", "broken", "--root", str(tmp_path),
        ]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_report_of_non_manifest_document_fails_cleanly(self, capsys, tmp_path):
        store_dir = tmp_path / "odd"
        store_dir.mkdir()
        (store_dir / "manifest.json").write_text(json.dumps({"spec": []}))
        assert main([
            "campaign", "report", "--name", "odd", "--root", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_runtime_run_with_corrupt_campaign_fails_cleanly(self, capsys, tmp_path):
        self.corrupt_store(tmp_path)
        assert main([
            "runtime", "run", "--campaign", "broken", "--root", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "corrupt" in err and "Traceback" not in err


class TestCharacterizeCommand:
    def test_json_summary(self, capsys):
        assert main(["characterize", "--platform", "ZC702", "--runs", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pattern_rates_per_mbit"]["FFFF"] > payload["pattern_rates_per_mbit"]["0000"]
        assert payload["location_overlap"] > 0.9
        assert 0.3 < payload["variability"]["never_faulty_fraction"] < 0.7

    def test_table_output_has_three_sections(self, capsys):
        assert main(["characterize", "--platform", "ZC702", "--runs", "5"]) == 0
        output = capsys.readouterr().out
        assert "Data-pattern study" in output
        assert "Stability" in output
        assert "variability" in output


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro-undervolt {__version__}"


class TestObservabilityFlags:
    """--obs-trace/--obs-metrics: off is free, on writes the artifacts."""

    def test_guardband_json_is_identical_with_obs_on(self, capsys, tmp_path):
        plain = strip_timing(
            run_json(capsys, ["guardband", "--platform", "ZC702", "--json"])
        )
        traced = strip_timing(run_json(capsys, [
            "guardband", "--platform", "ZC702", "--json",
            "--obs-trace", str(tmp_path / "t.jsonl"),
            "--obs-metrics", str(tmp_path / "m.prom"),
        ]))
        assert traced == plain

    def test_obs_trace_writes_engine_and_search_spans(self, capsys, tmp_path):
        from repro.obs import summarize_trace

        trace_path = tmp_path / "t.jsonl"
        run_json(capsys, [
            "guardband", "--platform", "ZC702", "--json",
            "--obs-trace", str(trace_path),
        ])
        document = summarize_trace(str(trace_path))
        phases = {row["phase"] for row in document["phases"]}
        assert {"engine.evaluate", "search.bisect"} <= phases
        assert document["warnings"] == []

    def test_obs_metrics_writes_prometheus_text_with_build_info(
        self, capsys, tmp_path
    ):
        from repro import __version__

        metrics_path = tmp_path / "m.prom"
        run_json(capsys, [
            "guardband", "--platform", "ZC702", "--json",
            "--obs-metrics", str(metrics_path),
        ])
        text = metrics_path.read_text()
        assert f'repro_build_info{{version="{__version__}"}} 1' in text
        assert 'repro_engine_events_total{event="backend_evaluations"}' in text
        assert text.endswith("\n")

    def test_obs_state_is_reset_after_the_command(self, capsys, tmp_path):
        from repro.obs import NULL_RECORDER, get_recorder, get_registry

        run_json(capsys, [
            "guardband", "--platform", "ZC702", "--json",
            "--obs-trace", str(tmp_path / "t.jsonl"),
            "--obs-metrics", str(tmp_path / "m.prom"),
        ])
        assert get_recorder() is NULL_RECORDER
        assert get_registry() is None

    def test_campaign_run_trace_covers_campaign_phases(self, capsys, tmp_path):
        from repro.obs import summarize_trace

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-obs",
            # Three chips: the warm wave then holds two shards, which is
            # what makes the process scheduler actually fork workers.
            "chips": [{"platform": "ZC702", "n_chips": 3}],
            "sweep": "guardband",
            "runs_per_step": 3,
        }))
        trace_path = tmp_path / "t.jsonl"
        run_json(capsys, [
            "campaign", "run", "--spec", str(spec_path),
            "--root", str(tmp_path / "campaigns"), "--backend", "process",
            "--jobs", "2", "--json", "--obs-trace", str(trace_path),
        ])
        document = summarize_trace(str(trace_path))
        phases = {row["phase"] for row in document["phases"]}
        assert {"campaign.run", "campaign.wave", "campaign.shard",
                "campaign.unit", "sched.task"} <= phases
        assert document["n_processes"] >= 2


class TestTraceSummarizeCommand:
    def make_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        run_json(capsys, [
            "guardband", "--platform", "ZC702", "--json",
            "--obs-trace", str(trace_path),
        ])
        return trace_path

    def test_table_output(self, capsys, tmp_path):
        trace_path = self.make_trace(tmp_path, capsys)
        assert main(["trace", "summarize", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "digest:" in output
        assert "engine.evaluate" in output
        assert "wall_s" in output and "self_s" in output

    def test_json_document_schema(self, capsys, tmp_path):
        trace_path = self.make_trace(tmp_path, capsys)
        payload = strip_timing(run_json(capsys, [
            "trace", "summarize", str(trace_path), "--json",
        ]))
        assert set(payload) == {
            "trace", "n_records", "n_spans", "n_events", "n_processes",
            "digest", "batching", "phases", "warnings",
        }
        for row in payload["phases"]:
            assert set(row) == {"phase", "n_spans", "wall_s", "self_s", "mean_ms"}

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "absent.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_corrupt_trace_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('garbage\n{"kind":"span","name":"a"}\n')
        assert main(["trace", "summarize", str(path)]) == 2
        assert "malformed record" in capsys.readouterr().err
