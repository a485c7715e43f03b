"""Tests for campaign execution: sharding, resume, equivalence, reporting."""

import numpy as np
import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    CampaignStore,
    ChipGroup,
    WorkUnit,
    build_report,
    execute_unit,
    fvm_from_result,
    run_campaign,
)
from repro.campaign.runner import _shards
from repro.fpga import FpgaChip
from repro.fpga.voltage import VCCBRAM, VCCINT
from repro.harness import UndervoltingExperiment
from repro.obs import EventStream

ZC702_STOCK_SERIAL = "630851561533-44019"


def two_chip_spec(sweep="guardband", **overrides):
    base = dict(
        name=f"runner-{sweep}",
        groups=(
            ChipGroup(platform="ZC702", serials=(ZC702_STOCK_SERIAL, "SIM-ZC702-0001")),
        ),
        sweep=sweep,
        runs_per_step=3,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSharding:
    def test_one_shard_per_chip_preserving_order(self):
        spec = two_chip_spec(temperatures_c=(50.0, 60.0))
        shards = _shards(spec.expand())
        assert len(shards) == 2
        for shard in shards:
            assert len(set(u.chip_key for u in shard)) == 1
            assert len(shard) == 2


class TestExecuteUnit:
    def test_guardband_unit_matches_single_chip_experiment_bit_for_bit(self):
        unit = WorkUnit(
            platform="ZC702", serial=ZC702_STOCK_SERIAL, sweep="guardband", runs_per_step=3
        )
        result = execute_unit(unit)
        chip = FpgaChip.build("ZC702")
        experiment = UndervoltingExperiment(chip, runs_per_step=3)
        for rail in (VCCBRAM, VCCINT):
            measurement, _ = experiment.discover_guardband(rail=rail)
            stored = result.summary["rails"][rail]
            assert stored["vmin_v"] == measurement.vmin_v
            assert stored["vcrash_v"] == measurement.vcrash_v
            assert stored["guardband_fraction"] == measurement.guardband_fraction
            assert (
                stored["power_reduction_factor_at_vmin"]
                == measurement.power_reduction_factor_at_vmin
            )

    def test_sweep_unit_matches_critical_region_sweep(self):
        unit = WorkUnit(
            platform="ZC702", serial=ZC702_STOCK_SERIAL, sweep="sweep", runs_per_step=3
        )
        result = execute_unit(unit)
        chip = FpgaChip.build("ZC702")
        experiment = UndervoltingExperiment(chip, runs_per_step=3)
        reference = experiment.critical_region_sweep(n_runs=3)
        np.testing.assert_array_equal(result.arrays["voltages_v"], reference.voltages())
        np.testing.assert_array_equal(
            result.arrays["median_rates_per_mbit"], reference.fault_rates_per_mbit()
        )

    def test_fvm_unit_roundtrips_to_a_fault_variation_map(self):
        unit = WorkUnit(platform="ZC702", serial="SIM-ZC702-0001", sweep="fvm")
        result = execute_unit(unit)
        fvm = fvm_from_result(result)
        assert fvm.n_brams == 280
        assert fvm.statistics()["never_faulty_fraction"] == pytest.approx(
            result.summary["never_faulty_fraction"]
        )

    def test_distinct_serials_get_distinct_fault_maps(self):
        a = execute_unit(WorkUnit(platform="ZC702", serial="SIM-ZC702-0001", sweep="fvm"))
        b = execute_unit(WorkUnit(platform="ZC702", serial="SIM-ZC702-0002", sweep="fvm"))
        assert not np.array_equal(a.arrays["counts"], b.arrays["counts"])

    def test_temperature_lowers_fault_rates(self):
        cold = execute_unit(
            WorkUnit(platform="ZC702", serial=ZC702_STOCK_SERIAL, sweep="sweep",
                     temperature_c=50.0, runs_per_step=3)
        )
        hot = execute_unit(
            WorkUnit(platform="ZC702", serial=ZC702_STOCK_SERIAL, sweep="sweep",
                     temperature_c=80.0, runs_per_step=3)
        )
        assert (
            hot.arrays["median_rates_per_mbit"][-1]
            < cold.arrays["median_rates_per_mbit"][-1]
        )


class TestRunCampaign:
    def test_serial_run_completes_and_resumes(self, tmp_path):
        spec = two_chip_spec()
        report = run_campaign(spec, root=tmp_path, max_workers=1)
        assert len(report.executed) == 2 and report.skipped == ()
        assert CampaignStore(spec.name, tmp_path).status(spec).is_complete

        resumed = run_campaign(spec, root=tmp_path, max_workers=1)
        assert resumed.executed == ()
        assert len(resumed.skipped) == 2

    def test_interrupted_campaign_only_runs_missing_units(self, tmp_path):
        spec = two_chip_spec(sweep="fvm")
        run_campaign(spec, root=tmp_path, max_workers=1)
        store = CampaignStore(spec.name, tmp_path)
        units = spec.expand()
        # Simulate an interruption: drop one unit's commit marker.
        store._json_path(units[0].unit_id).unlink()
        report = run_campaign(spec, root=tmp_path, max_workers=1)
        assert report.executed == (units[0].unit_id,)
        assert set(report.skipped) == {units[1].unit_id}
        assert store.status(spec).is_complete

    def test_process_parallel_matches_serial_results(self, tmp_path):
        spec = two_chip_spec(name="runner-parallel")
        serial_spec = two_chip_spec(name="runner-serial")
        run_campaign(spec, root=tmp_path, max_workers=2, scheduler="process")
        run_campaign(serial_spec, root=tmp_path, max_workers=1)
        parallel_store = CampaignStore(spec.name, tmp_path)
        serial_store = CampaignStore(serial_spec.name, tmp_path)
        for unit, reference in zip(spec.expand(), serial_spec.expand()):
            assert (
                parallel_store.load(unit).summary == serial_store.load(reference).summary
            )

    def test_progress_callback_fires_per_unit(self, tmp_path):
        spec = two_chip_spec(name="runner-progress")
        stream = EventStream(record_trace=False)
        seen = []
        stream.subscribe(lambda event: seen.append(event.fields))
        run_campaign(spec, root=tmp_path, max_workers=1, events=stream)
        assert [(f["done"], f["pending"]) for f in seen] == [(1, 2), (2, 2)]

    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(CampaignError):
            run_campaign(two_chip_spec(name="runner-bad"), root=tmp_path, max_workers=0)


class TestBuildReport:
    def test_report_aggregates_fleet_and_platform_distributions(self, tmp_path):
        spec = two_chip_spec(name="runner-report")
        run_campaign(spec, root=tmp_path, max_workers=1)
        report = build_report(CampaignStore(spec.name, tmp_path), spec)
        payload = report.to_dict()
        assert payload["complete"] and payload["n_completed"] == 2
        assert len(payload["units"]) == 2
        fleet = payload["population"]["fleet"]
        assert fleet["vccbram_guardband_fraction"]["n"] == 2
        assert set(payload["population"]["by_platform"]) == {"ZC702"}

    def test_fvm_report_contains_pairwise_similarity(self, tmp_path):
        spec = two_chip_spec(name="runner-report-fvm", sweep="fvm")
        run_campaign(spec, root=tmp_path, max_workers=1)
        report = build_report(CampaignStore(spec.name, tmp_path), spec)
        payload = report.to_dict()
        pairs = payload["fvm_similarity"]["pairs"]
        assert len(pairs) == 1
        assert pairs[0]["platform"] == "ZC702"
        assert payload["fvm_similarity"]["extremes"]["n_pairs"] == 1

    def test_empty_store_raises(self, tmp_path):
        spec = two_chip_spec(name="runner-empty")
        CampaignStore.open(spec, tmp_path)
        with pytest.raises(CampaignError, match="no completed units"):
            build_report(CampaignStore(spec.name, tmp_path), spec)
