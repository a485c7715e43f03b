"""Edge-case coverage for the reporting layer and campaign aggregation.

The cases the fleet reports meet in the wild: empty campaigns, single-chip
fleets (every percentile collapses onto one value), NaN temperature/power
rows from non-operational steps, and the evaluation accounting with
mixed/missing search records.
"""

import math

import numpy as np
import pytest

from repro.analysis import (
    ExperimentReport,
    FleetDistribution,
    ReportError,
    Section,
    TableError,
    evaluation_totals,
    format_value,
    population_summary,
    render_kv,
    render_table,
)
from repro.campaign import (
    CampaignError,
    CampaignSpec,
    CampaignStore,
    ChipGroup,
    build_report,
    run_campaign,
)


def one_chip_spec(name, sweep="guardband"):
    return CampaignSpec(
        name=name,
        groups=(ChipGroup(platform="ZC702", serials=("SIM-ZC702-0001",)),),
        sweep=sweep,
        runs_per_step=2,
    )


class TestTablesEdgeCases:
    def test_nan_cells_render_as_nan_text(self):
        text = render_table(["t (degC)", "power"], [(float("nan"), 0.5), (50.0, float("nan"))])
        assert text.count("nan") == 2

    def test_numpy_nan_and_inf_rows(self):
        row = [np.nan, np.inf, -np.inf]
        text = render_table(["a", "b", "c"], [row])
        assert "nan" in text
        assert "inf" in text

    def test_empty_rows_render_header_and_separator_only(self):
        text = render_table(["alpha", "beta"], [])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("alpha")
        assert set(lines[1]) <= {"-", "+"}

    def test_zero_width_column_padding(self):
        text = render_table(["x"], [[""]])
        assert text.splitlines()[0] == "x"

    def test_format_value_large_and_bool(self):
        assert format_value(1234567.8) == "1,234,567.8"
        assert format_value(True) == "yes"
        assert format_value(float("nan")) == "nan"

    def test_render_kv_rejects_wrong_shape(self):
        with pytest.raises(TableError):
            render_kv("bad", [("only-one-cell",)])


class TestExperimentReportEdgeCases:
    def test_notes_without_rows(self):
        report = ExperimentReport("exp", "edge")
        section = report.new_section("empty", ["a"])
        section.add_note("nothing measured")
        text = report.render()
        assert "nothing measured" in text
        assert report.to_dict()["sections"][0]["rows"] == []

    def test_nan_cells_survive_json(self):
        report = ExperimentReport("exp", "nan")
        section = report.new_section("s", ["temperature_c"])
        section.add_row(float("nan"))
        # default=str keeps the dump well-formed even for exotic cells.
        assert "NaN" in report.to_json() or "nan" in report.to_json()

    def test_column_count_enforced_per_section(self):
        section = Section(title="s", headers=["a", "b"])
        with pytest.raises(ReportError):
            section.add_row(1)


class TestSingleChipFleet:
    def test_percentiles_collapse_to_the_single_value(self):
        distribution = FleetDistribution.from_values("vmin_v", [0.61])
        assert distribution.summary.n == 1
        assert set(distribution.percentiles.values()) == {0.61}
        assert distribution.spread_fraction == 0.0

    def test_population_summary_single_chip(self):
        summary = population_summary({"vmin_v": [0.61], "vcrash_v": [0.54]})
        assert summary["vmin_v"].summary.mean == 0.61
        assert summary["vcrash_v"].summary.std_dev == 0.0

    def test_single_chip_campaign_report(self, tmp_path):
        spec = one_chip_spec("edge-single")
        run_campaign(spec, root=tmp_path, scheduler="serial")
        report = build_report(CampaignStore(spec.name, tmp_path), spec)
        assert report.n_completed == 1
        payload = report.to_dict()
        for distribution in payload["population"]["fleet"].values():
            assert distribution["n"] == 1
            assert distribution["min"] == distribution["max"]
        assert payload["evaluations"]["n_units"] == 1

    def test_single_chip_fvm_campaign_has_no_similarity_block(self, tmp_path):
        spec = one_chip_spec("edge-single-fvm", sweep="fvm")
        run_campaign(spec, root=tmp_path, scheduler="serial")
        payload = build_report(CampaignStore(spec.name, tmp_path), spec).to_dict()
        assert "fvm_similarity" not in payload


class TestEmptyCampaign:
    def test_report_on_empty_store_raises_helpfully(self, tmp_path):
        spec = one_chip_spec("edge-empty")
        store = CampaignStore.open(spec, tmp_path)
        with pytest.raises(CampaignError, match="no completed units"):
            build_report(store, spec)

    def test_status_of_empty_store_is_all_pending(self, tmp_path):
        spec = one_chip_spec("edge-empty-status")
        store = CampaignStore.open(spec, tmp_path)
        status = store.status(spec)
        assert status.n_completed == 0
        assert status.n_pending == spec.n_units
        assert not status.is_complete


class TestNanTemperatureRows:
    def test_fleet_distribution_propagates_nan(self):
        distribution = FleetDistribution.from_values("t", [50.0, float("nan")])
        assert math.isnan(distribution.summary.mean)

    def test_nan_power_rows_render(self):
        # Non-operational sweep steps store NaN power; tables must not crash.
        rows = [(0.54, float("nan")), (0.61, 0.013)]
        text = render_table(["V", "W"], rows)
        assert "nan" in text


class TestEvaluationTotals:
    def test_empty_iterable(self):
        totals = evaluation_totals([])
        assert totals["n_units"] == 0
        assert totals["speedup_factor"] == 0.0
        assert totals["saved_fraction"] == 0.0

    def test_missing_and_empty_records_are_skipped(self):
        totals = evaluation_totals([
            {},
            {"n_evaluations": 10, "n_exhaustive_equivalent": 50},
            {"n_evaluations": 10, "n_cache_hits": 3, "n_exhaustive_equivalent": 50},
        ])
        assert totals["n_units"] == 2
        assert totals["n_evaluations"] == 20
        assert totals["n_cache_hits"] == 3
        assert totals["evaluations_saved"] == 80
        assert totals["speedup_factor"] == 5.0

    def test_zero_evaluations_means_infinite_speedup_reported_as_zero(self):
        totals = evaluation_totals([{"n_evaluations": 0, "n_exhaustive_equivalent": 10}])
        assert totals["speedup_factor"] == 0.0
        assert totals["saved_fraction"] == 1.0
