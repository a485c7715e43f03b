"""Golden regression tests: the paper-figure numbers, frozen as JSON.

These lock the *current* reproduced values of the headline artefacts —
guardband tables for all four boards, the KC705 die-to-die FVM comparison
(Fig. 7), and fleet guardband percentiles — as committed snapshots under
``tests/golden/``.  Any change to the fault model, calibration, batch
engine or search subsystem that moves one of these numbers fails loudly
here; an *intentional* recalibration refreshes the snapshots with::

    python -m pytest tests/test_goldens.py --update-goldens

The guardband golden runs through the adaptive search path on purpose: the
bisection certificates guarantee it equals the exhaustive walk, so this
file simultaneously pins the paper numbers and the equivalence contract.
"""

from repro.campaign import CampaignSpec, CampaignStore, ChipGroup, build_report, run_campaign
from repro.fpga import FpgaChip, platform_names
from repro.harness import UndervoltingExperiment
from repro.fpga.voltage import VCCBRAM, VCCINT


class TestGuardbandGoldens:
    def test_guardband_table_all_platforms(self, golden):
        table = {}
        for platform in platform_names():
            experiment = UndervoltingExperiment(FpgaChip.build(platform), runs_per_step=3)
            rails = {}
            for rail in (VCCBRAM, VCCINT):
                measurement = experiment.discover_guardband_adaptive(rail=rail).measurement
                rails[rail] = {
                    "vnom_v": measurement.nominal_v,
                    "vmin_v": measurement.vmin_v,
                    "vcrash_v": measurement.vcrash_v,
                    "guardband_fraction": measurement.guardband_fraction,
                    "power_reduction_factor_at_vmin": (
                        measurement.power_reduction_factor_at_vmin
                    ),
                }
            table[platform] = rails
        golden("guardband_table", table)


class TestFvmSimilarityGolden:
    def test_kc705_pair_comparison(self, golden):
        maps = {}
        for platform in ("KC705-A", "KC705-B"):
            experiment = UndervoltingExperiment(FpgaChip.build(platform), runs_per_step=2)
            maps[platform] = experiment.extract_fvm()
        comparison = maps["KC705-A"].compare(maps["KC705-B"])
        payload = {
            "comparison": comparison,
            "statistics_a": maps["KC705-A"].statistics(),
            "statistics_b": maps["KC705-B"].statistics(),
        }
        golden("fvm_similarity_kc705", payload)


class TestFleetPercentileGoldens:
    def test_small_fleet_guardband_percentiles(self, golden, tmp_path):
        spec = CampaignSpec(
            name="golden-fleet",
            groups=(
                ChipGroup(
                    platform="ZC702",
                    serials=(
                        "630851561533-44019",
                        "SIM-ZC702-0001",
                        "SIM-ZC702-0002",
                        "SIM-ZC702-0003",
                    ),
                ),
            ),
            sweep="guardband",
            runs_per_step=2,
        )
        run_campaign(spec, root=tmp_path, scheduler="serial")
        report = build_report(CampaignStore(spec.name, tmp_path), spec)
        payload = {
            metric: distribution.as_dict()
            for metric, distribution in report.fleet.items()
        }
        golden("fleet_percentiles_zc702", payload)
