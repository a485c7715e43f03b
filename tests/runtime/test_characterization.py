"""Tests for die characterizations, bundles and the campaign spec knob."""

import dataclasses
import json

import pytest

from repro.campaign import CampaignSpec, CampaignStore, ChipGroup, run_campaign
from repro.campaign.spec import CampaignError
from repro.fpga.platform import FpgaChip, fleet_serials
from repro.runtime import (
    BUNDLE_FILENAME,
    CharacterizationError,
    DieCharacterization,
    GovernorBundle,
    bundle_path,
    characterize_die,
    write_governor_bundle,
)


class TestDieCharacterization:
    def test_validation(self):
        with pytest.raises(CharacterizationError):
            DieCharacterization(
                platform="ZC702", serial="X", vnom_v=1.0,
                vmin_v=0.5, vcrash_v=0.6,  # inverted
                itd_v_per_degc=1e-4, ripple_margin_v=0.004,
            )

    def test_compensated_vmin_follows_itd(self):
        die = DieCharacterization(
            platform="ZC702", serial="X", vnom_v=1.0, vmin_v=0.61,
            vcrash_v=0.53, itd_v_per_degc=2.0e-4, ripple_margin_v=0.004,
        )
        assert die.compensated_vmin_v(50.0) == pytest.approx(0.61)
        assert die.compensated_vmin_v(80.0) == pytest.approx(0.604)
        assert die.compensated_vmin_v(30.0) == pytest.approx(0.614)
        assert die.guardband_fraction == pytest.approx(0.39)

    def test_round_trip(self):
        die = DieCharacterization(
            platform="ZC702", serial="X", vnom_v=1.0, vmin_v=0.61,
            vcrash_v=0.53, itd_v_per_degc=2.0e-4, ripple_margin_v=0.004,
        )
        assert DieCharacterization.from_dict(die.to_dict()) == die

    def test_characterize_die_matches_the_calibrated_thresholds(self):
        chip = FpgaChip.build("ZC702")
        die = characterize_die(chip, runs_per_step=3)
        calibration_vmin = 0.61
        assert die.vmin_v == pytest.approx(calibration_vmin, abs=0.011)
        assert die.vcrash_v < die.vmin_v
        assert die.ripple_margin_v > 0


class TestGovernorBundle:
    def test_round_trip_and_lookup(self, tmp_path):
        chips = [
            FpgaChip.build("ZC702", serial=serial)
            for serial in fleet_serials("ZC702", 2)
        ]
        bundle = GovernorBundle.from_chips(chips, runs_per_step=2)
        assert len(bundle) == 2
        path = bundle.save(tmp_path / "bundle.json")
        loaded = GovernorBundle.load(path)
        assert loaded.chip_keys() == bundle.chip_keys()
        platform, serial = bundle.chip_keys()[0]
        assert loaded.get(platform, serial) == bundle.get(platform, serial)
        with pytest.raises(CharacterizationError):
            loaded.get("ZC702", "NOPE")

    def test_version_mismatch_is_loud(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"version": 99, "dies": []}))
        with pytest.raises(CharacterizationError):
            GovernorBundle.load(path)

    def test_missing_file_is_loud(self, tmp_path):
        with pytest.raises(CharacterizationError):
            GovernorBundle.load(tmp_path / "ghost.json")


def _guardband_spec(name: str, governor_bundle: bool = False) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        groups=(ChipGroup(platform="ZC702", serials=fleet_serials("ZC702", 2)),),
        sweep="guardband",
        runs_per_step=2,
        governor_bundle=governor_bundle,
    )


class TestCampaignKnob:
    def test_knob_requires_guardband_sweep(self):
        with pytest.raises(CampaignError):
            CampaignSpec(
                name="bad",
                groups=(ChipGroup(platform="ZC702", serials=("A",)),),
                sweep="fvm",
                governor_bundle=True,
            )

    def test_knob_is_hash_compatible_when_off(self):
        plain = _guardband_spec("knob")
        assert "governor_bundle" not in plain.to_dict()
        assert plain.spec_hash == CampaignSpec.from_dict(plain.to_dict()).spec_hash
        enabled = dataclasses.replace(plain, governor_bundle=True)
        assert enabled.to_dict()["governor_bundle"] is True
        assert enabled.spec_hash != plain.spec_hash
        assert CampaignSpec.from_dict(enabled.to_dict()) == enabled

    def test_campaign_run_emits_the_bundle(self, tmp_path):
        spec = _guardband_spec("emit", governor_bundle=True)
        report = run_campaign(spec, root=tmp_path, scheduler="serial")
        store = CampaignStore(spec.name, tmp_path)
        path = bundle_path(store)
        assert report.governor_bundle == str(path)
        assert path.name == BUNDLE_FILENAME
        bundle = GovernorBundle.load(path)
        assert len(bundle) == 2
        assert bundle.source == "emit"
        assert bundle.spec_hash == spec.spec_hash
        # The bundle matches what from_campaign reads back from the store.
        rebuilt = GovernorBundle.from_campaign(store)
        assert rebuilt.to_document()["dies"] == bundle.to_document()["dies"]

    def test_from_campaign_rejects_non_guardband_stores(self, tmp_path):
        spec = CampaignSpec(
            name="fvmstore",
            groups=(ChipGroup(platform="ZC702", serials=("630851561533-44019",)),),
            sweep="fvm",
            runs_per_step=2,
        )
        run_campaign(spec, root=tmp_path, scheduler="serial")
        with pytest.raises(CharacterizationError):
            GovernorBundle.from_campaign(CampaignStore(spec.name, tmp_path))

    def test_write_governor_bundle_needs_completed_units(self, tmp_path):
        spec = _guardband_spec("empty")
        store = CampaignStore.open(spec, tmp_path)
        with pytest.raises(CharacterizationError):
            write_governor_bundle(store, spec)
