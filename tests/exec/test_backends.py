"""Backend contract tests: simulated answers, bit-identical replay."""

import json

import pytest

from repro.exec import (
    FVM,
    PROBE,
    REGION,
    EvalRequest,
    ExecError,
    ReplayBackend,
    SimulatedBackend,
    backend_from_spec,
    rail_thresholds,
)
from repro.fpga import FpgaChip
from repro.fpga.voltage import VCCBRAM, VCCINT
from repro.search import EvalCache


@pytest.fixture(scope="module")
def backend() -> SimulatedBackend:
    return SimulatedBackend(chip=FpgaChip.build("ZC702"))


def region_request(voltage=0.58, runs=3, pattern=0xFFFF):
    return EvalRequest(
        kind=REGION, rail=VCCBRAM, voltage_v=voltage, temperature_c=50.0,
        pattern=pattern, n_runs=runs,
    )


class TestRequestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecError):
            EvalRequest(kind="mystery", rail=VCCBRAM, voltage_v=0.6,
                        temperature_c=50.0, pattern="FFFF", n_runs=1)

    def test_fvm_requires_no_run_axis(self):
        with pytest.raises(ExecError):
            EvalRequest(kind=FVM, rail=VCCBRAM, voltage_v=0.6,
                        temperature_c=50.0, pattern="FFFF", n_runs=3)

    def test_run_bearing_kinds_need_runs(self):
        for kind in (PROBE, REGION):
            with pytest.raises(ExecError):
                EvalRequest(kind=kind, rail=VCCBRAM, voltage_v=0.6,
                            temperature_c=50.0, pattern="FFFF", n_runs=0)

    def test_pattern_keeps_its_original_spelling(self):
        request = region_request(pattern=0xFFFF)
        assert request.pattern == 0xFFFF
        assert request.pattern_text == "65535"


class TestRailThresholds:
    def test_known_rails(self, backend):
        cal = backend.calibration
        assert rail_thresholds(cal, VCCBRAM) == (cal.vmin_bram_v, cal.vcrash_bram_v)
        assert rail_thresholds(cal, VCCINT) == (cal.vmin_int_v, cal.vcrash_int_v)

    def test_unknown_rail_rejected(self, backend):
        with pytest.raises(ExecError):
            rail_thresholds(backend.calibration, "VCCAUX")


class TestSimulatedBackend:
    def test_region_matches_batch_engine(self, backend):
        request = region_request(runs=4)
        point = backend.evaluate(request)
        from repro.core.batch import OperatingGrid

        grid = OperatingGrid.from_axes((request.voltage_v,), (50.0,), runs=4)
        expected = backend.fault_field.batch.chip_counts(grid, 0xFFFF)[0, 0, :]
        assert point.counts == tuple(int(c) for c in expected)
        assert point.operational and point.bram_power_w is not None

    def test_fvm_row_matches_batch_engine(self, backend):
        request = EvalRequest(kind=FVM, rail=VCCBRAM, voltage_v=0.56,
                              temperature_c=50.0, pattern=0xFFFF, n_runs=0)
        point = backend.evaluate(request)
        from repro.core.batch import OperatingGrid

        grid = OperatingGrid.from_axes((0.56,), (50.0,))
        expected = backend.fault_field.batch.per_bram_counts(grid, 0xFFFF)[0, 0, 0, :]
        assert point.per_bram_counts == tuple(int(c) for c in expected)
        assert point.n_runs == 0 and point.counts == ()

    def test_probe_below_vcrash_is_not_operational(self, backend):
        cal = backend.calibration
        request = EvalRequest(
            kind=PROBE, rail=VCCBRAM, voltage_v=round(cal.vcrash_bram_v - 0.02, 4),
            temperature_c=50.0, pattern=0xFFFF, n_runs=3,
        )
        point = backend.evaluate(request)
        assert not point.operational and point.counts == ()

    def test_probe_answers_for_the_requested_pattern_and_temperature(self):
        backend = SimulatedBackend(chip=FpgaChip.build("ZC702"))
        backend.host.initialize_brams(0xFFFF)
        voltage = round(backend.calibration.vcrash_bram_v + 0.01, 4)
        field = backend.fault_field
        for temperature in (backend.chip.board_temperature_c, 70.0):
            point = backend.evaluate(EvalRequest(
                kind=PROBE, rail=VCCBRAM, voltage_v=voltage,
                temperature_c=temperature, pattern=0xAAAA, n_runs=3,
            ))
            expected = field.counts_over_runs(
                voltage, 3, temperature_c=temperature, pattern=0xAAAA
            )
            stored = field.counts_over_runs(
                voltage, 3, temperature_c=temperature, pattern=0xFFFF
            )
            assert point.counts == tuple(int(c) for c in expected)
            assert point.counts != tuple(int(c) for c in stored)
            assert point.temperature_c == temperature

    def test_region_rejects_vccint(self, backend):
        with pytest.raises(ExecError):
            backend.evaluate(
                EvalRequest(kind=REGION, rail=VCCINT, voltage_v=0.8,
                            temperature_c=50.0, pattern=0xFFFF, n_runs=2)
            )

    def test_spec_round_trip(self, backend):
        rebuilt = backend_from_spec(backend.spec())
        request = region_request(runs=2)
        assert rebuilt.evaluate(request) == backend.evaluate(request)

    def test_custom_backend_is_not_spec_buildable(self):
        chip = FpgaChip.build("ZC702")
        custom = SimulatedBackend(chip=chip, spec_buildable=False)
        assert custom.spec() is None
        with pytest.raises(ExecError):
            backend_from_spec(None)

    def test_negative_latency_rejected(self):
        with pytest.raises(ExecError):
            SimulatedBackend(chip=FpgaChip.build("ZC702"), latency_s=-1.0)


class TestReplayBackend:
    def make_recording(self, backend, voltages=(0.58, 0.57), runs=3):
        cache = EvalCache(platform=backend.platform, serial=backend.serial)
        for voltage in voltages:
            cache.store(backend.evaluate(region_request(voltage, runs)))
        return cache

    def test_replays_recorded_points_bit_identically(self, backend):
        cache = self.make_recording(backend)
        replay = ReplayBackend.from_cache(cache)
        for voltage in (0.58, 0.57):
            request = region_request(voltage)
            assert replay.evaluate(request) == backend.evaluate(request)
        assert replay.n_served == 2

    def test_missing_point_is_loud(self, backend):
        replay = ReplayBackend.from_cache(self.make_recording(backend))
        with pytest.raises(ExecError, match="no recorded evaluation"):
            replay.evaluate(region_request(0.55))

    def test_open_single_file(self, backend, tmp_path):
        cache = self.make_recording(backend)
        path = tmp_path / "store.json"
        path.write_text(json.dumps(cache.to_document()))
        replay = ReplayBackend.open(path)
        assert replay.platform == backend.platform
        assert len(replay) == len(cache)

    def test_open_rejects_wrong_die(self, backend, tmp_path):
        cache = self.make_recording(backend)
        path = tmp_path / "store.json"
        path.write_text(json.dumps(cache.to_document()))
        with pytest.raises(ExecError, match="not platform"):
            ReplayBackend.open(path, platform="VC707")

    def test_open_missing_and_corrupt_files(self, tmp_path):
        with pytest.raises(ExecError, match="no recorded evaluation store"):
            ReplayBackend.open(tmp_path / "ghost.json")
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{broken")
        with pytest.raises(ExecError, match="not valid JSON"):
            ReplayBackend.open(corrupt)
        not_a_cache = tmp_path / "other.json"
        not_a_cache.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ExecError, match="not an evaluation-cache"):
            ReplayBackend.open(not_a_cache)

    def test_open_malformed_entries_raise_exec_error(self, tmp_path):
        # Valid JSON, valid envelope, garbage evaluations: still one clean
        # ExecError (the CLI turns it into an exit-2 line), not a KeyError.
        from repro.search import CACHE_VERSION

        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({
            "version": CACHE_VERSION, "platform": "ZC702", "serial": "x",
            "entries": [{"oops": 1}],
        }))
        with pytest.raises(ExecError, match="malformed evaluations"):
            ReplayBackend.open(malformed)

    def test_open_campaign_store_directory(self, backend, tmp_path):
        cache_dir = tmp_path / "campaign" / "cache"
        cache_dir.mkdir(parents=True)
        cache = self.make_recording(backend)
        (cache_dir / "die.json").write_text(json.dumps(cache.to_document()))
        replay = ReplayBackend.open(tmp_path / "campaign")
        assert replay.serial == backend.serial
        with pytest.raises(ExecError, match="no recorded die matching"):
            ReplayBackend.open(tmp_path / "campaign", platform="VC707")
