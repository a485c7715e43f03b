"""Tests for voltage rails and the regulator model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.voltage import (
    DEFAULT_STEP_V,
    VCCBRAM,
    VCCINT,
    VoltageError,
    VoltageRail,
    VoltageRegulator,
)


class TestVoltageRail:
    def test_defaults_to_nominal(self):
        rail = VoltageRail(name=VCCBRAM)
        assert rail.setpoint_v == pytest.approx(1.0)
        assert rail.guardband_fraction == pytest.approx(0.0)

    def test_set_quantizes_to_resolution(self):
        rail = VoltageRail(name=VCCBRAM, resolution_v=0.005)
        applied = rail.set(0.6124)
        assert applied == pytest.approx(0.610)

    def test_limits_enforced(self):
        rail = VoltageRail(name=VCCBRAM, min_v=0.5, max_v=1.05)
        with pytest.raises(VoltageError):
            rail.set(0.3)
        with pytest.raises(VoltageError):
            rail.set(1.2)

    def test_undervolt_by_accumulates(self):
        rail = VoltageRail(name=VCCBRAM)
        rail.undervolt_by(0.2)
        rail.undervolt_by(0.1)
        assert rail.setpoint_v == pytest.approx(0.7)
        assert rail.guardband_fraction == pytest.approx(0.3)

    def test_undervolt_by_negative_rejected(self):
        rail = VoltageRail(name=VCCBRAM)
        with pytest.raises(VoltageError):
            rail.undervolt_by(-0.1)

    def test_reset_returns_to_nominal(self):
        rail = VoltageRail(name=VCCBRAM)
        rail.set(0.62)
        rail.reset()
        assert rail.setpoint_v == pytest.approx(1.0)

    def test_read_is_close_to_setpoint_and_stable(self):
        rail = VoltageRail(name=VCCBRAM)
        rail.set(0.61)
        first, second = rail.read(), rail.read()
        assert first == second
        assert abs(first - 0.61) < 0.001

    def test_read_does_not_depend_on_the_hash_seed(self):
        # String hashing is salted per process; the ripple must not be.
        script = (
            "from repro.fpga.voltage import VoltageRail\n"
            "rail = VoltageRail(name='VCCBRAM')\n"
            "rail.set(0.57)\n"
            "print(repr(rail.read()))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        readings = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            readings.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(readings) == 1

    def test_inconsistent_limits_rejected(self):
        with pytest.raises(VoltageError):
            VoltageRail(name=VCCBRAM, min_v=1.2, max_v=1.0)
        with pytest.raises(VoltageError):
            VoltageRail(name=VCCBRAM, nominal_v=2.0)

    @given(target=st.floats(min_value=0.41, max_value=1.09))
    @settings(max_examples=50, deadline=None)
    def test_set_always_lands_within_resolution(self, target):
        rail = VoltageRail(name=VCCBRAM)
        applied = rail.set(target)
        assert abs(applied - target) <= rail.resolution_v / 2 + 1e-9


class TestRailClamping:
    """Edge cases at the regulator's margining limits.

    The runtime governor leans on these guarantees: commands below the
    crash floor or above the margining ceiling must be *rejected* (PMBUS
    error on hardware), never silently clamped, and quantization can never
    carry a request across a limit.
    """

    def test_exact_limits_are_inclusive(self):
        rail = VoltageRail(name=VCCBRAM, min_v=0.40, max_v=1.10)
        assert rail.set(0.40) == pytest.approx(0.40)
        assert rail.set(1.10) == pytest.approx(1.10)

    def test_one_resolution_step_beyond_either_limit_is_rejected(self):
        rail = VoltageRail(name=VCCBRAM, min_v=0.40, max_v=1.10)
        rail.set(1.10)
        with pytest.raises(VoltageError):
            rail.set(0.40 - rail.resolution_v)
        with pytest.raises(VoltageError):
            rail.set(1.10 + rail.resolution_v)
        # Failed requests leave the setpoint untouched.
        assert rail.setpoint_v == pytest.approx(1.10)

    def test_quantization_cannot_tunnel_through_a_limit(self):
        # 0.3996 quantizes to 0.400 (inside); 0.3994 to 0.399 (outside).
        rail = VoltageRail(name=VCCBRAM, min_v=0.40)
        assert rail.set(0.3996) == pytest.approx(0.40)
        with pytest.raises(VoltageError):
            rail.set(0.3994)

    def test_undervolt_by_below_the_floor_is_rejected_and_state_kept(self):
        rail = VoltageRail(name=VCCBRAM, min_v=0.40)
        rail.set(0.41)
        with pytest.raises(VoltageError):
            rail.undervolt_by(0.02)
        assert rail.setpoint_v == pytest.approx(0.41)

    def test_nominal_at_a_limit_is_allowed(self):
        rail = VoltageRail(name=VCCBRAM, nominal_v=1.10, max_v=1.10)
        assert rail.setpoint_v == pytest.approx(1.10)


class TestVoltageRegulator:
    def test_for_platform_registers_standard_rails(self):
        regulator = VoltageRegulator.for_platform()
        assert set(regulator.rails) >= {VCCBRAM, VCCINT}

    def test_duplicate_rail_rejected(self):
        regulator = VoltageRegulator.for_platform()
        with pytest.raises(VoltageError):
            regulator.add_rail(VoltageRail(name=VCCBRAM))

    def test_unknown_rail_rejected(self):
        regulator = VoltageRegulator.for_platform()
        with pytest.raises(VoltageError):
            regulator.set_voltage("VCCXYZ", 0.9)

    def test_set_and_snapshot(self):
        regulator = VoltageRegulator.for_platform()
        regulator.set_voltage(VCCBRAM, 0.61)
        snapshot = regulator.snapshot()
        assert snapshot[VCCBRAM] == pytest.approx(0.61)
        assert snapshot[VCCINT] == pytest.approx(1.0)

    def test_reset_all(self):
        regulator = VoltageRegulator.for_platform()
        regulator.set_voltage(VCCBRAM, 0.61)
        regulator.reset_all()
        assert regulator.snapshot()[VCCBRAM] == pytest.approx(1.0)

    def test_sweep_points_include_both_endpoints(self):
        regulator = VoltageRegulator.for_platform()
        points = regulator.sweep_points(VCCBRAM, 0.61, 0.54, DEFAULT_STEP_V)
        assert points[0] == pytest.approx(0.61)
        assert points[-1] == pytest.approx(0.54)
        assert len(points) == 8

    def test_sweep_points_validate_direction_and_step(self):
        regulator = VoltageRegulator.for_platform()
        with pytest.raises(VoltageError):
            regulator.sweep_points(VCCBRAM, 0.5, 0.6)
        with pytest.raises(VoltageError):
            regulator.sweep_points(VCCBRAM, 0.6, 0.5, step_v=0.0)
