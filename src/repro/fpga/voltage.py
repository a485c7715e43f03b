"""Voltage rails and the on-board voltage regulator.

The studied boards expose several independently regulated supply rails.  The
paper concentrates on two on-chip rails: ``VCCBRAM`` (supplies the BRAM
bitcells) and ``VCCINT`` (supplies the internal logic: LUTs, DSPs, routing).
An on-board TI UCD9248 controller, reachable over PMBUS, sets and reads the
rails in millivolt steps.

This module models the rails and the regulator as plain software objects.  It
intentionally knows nothing about faults — it just tracks setpoints, enforces
the regulator's margining limits, and reports read-back values with a small
deterministic ripple so downstream code cannot accidentally depend on exact
equality with the setpoint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

#: Nominal core voltage of all four studied platforms.
NOMINAL_VOLTAGE = 1.0

#: The paper steps the supply in 10 mV decrements (Listing 1, line 9).
DEFAULT_STEP_V = 0.010

#: Rail names used throughout the reproduction.
VCCBRAM = "VCCBRAM"
VCCINT = "VCCINT"
VCCAUX = "VCCAUX"
VCCO = "VCCO"


class VoltageError(ValueError):
    """Raised when a rail is driven outside the regulator's capabilities."""


@dataclass
class VoltageRail:
    """One independently regulated supply rail.

    Attributes
    ----------
    name:
        Rail identifier, e.g. ``"VCCBRAM"``.
    nominal_v:
        Factory-set nominal voltage (1.0 V on all studied boards).
    setpoint_v:
        Current regulator setpoint.
    min_v / max_v:
        Hard margining limits of the regulator; requests outside this window
        are rejected, mirroring the UCD9248's configured output limits.
    resolution_v:
        Smallest setpoint increment the regulator honours.
    """

    name: str
    nominal_v: float = NOMINAL_VOLTAGE
    setpoint_v: Optional[float] = None
    min_v: float = 0.40
    max_v: float = 1.10
    resolution_v: float = 0.001

    def __post_init__(self) -> None:
        if self.min_v >= self.max_v:
            raise VoltageError(f"rail {self.name}: min_v must be below max_v")
        if not self.min_v <= self.nominal_v <= self.max_v:
            raise VoltageError(f"rail {self.name}: nominal voltage outside limits")
        if self.setpoint_v is None:
            self.setpoint_v = self.nominal_v
        self.set(self.setpoint_v)

    def quantize(self, volts: float) -> float:
        """Round a request to the regulator's resolution."""
        steps = round(volts / self.resolution_v)
        return round(steps * self.resolution_v, 6)

    def set(self, volts: float) -> float:
        """Drive the rail to ``volts`` (quantized); returns the applied value."""
        volts = self.quantize(volts)
        if not self.min_v <= volts <= self.max_v:
            raise VoltageError(
                f"rail {self.name}: {volts:.3f} V outside limits "
                f"[{self.min_v:.3f}, {self.max_v:.3f}]"
            )
        self.setpoint_v = volts
        return volts

    def reset(self) -> float:
        """Return the rail to its nominal voltage."""
        return self.set(self.nominal_v)

    def undervolt_by(self, delta_v: float) -> float:
        """Lower the setpoint by ``delta_v`` volts."""
        if delta_v < 0:
            raise VoltageError("undervolt_by expects a non-negative delta")
        return self.set(self.setpoint_v - delta_v)

    def read(self) -> float:
        """Read the rail back, with a deterministic sub-millivolt ripple.

        The ripple is a fixed function of the rail and setpoint so repeated
        reads are stable (the measurement loop takes medians anyway) while
        still not being bit-identical to the setpoint.  A ``hashlib``
        digest, unlike the salted built-in ``hash()``, keeps it the same in
        every process.
        """
        key = f"{self.name}:{round(self.setpoint_v * 1000)}".encode()
        ripple = ((int.from_bytes(hashlib.sha256(key).digest()[:8], "big") % 7) - 3) * 1e-4
        return round(self.setpoint_v + ripple, 6)

    @property
    def guardband_fraction(self) -> float:
        """Current undervolt amount as a fraction of nominal."""
        return (self.nominal_v - self.setpoint_v) / self.nominal_v


@dataclass
class VoltageRegulator:
    """Software model of the on-board UCD9248 multi-rail controller."""

    rails: Dict[str, VoltageRail] = field(default_factory=dict)

    @classmethod
    def for_platform(cls, rail_names: Iterable[str] = (VCCBRAM, VCCINT, VCCAUX)) -> "VoltageRegulator":
        """Build a regulator with the standard rails at nominal voltage."""
        regulator = cls()
        for name in rail_names:
            regulator.add_rail(VoltageRail(name=name))
        return regulator

    def add_rail(self, rail: VoltageRail) -> None:
        """Register a rail with the controller."""
        if rail.name in self.rails:
            raise VoltageError(f"rail {rail.name} already registered")
        self.rails[rail.name] = rail

    def rail(self, name: str) -> VoltageRail:
        """Look up a rail by name."""
        try:
            return self.rails[name]
        except KeyError as exc:
            raise VoltageError(f"unknown rail {name!r}") from exc

    def set_voltage(self, name: str, volts: float) -> float:
        """Drive one rail to a new setpoint."""
        return self.rail(name).set(volts)

    def read_voltage(self, name: str) -> float:
        """Read one rail's output voltage."""
        return self.rail(name).read()

    def reset_all(self) -> None:
        """Return every rail to its nominal voltage (board power-on state)."""
        for rail in self.rails.values():
            rail.reset()

    def snapshot(self) -> Dict[str, float]:
        """Current setpoints of every rail, keyed by rail name."""
        return {name: rail.setpoint_v for name, rail in self.rails.items()}

    def sweep_points(
        self,
        name: str,
        start_v: float,
        stop_v: float,
        step_v: float = DEFAULT_STEP_V,
    ) -> List[float]:
        """Voltage points for a downward sweep from ``start_v`` to ``stop_v``.

        Both endpoints are included (the paper sweeps from ``Vmin`` down to
        ``Vcrash`` inclusive).  Points are quantized to the rail resolution.
        """
        if step_v <= 0:
            raise VoltageError("sweep step must be positive")
        if start_v < stop_v:
            raise VoltageError("downward sweep requires start_v >= stop_v")
        rail = self.rail(name)
        points: List[float] = []
        current = start_v
        while current > stop_v + 1e-9:
            points.append(rail.quantize(current))
            current -= step_v
        points.append(rail.quantize(stop_v))
        return points
