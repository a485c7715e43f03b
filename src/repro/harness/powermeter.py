"""Power measurement: power meter plus XPE-style breakdown.

The paper measures total board power with an external power meter and uses
the Xilinx Power Estimator (XPE) to attribute the BRAM share at nominal
voltage; the power results in Fig. 3 and Fig. 10 combine the two.  The
reproduction's power meter reads the calibrated rail power models at the
chip's current setpoints, and the XPE-style estimator produces the same kind
of per-component breakdown the paper reports for the NN accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.calibration import PlatformCalibration, get_calibration
from repro.core.power import RailPowerModel, bram_power_model, vccint_power_model
from repro.fpga.platform import FpgaChip


class PowerMeterError(RuntimeError):
    """Raised for invalid power-measurement requests."""


@dataclass
class PowerMeter:
    """Board-level power meter bound to one chip.

    Parameters
    ----------
    chip:
        Board under test.
    calibration:
        Platform calibration providing the BRAM rail model; defaults to the
        published calibration for the chip's platform.
    vccint_nominal_w:
        Nominal VCCINT power assumed for the board's current design.  The
        BRAM undervolting experiments leave VCCINT at nominal, so this only
        sets the scale of "rest of chip" numbers.
    bram_utilization:
        Fraction of the BRAM pool actually used by the configured design;
        1.0 for the read-back test design that touches every BRAM.
    """

    chip: FpgaChip
    calibration: Optional[PlatformCalibration] = None
    vccint_nominal_w: float = 2.0
    bram_utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.calibration is None:
            self.calibration = get_calibration(self.chip.spec)
        if not 0.0 <= self.bram_utilization <= 1.0:
            raise PowerMeterError("bram_utilization must be in [0, 1]")
        self._bram_model: RailPowerModel = bram_power_model(self.calibration)
        self._int_model: RailPowerModel = vccint_power_model(self.calibration, self.vccint_nominal_w)

    # ------------------------------------------------------------------
    def read_bram_power_w(self, voltage_v: Optional[float] = None) -> float:
        """BRAM rail power at the chip's current (or an explicit) VCCBRAM."""
        voltage = self.chip.vccbram if voltage_v is None else voltage_v
        return self._bram_model.power_w(voltage, utilization=self.bram_utilization)

    def read_vccint_power_w(self, voltage_v: Optional[float] = None) -> float:
        """VCCINT rail power at the chip's current (or an explicit) VCCINT."""
        voltage = self.chip.vccint if voltage_v is None else voltage_v
        return self._int_model.power_w(voltage)

    def read_total_power_w(self) -> float:
        """Total measured power: both studied on-chip rails."""
        return self.read_bram_power_w() + self.read_vccint_power_w()

    def bram_reduction_factor(self, from_v: float, to_v: float) -> float:
        """How many times less BRAM power is drawn at ``to_v`` than ``from_v``."""
        return self._bram_model.reduction_factor(from_v, to_v, utilization=self.bram_utilization)

    @property
    def bram_model(self) -> RailPowerModel:
        """The underlying calibrated BRAM rail model."""
        return self._bram_model


@dataclass
class XpePowerEstimate:
    """XPE-style breakdown of the on-chip power of one configured design."""

    components_w: Dict[str, float] = field(default_factory=dict)

    @property
    def total_w(self) -> float:
        """Total on-chip power across all components."""
        return sum(self.components_w.values())

    def fraction(self, component: str) -> float:
        """Share of the total drawn by one component."""
        total = self.total_w
        if total == 0:
            return 0.0
        return self.components_w.get(component, 0.0) / total

    def as_percentages(self) -> Dict[str, float]:
        """Breakdown normalized to percentages (Fig. 10's stacked bars)."""
        total = self.total_w
        if total == 0:
            return {name: 0.0 for name in self.components_w}
        return {name: 100.0 * value / total for name, value in self.components_w.items()}
