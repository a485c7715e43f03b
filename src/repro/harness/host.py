"""Host controller: initialize BRAMs, read them back, analyse faults.

Fig. 2 of the paper splits the setup into a hardware side (the FPGA design
that dumps BRAM contents over a serial link) and a software side (the host
that programs the regulator over PMBUS, initializes the BRAMs, and analyses
the returned data).  The read-back interface is verified to be reliable at
any ``VCCBRAM`` — only the BRAM *contents* are affected by undervolting.

:class:`HostController` is that software side.  It owns the chip, the fault
field that corrupts read-back data below ``Vmin``, and the PMBUS adapter; the
sweep drivers in :mod:`repro.harness.sweep` are written on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.batch import cached_fault_field
from repro.core.faultmodel import FaultField, FaultRecord
from repro.fpga.bitstream import ConfiguredDevice, CrashError, Design, compile_design
from repro.fpga.platform import FpgaChip
from repro.fpga.voltage import VCCBRAM

from .pmbus import PmbusAdapter


class HostError(RuntimeError):
    """Raised for invalid host-controller operations."""


@dataclass
class HostController:
    """Software host of the undervolting setup (Fig. 2, right-hand side).

    Parameters
    ----------
    chip:
        Board under test.
    fault_field:
        Fault model corrupting read-back data; defaults to the calibrated
        field for the chip's platform.
    device:
        Configured-device wrapper tracking DONE/crash state; defaults to one
        whose crash voltage comes from the fault field's calibration.
    """

    chip: FpgaChip
    fault_field: Optional[FaultField] = None
    device: Optional[ConfiguredDevice] = None
    adapter: Optional[PmbusAdapter] = None
    current_pattern: "str | int" = 0xFFFF

    def __post_init__(self) -> None:
        if self.fault_field is None:
            self.fault_field = cached_fault_field(self.chip)
        if self.adapter is None:
            self.adapter = PmbusAdapter(self.chip)
        if self.device is None:
            self.device = ConfiguredDevice(
                chip=self.chip,
                crash_voltage_v=self.fault_field.calibration.vcrash_bram_v,
            )
        if self.device.bitstream is None:
            # The BRAM read-back design of Fig. 2: a serial bridge plus the
            # read-back logic.  It claims no BRAM blocks of its own (it dumps
            # the whole pool directly) and a token amount of logic.
            readback = Design(name="bram-readback", lut_used=0, ff_used=0, dsp_used=0)
            self.device.program(compile_design(readback, self.chip))

    # ------------------------------------------------------------------
    # Rail control (PMBUS path)
    # ------------------------------------------------------------------
    def set_vccbram(self, volts: float) -> float:
        """Program the BRAM rail through the PMBUS adapter."""
        return self.adapter.vout_command(VCCBRAM, volts)

    def undervolt_step(self, step_v: float = 0.010) -> float:
        """Lower VCCBRAM by one sweep step (Listing 1, line 9)."""
        return self.set_vccbram(self.chip.vccbram - step_v)

    @property
    def temperature_c(self) -> float:
        """Current on-board temperature."""
        return self.chip.board_temperature_c

    # ------------------------------------------------------------------
    # BRAM initialization and read-back
    # ------------------------------------------------------------------
    def initialize_brams(self, pattern: "str | int" = 0xFFFF) -> None:
        """Fill every BRAM with an initial data pattern (host -> FPGA)."""
        self.chip.brams.fill_all(pattern)
        self.current_pattern = pattern

    def read_bram(self, bram_index: int, run_index: Optional[int] = None) -> np.ndarray:
        """Read one BRAM back through the (reliable) serial interface.

        The returned image is the stored content corrupted by whatever the
        fault field dictates at the current voltage and temperature.
        """
        self.device.check_operational()
        stored = self.chip.brams[bram_index].dump()
        return self.fault_field.observed_image(
            bram_index,
            stored,
            self.chip.vccbram,
            temperature_c=self.temperature_c,
            run_index=run_index,
        )

    def analyze_bram(self, bram_index: int, run_index: Optional[int] = None) -> List[FaultRecord]:
        """Read one BRAM and return the faulty bitcells (rate and location)."""
        observed = self.read_bram(bram_index, run_index=run_index)
        stored = self.chip.brams[bram_index].dump()
        records: List[FaultRecord] = []
        rows, cols = np.nonzero(stored != observed)
        for row, col in zip(rows, cols):
            records.append(
                FaultRecord(
                    bram_index=bram_index,
                    row=int(row),
                    col=int(col),
                    expected_bit=int(stored[row, col]),
                    observed_bit=int(observed[row, col]),
                )
            )
        return records

    def count_chip_faults(self, run_index: Optional[int] = None) -> int:
        """Count faults across the whole BRAM pool for the current pattern.

        Uses the fault field's vectorized counting path (equivalent to reading
        every BRAM one-by-one and diffing, which the bit-level tests verify on
        samples) so that 100-run sweeps over thousands of BRAMs stay fast.
        """
        self.device.check_operational()
        return self.fault_field.chip_fault_count(
            self.chip.vccbram,
            temperature_c=self.temperature_c,
            run_index=run_index,
            pattern=self.current_pattern,
        )

    def count_chip_faults_over_runs(self, n_runs: int) -> np.ndarray:
        """Chip-level fault counts for ``n_runs`` read-back passes.

        One batched query over the run axis at the current operating point —
        equivalent to calling :meth:`count_chip_faults` once per run index.
        """
        self.device.check_operational()
        return self.fault_field.counts_over_runs(
            self.chip.vccbram,
            n_runs,
            temperature_c=self.temperature_c,
            pattern=self.current_pattern,
        )

    def per_bram_fault_counts(self, run_index: Optional[int] = None) -> np.ndarray:
        """Fault count of every BRAM at the current operating point."""
        self.device.check_operational()
        return self.fault_field.per_bram_counts(
            self.chip.vccbram,
            temperature_c=self.temperature_c,
            run_index=run_index,
            pattern=self.current_pattern,
        )

    def is_operational(self) -> bool:
        """Whether the configured design still responds (DONE asserted)."""
        try:
            self.device.check_operational()
        except CrashError:
            return False
        return True

    def recover_from_crash(self) -> None:
        """Power-cycle and reprogram after driving the board below Vcrash."""
        self.adapter.operation_soft_off()
        self.adapter.operation_on()
        self.device.recover()
