"""Bitcell-level undervolting fault model.

This is the centre of the reproduction.  On silicon, lowering ``VCCBRAM``
below ``Vmin`` slows the BRAM bitcells and sense paths until some cells no
longer read correctly; which cells fail, and at which voltage, is fixed by the
chip's process variation, which is why the paper finds the faults
*deterministic*, *location-stable*, overwhelmingly *1 -> 0*, and *non-uniform*
across BRAMs, with hotter silicon failing less (ITD).

The model assigns every vulnerable bitcell a **failure voltage** ``Vf``:
the cell misreads whenever the effective supply voltage (actual voltage plus
the ITD temperature shift plus a tiny per-run supply ripple) is below ``Vf``.
The population of vulnerable cells is constructed deterministically from the
chip seed so that:

* the chip-level fault rate follows the calibrated exponential
  ``R(V) = R_crash * exp(-k (V - Vcrash))`` between ``Vmin`` and ``Vcrash``;
* per-BRAM counts follow the heavy-tailed process-variation weights of
  :class:`repro.core.variation.ProcessVariationField`;
* 99.9 % of vulnerable cells fail as ``1 -> 0`` and the rest as ``0 -> 1``;
* re-building the field for the same chip yields the identical map, while a
  different serial number (die) yields an unrelated map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.fpga.bram import data_pattern
from repro.fpga.platform import FpgaChip

from .calibration import PlatformCalibration, get_calibration
from .temperature import REFERENCE_TEMPERATURE_C, ItdModel
from .variation import ProcessVariationField, VariationConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .batch import BatchFaultEvaluator


class FaultModelError(ValueError):
    """Raised for invalid fault-model queries."""


@dataclass(frozen=True)
class FaultModelConfig:
    """Feature switches of the fault model, used by the ablation benchmarks.

    Attributes
    ----------
    temperature_enabled:
        Apply the ITD voltage shift.  Disabling reproduces a naive model in
        which temperature has no effect on the fault rate.
    ripple_enabled:
        Apply the per-run supply ripple that creates the small run-to-run
        spread of Table II.  Disabling makes every run bit-identical.
    die_to_die_enabled:
        Seed the variation field from the board serial number.  Disabling
        seeds it from the platform name only, so two boards of the same part
        number become indistinguishable (the ablation for Fig. 7).
    spatial_variation_enabled:
        Keep the within-die systematic component.  Disabling spreads faults
        uniformly over BRAMs (the ablation for Figs. 5 and 6).
    """

    temperature_enabled: bool = True
    ripple_enabled: bool = True
    die_to_die_enabled: bool = True
    spatial_variation_enabled: bool = True


@dataclass
class BramFaultProfile:
    """The vulnerable bitcells of one BRAM and their failure voltages."""

    bram_index: int
    rows: np.ndarray
    cols: np.ndarray
    failure_voltages_v: np.ndarray
    one_to_zero: np.ndarray

    def __post_init__(self) -> None:
        lengths = {len(self.rows), len(self.cols), len(self.failure_voltages_v), len(self.one_to_zero)}
        if len(lengths) != 1:
            raise FaultModelError("profile arrays must have equal length")

    @property
    def n_vulnerable(self) -> int:
        """Number of vulnerable bitcells in this BRAM."""
        return len(self.rows)

    def is_empty(self) -> bool:
        """Whether this BRAM never faults at any studied voltage."""
        return self.n_vulnerable == 0


@dataclass(frozen=True)
class FaultRecord:
    """One observed bit fault: where it happened and which way it flipped."""

    bram_index: int
    row: int
    col: int
    expected_bit: int
    observed_bit: int

    @property
    def is_one_to_zero(self) -> bool:
        """Whether this fault is a ``1 -> 0`` flip."""
        return self.expected_bit == 1 and self.observed_bit == 0


class FaultField:
    """Deterministic undervolting fault field for one chip.

    Parameters
    ----------
    chip:
        The chip instance whose BRAMs this field corrupts.
    calibration:
        Platform calibration; defaults to the published calibration for the
        chip's platform.
    variation_config:
        Override of the within-die variation knobs; by default derived from
        the calibration (never-faulty fraction and log-normal sigma).
    config:
        Feature switches, see :class:`FaultModelConfig`.
    """

    def __init__(
        self,
        chip: FpgaChip,
        calibration: Optional[PlatformCalibration] = None,
        variation_config: Optional[VariationConfig] = None,
        config: Optional[FaultModelConfig] = None,
    ) -> None:
        self.chip = chip
        self.calibration = calibration or get_calibration(chip.spec)
        self.config = config or FaultModelConfig()
        if variation_config is None:
            variation_config = VariationConfig(
                never_faulty_fraction=self.calibration.never_faulty_fraction,
                lognormal_sigma=self.calibration.vulnerability_sigma,
                spatial_strength=0.6 if self.config.spatial_variation_enabled else 0.0,
                spatial_components=4 if self.config.spatial_variation_enabled else 0,
            )
        if self.config.die_to_die_enabled:
            seed = chip.seed
        else:
            # Ablation: seed from the part number only, so two boards with the
            # same chip model share one variation map.  hashlib keeps the seed
            # stable across processes (unlike the built-in str hash).
            import hashlib

            digest = hashlib.sha256(chip.spec.chip_model.encode()).digest()
            seed = int.from_bytes(digest[:8], "big")
        self.variation = ProcessVariationField(chip.floorplan, seed=seed, config=variation_config)
        self.itd = ItdModel(
            v_per_degc=self.calibration.itd_v_per_degc if self.config.temperature_enabled else 0.0
        )
        self._profiles: Dict[int, BramFaultProfile] = {}
        self._rng_root = np.random.default_rng(seed ^ 0x5EEDF00D)
        self._per_bram_seeds = self._rng_root.integers(0, 2**63 - 1, size=chip.spec.n_brams)
        self._batch = None

    @property
    def batch(self) -> "BatchFaultEvaluator":
        """Vectorized grid evaluator over this field (built lazily, cached).

        All aggregate queries below (:meth:`per_bram_counts`,
        :meth:`chip_fault_count`, :meth:`counts_over_runs`, ...) delegate to
        it; use it directly to evaluate whole (voltage x temperature x run)
        grids in one call — see :mod:`repro.core.batch`.
        """
        if self._batch is None:
            from .batch import BatchFaultEvaluator

            self._batch = BatchFaultEvaluator(self)
        return self._batch

    # ------------------------------------------------------------------
    # Calibrated scalars
    # ------------------------------------------------------------------
    @property
    def threshold_margin_v(self) -> float:
        """How far below ``Vcrash`` the failure-voltage population extends.

        The margin gives the per-run supply ripple symmetric headroom at
        ``Vcrash``: without it, a negative ripple could never add faults and
        the run-to-run spread of Table II would be biased low.
        """
        return 6.0 * self.calibration.ripple_sigma_v

    @property
    def total_vulnerable_cells(self) -> float:
        """Expected number of vulnerable bitcells on the whole chip.

        Slightly larger than ``R_crash * Mbits`` because the population
        extends :attr:`threshold_margin_v` below ``Vcrash``; the cells in that
        margin only ever fire through ripple.
        """
        base = self.calibration.fault_rate_at_vcrash_per_mbit * self.chip.brams.total_mbits
        return base * math.exp(self.slope_per_v * self.threshold_margin_v)

    @property
    def slope_per_v(self) -> float:
        """Exponential slope ``k`` of the calibrated rate curve."""
        return self.calibration.exponential_slope_per_v

    def effective_voltage(
        self,
        vccbram_v: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        run_index: Optional[int] = None,
    ) -> float:
        """Voltage the bitcells effectively see for a (V, T, run) operating point."""
        voltage = self.itd.effective_voltage(vccbram_v, temperature_c)
        if run_index is not None and self.config.ripple_enabled:
            voltage += self.ripple_v(run_index)
        return voltage

    def ripple_v(self, run_index: int) -> float:
        """Deterministic per-run supply ripple (Table II's run-to-run spread)."""
        if not self.config.ripple_enabled:
            return 0.0
        rng = np.random.default_rng((self.variation.seed * 1_000_003 + int(run_index)) & (2**63 - 1))
        return float(rng.normal(0.0, self.calibration.ripple_sigma_v))

    def analytic_rate_per_mbit(
        self, vccbram_v: float, temperature_c: float = REFERENCE_TEMPERATURE_C
    ) -> float:
        """Closed-form chip-level fault rate for pattern ``0xFFFF``."""
        if not self.config.temperature_enabled:
            temperature_c = REFERENCE_TEMPERATURE_C
        return self.calibration.rate_per_mbit(vccbram_v, temperature_c)

    # ------------------------------------------------------------------
    # Profile construction
    # ------------------------------------------------------------------
    def profile(self, bram_index: int) -> BramFaultProfile:
        """Vulnerable-cell profile of one BRAM (deterministic, cached)."""
        if not 0 <= bram_index < self.chip.spec.n_brams:
            raise FaultModelError(f"BRAM index {bram_index} out of range")
        cached = self._profiles.get(bram_index)
        if cached is not None:
            return cached
        profile = self._build_profile(bram_index)
        self._profiles[bram_index] = profile
        return profile

    def _build_profile(self, bram_index: int) -> BramFaultProfile:
        cal = self.calibration
        expected = self.variation.weight_of(bram_index) * self.total_vulnerable_cells
        rng = np.random.default_rng(int(self._per_bram_seeds[bram_index]))

        # Deterministic rounding of the expected cell count.
        n_cells = int(math.floor(expected))
        if rng.random() < (expected - n_cells):
            n_cells += 1

        n_bits = self.chip.spec.bram_rows * self.chip.spec.bram_cols
        n_cells = min(n_cells, n_bits)
        if n_cells == 0:
            empty = np.array([], dtype=np.int64)
            return BramFaultProfile(
                bram_index=bram_index,
                rows=empty,
                cols=empty.copy(),
                failure_voltages_v=np.array([], dtype=float),
                one_to_zero=np.array([], dtype=bool),
            )

        flat = rng.choice(n_bits, size=n_cells, replace=False)
        rows = flat // self.chip.spec.bram_cols
        cols = flat % self.chip.spec.bram_cols

        # Failure voltages by inverse transform of the exponential rate curve,
        # spanning [Vcrash - margin, Vmin) so ripple stays symmetric at Vcrash.
        k = cal.exponential_slope_per_v
        floor_v = cal.vcrash_bram_v - self.threshold_margin_v
        u_min = math.exp(-k * (cal.vmin_bram_v - floor_v))
        u = rng.uniform(u_min, 1.0, size=n_cells)
        thresholds = floor_v - np.log(u) / k

        one_to_zero = rng.random(n_cells) < cal.one_to_zero_fraction
        return BramFaultProfile(
            bram_index=bram_index,
            rows=rows.astype(np.int64),
            cols=cols.astype(np.int64),
            failure_voltages_v=thresholds,
            one_to_zero=one_to_zero,
        )

    def profiles(self, bram_indices: Optional[Iterable[int]] = None) -> List[BramFaultProfile]:
        """Profiles for several BRAMs (all of them by default)."""
        if bram_indices is None:
            bram_indices = range(self.chip.spec.n_brams)
        return [self.profile(i) for i in bram_indices]

    # ------------------------------------------------------------------
    # Fault queries
    # ------------------------------------------------------------------
    @staticmethod
    def _pattern_bits(pattern: "str | int") -> np.ndarray:
        """Column-indexed stored bit for a repeating 16-bit pattern."""
        image = data_pattern(pattern, rows=1)
        return image[0].astype(np.uint8)

    def _firing_mask(
        self,
        profile: BramFaultProfile,
        effective_v: float,
        stored_bits: Optional[np.ndarray],
        pattern_bits: Optional[np.ndarray],
    ) -> np.ndarray:
        """Boolean mask of profile cells that produce an observable fault."""
        if profile.is_empty():
            return np.zeros(0, dtype=bool)
        active = profile.failure_voltages_v > effective_v
        if not active.any():
            return active
        if stored_bits is not None:
            stored = stored_bits[profile.rows, profile.cols].astype(bool)
        elif pattern_bits is not None:
            stored = pattern_bits[profile.cols].astype(bool)
        else:
            stored = np.ones(profile.n_vulnerable, dtype=bool)
        observable = np.where(profile.one_to_zero, stored, ~stored)
        return active & observable

    def fault_sites(
        self,
        bram_index: int,
        vccbram_v: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        run_index: Optional[int] = None,
        stored_bits: Optional[np.ndarray] = None,
        pattern: "str | int | None" = 0xFFFF,
    ) -> List[FaultRecord]:
        """Observable faults in one BRAM at an operating point.

        ``stored_bits`` (a full bit image) takes precedence over ``pattern``;
        with neither, every active vulnerable cell is reported as if it held
        the value it is sensitive to.
        """
        profile = self.profile(bram_index)
        effective_v = self.effective_voltage(vccbram_v, temperature_c, run_index)
        pattern_bits = self._pattern_bits(pattern) if (stored_bits is None and pattern is not None) else None
        mask = self._firing_mask(profile, effective_v, stored_bits, pattern_bits)
        records: List[FaultRecord] = []
        for idx in np.flatnonzero(mask):
            expected = 1 if profile.one_to_zero[idx] else 0
            records.append(
                FaultRecord(
                    bram_index=bram_index,
                    row=int(profile.rows[idx]),
                    col=int(profile.cols[idx]),
                    expected_bit=expected,
                    observed_bit=1 - expected,
                )
            )
        return records

    def count_bram_faults(
        self,
        bram_index: int,
        vccbram_v: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        run_index: Optional[int] = None,
        stored_bits: Optional[np.ndarray] = None,
        pattern: "str | int | None" = 0xFFFF,
    ) -> int:
        """Number of observable faults in one BRAM at an operating point."""
        profile = self.profile(bram_index)
        effective_v = self.effective_voltage(vccbram_v, temperature_c, run_index)
        pattern_bits = self._pattern_bits(pattern) if (stored_bits is None and pattern is not None) else None
        return int(self._firing_mask(profile, effective_v, stored_bits, pattern_bits).sum())

    def per_bram_counts(
        self,
        vccbram_v: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        run_index: Optional[int] = None,
        pattern: "str | int" = 0xFFFF,
        bram_indices: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Observable fault count per BRAM for a repeating-word pattern."""
        if bram_indices is not None:
            # Subset queries stay on the lazy per-profile path so they only
            # materialize (and range-check) the BRAMs actually asked for.
            indices = list(bram_indices)
            effective_v = self.effective_voltage(vccbram_v, temperature_c, run_index)
            pattern_bits = self._pattern_bits(pattern)
            counts = np.zeros(len(indices), dtype=np.int64)
            for slot, index in enumerate(indices):
                profile = self.profile(index)
                counts[slot] = int(
                    self._firing_mask(profile, effective_v, None, pattern_bits).sum()
                )
            return counts
        from .batch import OperatingGrid

        grid = OperatingGrid.single(vccbram_v, temperature_c, run_index)
        return self.batch.per_bram_counts(grid, pattern)[0, 0, 0]

    def chip_fault_count(
        self,
        vccbram_v: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        run_index: Optional[int] = None,
        pattern: "str | int" = 0xFFFF,
    ) -> int:
        """Total observable faults across the whole chip."""
        from .batch import OperatingGrid

        grid = OperatingGrid.single(vccbram_v, temperature_c, run_index)
        return int(self.batch.chip_counts(grid, pattern)[0, 0, 0])

    def chip_fault_rate_per_mbit(
        self,
        vccbram_v: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        run_index: Optional[int] = None,
        pattern: "str | int" = 0xFFFF,
    ) -> float:
        """Observable fault rate in faults per Mbit, the paper's reporting unit."""
        count = self.chip_fault_count(vccbram_v, temperature_c, run_index, pattern)
        return count / self.chip.brams.total_mbits

    def counts_over_runs(
        self,
        vccbram_v: float,
        n_runs: int,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        pattern: "str | int" = 0xFFFF,
    ) -> np.ndarray:
        """Chip-level fault counts for ``n_runs`` consecutive runs.

        Fully vectorized through the batch engine: one sorted-threshold
        ``searchsorted`` covers every run at once (see
        :meth:`repro.core.batch.BatchFaultEvaluator.chip_counts`).
        """
        if n_runs <= 0:
            raise FaultModelError("n_runs must be positive")
        from .batch import OperatingGrid

        grid = OperatingGrid(
            voltages_v=(vccbram_v,),
            temperatures_c=(temperature_c,),
            run_indices=tuple(range(n_runs)),
        )
        return self.batch.chip_counts(grid, pattern)[0, 0, :]

    # ------------------------------------------------------------------
    # Read-back corruption
    # ------------------------------------------------------------------
    def observed_image(
        self,
        bram_index: int,
        stored_bits: np.ndarray,
        vccbram_v: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        run_index: Optional[int] = None,
    ) -> np.ndarray:
        """Corrupted read-back image of one BRAM holding ``stored_bits``."""
        stored_bits = np.asarray(stored_bits, dtype=np.uint8)
        expected_shape = (self.chip.spec.bram_rows, self.chip.spec.bram_cols)
        if stored_bits.shape != expected_shape:
            raise FaultModelError(
                f"stored image shape {stored_bits.shape} does not match BRAM geometry {expected_shape}"
            )
        profile = self.profile(bram_index)
        effective_v = self.effective_voltage(vccbram_v, temperature_c, run_index)
        mask = self._firing_mask(profile, effective_v, stored_bits, None)
        observed = stored_bits.copy()
        for idx in np.flatnonzero(mask):
            row, col = int(profile.rows[idx]), int(profile.cols[idx])
            observed[row, col] = 0 if profile.one_to_zero[idx] else 1
        return observed

    def corrupt_words(
        self,
        bram_index: int,
        words: Sequence[int],
        vccbram_v: float,
        start_row: int = 0,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        run_index: Optional[int] = None,
    ) -> List[int]:
        """Corrupt a run of 16-bit words stored at ``start_row`` of one BRAM.

        This is the path the NN accelerator uses: weight words live at known
        BRAM rows and the fault field flips the bits the hardware would flip.
        """
        cols = self.chip.spec.bram_cols
        profile = self.profile(bram_index)
        effective_v = self.effective_voltage(vccbram_v, temperature_c, run_index)
        corrupted = list(int(w) for w in words)
        if profile.is_empty():
            return corrupted
        active = profile.failure_voltages_v > effective_v
        for idx in np.flatnonzero(active):
            row = int(profile.rows[idx])
            offset = row - start_row
            if not 0 <= offset < len(corrupted):
                continue
            bit_position = cols - 1 - int(profile.cols[idx])
            word = corrupted[offset]
            stored_bit = (word >> bit_position) & 1
            if profile.one_to_zero[idx] and stored_bit == 1:
                corrupted[offset] = word & ~(1 << bit_position)
            elif not profile.one_to_zero[idx] and stored_bit == 0:
                corrupted[offset] = word | (1 << bit_position)
        return corrupted

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def never_faulty_fraction(self) -> float:
        """Fraction of BRAMs without a single vulnerable cell."""
        cells = self.batch.table.cells_per_bram()
        return float(np.mean(cells == 0))

    def one_to_zero_fraction(self) -> float:
        """Fraction of vulnerable cells that fail ``1 -> 0`` (paper: 99.9 %)."""
        table = self.batch.table
        if table.n_cells == 0:
            return 1.0
        return float(table.one_to_zero.sum()) / table.n_cells
