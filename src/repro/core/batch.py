"""Vectorized batch evaluation engine for the undervolting fault model.

The scalar API of :mod:`repro.core.faultmodel` answers one question at a
time: "how many faults does this chip show at voltage V, temperature T, run
r?".  Every figure of the paper, however, is a *grid* of such questions — 50
voltage steps x 100 runs for Table II, a voltage x temperature matrix for
Fig. 8, a voltage x BRAM matrix for the Fault Variation Maps of Figs. 6/7.
Looping the scalar path over those grids costs one Python iteration per BRAM
per operating point, which is exactly the kind of interpreter-bound hot loop
the ROADMAP wants gone.

This module evaluates whole operating grids in single NumPy broadcasts:

* :class:`OperatingGrid` describes a (voltage x temperature x run) cross
  product;
* :class:`FlatFaultTable` flattens every BRAM's vulnerable-cell profile into
  chip-wide arrays, built once per field and reused for every query;
* :class:`BatchFaultEvaluator` computes chip-level counts with a single
  ``searchsorted`` over the sorted failure voltages (``O((N + G) log N)`` for
  ``N`` cells and ``G`` grid points instead of ``O(N * G)``), and per-BRAM
  count matrices with one scattered histogram plus a reverse cumulative sum;
* :func:`cached_fault_field` memoizes constructed fields per chip so repeated
  sweeps on the same board reuse the variation field and cell profiles;
* :func:`power_curve` evaluates a calibrated rail power model over a whole
  voltage axis at once.

Equivalence guarantee: the batched paths perform the *same* IEEE-754
comparisons as the scalar paths (``failure_voltage > effective_voltage`` with
the effective voltage assembled in the same operation order), so batched
counts are bit-identical to the scalar API — not merely statistically close.
``tests/core/test_batch.py`` asserts this property across voltages,
temperatures, patterns and ablation configs, and ``docs/batch_engine.md``
documents the argument.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.fpga.bram import data_pattern

from .power import RailPowerModel
from .temperature import REFERENCE_TEMPERATURE_C

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fpga.platform import FpgaChip

    from .calibration import PlatformCalibration
    from .faultmodel import FaultField, FaultModelConfig
    from .variation import VariationConfig


class BatchError(ValueError):
    """Raised for invalid operating grids or batch queries."""


# ----------------------------------------------------------------------
# Operating grids
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OperatingGrid:
    """A (voltage x temperature x run) cross product of operating points.

    Attributes
    ----------
    voltages_v:
        VCCBRAM setpoints, one per grid row.  Any order is allowed; results
        follow the order given here.
    temperatures_c:
        Board temperatures folded in through the ITD equivalent-voltage
        shift.  Defaults to the paper's 50 degC reference.
    run_indices:
        Run numbers whose deterministic supply ripple is applied.  ``None``
        reproduces the scalar API's ``run_index=None`` (no ripple term); the
        run axis then has length 1.
    """

    voltages_v: Tuple[float, ...]
    temperatures_c: Tuple[float, ...] = (REFERENCE_TEMPERATURE_C,)
    run_indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "voltages_v", tuple(float(v) for v in self.voltages_v))
        object.__setattr__(self, "temperatures_c", tuple(float(t) for t in self.temperatures_c))
        if self.run_indices is not None:
            # Any integer is a valid run index: the per-run ripple generator
            # is seeded deterministically for negatives too, matching the
            # scalar API's contract.
            object.__setattr__(self, "run_indices", tuple(int(r) for r in self.run_indices))
        if not self.voltages_v:
            raise BatchError("an operating grid needs at least one voltage")
        if not self.temperatures_c:
            raise BatchError("an operating grid needs at least one temperature")
        if self.run_indices is not None and not self.run_indices:
            raise BatchError("run_indices must be None or non-empty")

    # ------------------------------------------------------------------
    @classmethod
    def from_axes(
        cls,
        voltages_v: Iterable[float],
        temperatures_c: Optional[Iterable[float]] = None,
        runs: "int | Iterable[int] | None" = None,
    ) -> "OperatingGrid":
        """Build a grid from axis values; ``runs`` may be a count or indices."""
        temperatures = (
            (REFERENCE_TEMPERATURE_C,) if temperatures_c is None else tuple(temperatures_c)
        )
        if runs is None:
            run_indices: Optional[Tuple[int, ...]] = None
        elif isinstance(runs, int):
            if runs < 1:
                raise BatchError("run count must be at least 1")
            run_indices = tuple(range(runs))
        else:
            run_indices = tuple(runs)
        return cls(tuple(voltages_v), temperatures, run_indices)

    @classmethod
    def single(
        cls,
        voltage_v: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        run_index: Optional[int] = None,
    ) -> "OperatingGrid":
        """A 1x1x1 grid matching one scalar-API operating point."""
        runs = None if run_index is None else (int(run_index),)
        return cls((float(voltage_v),), (float(temperature_c),), runs)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        """Result shape ``(n_voltages, n_temperatures, n_runs)``."""
        n_runs = 1 if self.run_indices is None else len(self.run_indices)
        return (len(self.voltages_v), len(self.temperatures_c), n_runs)

    @property
    def n_points(self) -> int:
        """Total number of operating points in the grid."""
        v, t, r = self.shape
        return v * t * r


def voltage_ladder(start_v: float, stop_v: float, step_v: float) -> Tuple[float, ...]:
    """The descending voltage ladder from ``start_v`` down to ``stop_v``.

    The paper's sweeps walk rails down in fixed (10 mV) steps; every driver
    that needs the ladder — sweep harness, ICBP FVM extraction — builds it
    here so the rounding and stop-tolerance conventions cannot drift apart.
    """
    if step_v <= 0:
        raise BatchError("step_v must be positive")
    if stop_v > start_v:
        raise BatchError("voltage ladders go downward")
    voltages = []
    voltage = start_v
    while voltage >= stop_v - 1e-9:
        voltages.append(voltage)
        voltage = round(voltage - step_v, 4)
    return tuple(voltages)


# ----------------------------------------------------------------------
# Flattened fault profiles
# ----------------------------------------------------------------------
@dataclass
class FlatFaultTable:
    """Every vulnerable bitcell of a chip, flattened into chip-wide arrays.

    The scalar fault model stores one :class:`~repro.core.faultmodel.\
BramFaultProfile` per BRAM; batched evaluation wants the whole population in
    four parallel arrays so a single comparison covers the chip.  Rows are
    grouped by BRAM in ascending index order (the concatenation order), which
    the per-BRAM histogram path relies on only through ``bram_ids``.
    """

    n_brams: int
    bram_ids: np.ndarray
    cols: np.ndarray
    thresholds_v: np.ndarray
    one_to_zero: np.ndarray

    @classmethod
    def from_field(cls, fault_field: "FaultField") -> "FlatFaultTable":
        """Flatten (and thereby materialize) every BRAM profile of a field."""
        profiles = fault_field.profiles()
        sizes = [p.n_vulnerable for p in profiles]
        return cls(
            n_brams=len(profiles),
            bram_ids=np.repeat(np.arange(len(profiles), dtype=np.int64), sizes),
            cols=np.concatenate([p.cols for p in profiles]) if profiles else np.array([], dtype=np.int64),
            thresholds_v=np.concatenate([p.failure_voltages_v for p in profiles]),
            one_to_zero=np.concatenate([p.one_to_zero for p in profiles]),
        )

    @property
    def n_cells(self) -> int:
        """Total number of vulnerable bitcells on the chip."""
        return len(self.thresholds_v)

    def observable_mask(self, pattern_bits: Optional[np.ndarray]) -> np.ndarray:
        """Which cells produce an *observable* flip for a stored pattern.

        Mirrors the scalar ``_firing_mask`` data sensitivity exactly: a
        ``1 -> 0`` cell is observable only where the pattern stores a 1, a
        ``0 -> 1`` cell only where it stores a 0.  ``None`` reproduces the
        scalar no-pattern convention (an implicit all-ones image), keeping
        only the ``1 -> 0`` cells.
        """
        if pattern_bits is None:
            return self.one_to_zero.copy()
        stored = pattern_bits[self.cols].astype(bool)
        return np.where(self.one_to_zero, stored, ~stored)

    def cells_per_bram(self) -> np.ndarray:
        """Vulnerable-cell count of every BRAM (zero for never-faulty ones)."""
        return np.bincount(self.bram_ids, minlength=self.n_brams).astype(np.int64)


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------
class BatchFaultEvaluator:
    """Batched fault-count queries bound to one :class:`FaultField`.

    The evaluator owns the field's :class:`FlatFaultTable` plus small
    per-pattern caches (sorted observable thresholds), so repeated sweeps with
    the same pattern pay the sort once.
    """

    def __init__(self, fault_field: "FaultField") -> None:
        self.field = fault_field
        self._table: Optional[FlatFaultTable] = None
        self._sorted_thresholds: Dict[bytes, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def table(self) -> FlatFaultTable:
        """The flattened cell table (built lazily, then reused)."""
        if self._table is None:
            self._table = FlatFaultTable.from_field(self.field)
        return self._table

    def adopt_table(self, table: FlatFaultTable) -> None:
        """Install a pre-built table (e.g. an mmap-attached shared one).

        Used by :mod:`repro.exec.shm` so worker processes skip profile
        materialization entirely.  Per-pattern sorted-threshold caches are
        dropped because they derive from the table.
        """
        self._table = table
        self._sorted_thresholds.clear()

    @staticmethod
    def _pattern_bits(pattern: "str | int | None") -> Optional[np.ndarray]:
        if pattern is None:
            return None
        return data_pattern(pattern, rows=1)[0].astype(np.uint8)

    def _sorted_observable(self, pattern: "str | int | None") -> np.ndarray:
        """Sorted failure voltages of the cells observable under ``pattern``."""
        bits = self._pattern_bits(pattern)
        key = b"<no-pattern>" if bits is None else bits.tobytes()
        cached = self._sorted_thresholds.get(key)
        if cached is None:
            mask = self.table.observable_mask(bits)
            cached = np.sort(self.table.thresholds_v[mask])
            self._sorted_thresholds[key] = cached
        return cached

    def sorted_observable_thresholds(self, pattern: "str | int | None") -> np.ndarray:
        """Sorted observable failure voltages for a pattern (cached; do not
        mutate): the exact array :meth:`chip_counts` bisects."""
        return self._sorted_observable(pattern)

    # ------------------------------------------------------------------
    def effective_voltages(self, grid: OperatingGrid) -> np.ndarray:
        """Effective bitcell voltage at every grid point, shape ``grid.shape``.

        Assembled in the same operation order as the scalar path —
        ``(V + itd_shift) + ripple`` — so each grid point carries the exact
        float the scalar ``effective_voltage`` would return.
        """
        f = self.field
        voltages = np.asarray(grid.voltages_v, dtype=float)
        shifts = np.asarray([f.itd.voltage_shift(t) for t in grid.temperatures_c], dtype=float)
        eff = voltages[:, None, None] + shifts[None, :, None]
        if grid.run_indices is not None and f.config.ripple_enabled:
            ripples = np.asarray([f.ripple_v(r) for r in grid.run_indices], dtype=float)
            eff = eff + ripples[None, None, :]
        else:
            eff = np.broadcast_to(eff, grid.shape).copy()
        return eff

    def chip_counts(
        self, grid: OperatingGrid, pattern: "str | int | None" = 0xFFFF
    ) -> np.ndarray:
        """Chip-level observable fault count at every grid point.

        One ``searchsorted`` of the grid's effective voltages into the sorted
        observable failure voltages: a cell fires iff its threshold is
        strictly above the effective voltage, so the count at a point is the
        number of thresholds to the right of it.
        """
        thresholds = self._sorted_observable(pattern)
        eff = self.effective_voltages(grid)
        return (thresholds.size - np.searchsorted(thresholds, eff, side="right")).astype(
            np.int64
        )

    def chip_rates_per_mbit(
        self, grid: OperatingGrid, pattern: "str | int | None" = 0xFFFF
    ) -> np.ndarray:
        """Chip-level fault rate (faults per Mbit) at every grid point."""
        return self.chip_counts(grid, pattern) / self.field.chip.brams.total_mbits

    def per_bram_counts(
        self, grid: OperatingGrid, pattern: "str | int | None" = 0xFFFF
    ) -> np.ndarray:
        """Per-BRAM observable fault counts, shape ``grid.shape + (n_brams,)``.

        For each observable cell, ``searchsorted`` against the *sorted grid*
        gives the number of grid points the cell fires at; a scattered
        histogram over (BRAM, insertion position) followed by a reverse
        cumulative sum then yields every (grid point, BRAM) count without a
        Python loop over either axis.
        """
        table = self.table
        observable = table.observable_mask(self._pattern_bits(pattern))
        bram_ids = table.bram_ids[observable]
        thresholds = table.thresholds_v[observable]

        eff = self.effective_voltages(grid).reshape(-1)
        n_points = eff.size
        order = np.argsort(eff, kind="stable")
        sorted_eff = eff[order]

        # Cell fires at sorted grid position g iff sorted_eff[g] < threshold,
        # i.e. at positions 0 .. pos-1 with pos = searchsorted(..., "left").
        pos = np.searchsorted(sorted_eff, thresholds, side="left")
        hist = np.zeros((table.n_brams, n_points + 1), dtype=np.int64)
        np.add.at(hist, (bram_ids, pos), 1)
        # tail[b, p] = number of cells of BRAM b with pos >= p, so the count
        # at sorted position g (cells with pos > g) is tail[b, g + 1].
        tail = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]
        counts = np.empty((table.n_brams, n_points), dtype=np.int64)
        counts[:, order] = tail[:, 1:]
        return counts.T.reshape(grid.shape + (table.n_brams,))


# ----------------------------------------------------------------------
# Batched sweep results
# ----------------------------------------------------------------------
@dataclass
class BatchGridResult:
    """Fault counts (and optionally power) over a full operating grid.

    This is the raw, array-shaped product of a batched sweep; the harness
    offers :meth:`repro.harness.UndervoltingExperiment.grid_sweep` to produce
    it and converters back to the record types where the legacy per-step
    shape is wanted.
    """

    grid: OperatingGrid
    chip_counts: np.ndarray
    total_mbits: float
    pattern: str = "0xffff"
    bram_power_w: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.chip_counts.shape != self.grid.shape:
            raise BatchError(
                f"counts shape {self.chip_counts.shape} does not match grid {self.grid.shape}"
            )
        if self.total_mbits <= 0:
            raise BatchError("total_mbits must be positive")

    def rates_per_mbit(self) -> np.ndarray:
        """Fault rate at every grid point, shape ``(V, T, R)``."""
        return self.chip_counts / self.total_mbits

    def median_counts(self) -> np.ndarray:
        """Median fault count over the run axis, shape ``(V, T)``."""
        return np.median(self.chip_counts, axis=2)

    def median_rates_per_mbit(self) -> np.ndarray:
        """Median fault rate over the run axis, shape ``(V, T)``."""
        return self.median_counts() / self.total_mbits

    def run_std_per_mbit(self) -> np.ndarray:
        """Run-to-run rate standard deviation (Table II), shape ``(V, T)``."""
        return np.std(self.chip_counts, axis=2) / self.total_mbits


# ----------------------------------------------------------------------
# Vectorized rail power
# ----------------------------------------------------------------------
def power_curve(
    model: RailPowerModel, voltages_v: Sequence[float], utilization: float = 1.0
) -> np.ndarray:
    """Rail power at every voltage of an axis, in one exponential broadcast.

    Thin alias for :meth:`RailPowerModel.power_array`, kept here so the sweep
    engine's vectorized surface lives in one namespace; raises the power
    model's own :class:`~repro.core.power.PowerModelError` on bad input.
    """
    return model.power_array(voltages_v, utilization=utilization)


# ----------------------------------------------------------------------
# Memoized per-chip fault fields
# ----------------------------------------------------------------------
#: LRU bound: each entry pins its chip (including the BRAM pool's bit
#: images, ~34 MB for a filled VC707) plus the field's profiles and flat
#: table, so the cap is kept small — one slot per studied board with room
#: for ablation variants.  ``clear_fault_field_cache`` frees everything.
_FIELD_CACHE: "OrderedDict[Tuple, FaultField]" = OrderedDict()
_FIELD_CACHE_MAX = 8
#: Guards the cache's LRU bookkeeping: thread-scheduled campaign shards and
#: execution-engine workers build fields for different dies concurrently.
_FIELD_CACHE_LOCK = threading.Lock()


def cached_fault_field(
    chip: "FpgaChip",
    calibration: Optional["PlatformCalibration"] = None,
    variation_config: Optional["VariationConfig"] = None,
    config: Optional["FaultModelConfig"] = None,
) -> "FaultField":
    """A memoized :class:`FaultField` for one chip instance.

    Building a field is cheap, but its lazily-built variation weights, cell
    profiles and flat table are not; the harness, accelerator and benchmarks
    all construct fields for the same chip repeatedly.  This cache keys on
    the chip *instance* plus the (hashable, frozen) configuration objects, so
    repeated sweeps on one board share a single field and therefore every
    derived cache.  The cached field keeps its chip alive, which in turn
    keeps the identity key stable; the cache holds at most
    ``_FIELD_CACHE_MAX`` entries, evicting least-recently-used ones.
    """
    from .faultmodel import FaultField

    key = (id(chip), calibration, variation_config, config)
    with _FIELD_CACHE_LOCK:
        cached = _FIELD_CACHE.get(key)
        if cached is not None and cached.chip is chip:
            _FIELD_CACHE.move_to_end(key)
            return cached
    built = FaultField(
        chip, calibration=calibration, variation_config=variation_config, config=config
    )
    with _FIELD_CACHE_LOCK:
        _FIELD_CACHE[key] = built
        if len(_FIELD_CACHE) > _FIELD_CACHE_MAX:
            _FIELD_CACHE.popitem(last=False)
    return built


def clear_fault_field_cache() -> None:
    """Drop every memoized fault field (mainly for tests and long sessions)."""
    with _FIELD_CACHE_LOCK:
        _FIELD_CACHE.clear()
