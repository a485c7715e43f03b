"""Evaluation backends: where an operating-point question is answered.

An :class:`EvalBackend` turns one :class:`~repro.exec.request.EvalRequest`
into one :class:`~repro.search.PointEvaluation`.  Two implementations ship:

* :class:`SimulatedBackend` — the behavioural fault model.  It owns the
  point-probing logic the sweep drivers used to carry themselves (program
  the rail, count faults over the read-back runs, read the rail power) and
  answers the pure ``region``/``fvm`` kinds straight from the batch engine
  of :mod:`repro.core.batch`.  Per-voltage evaluation is bit-identical to
  the full-grid batch call because every grid point is an independent pure
  function of its own operating point (same IEEE-754 comparisons, same
  operation order — see ``docs/batch_engine.md``).

* :class:`ReplayBackend` — a recorded evaluation store.  It answers every
  request from previously persisted :class:`~repro.search.PointEvaluation`
  documents (a campaign store's per-die cache files, or a cache document
  saved with ``--record-store``) and *raises* on anything it has never
  seen, so offline re-analysis and CI runs provably never touch the fault
  model.

Backends report their identity through ``kind``/``platform``/``serial``
and, when they can be rebuilt inside a worker process from a plain tuple,
through :meth:`spec` (see :func:`backend_from_spec`).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.batch import OperatingGrid, cached_fault_field, power_curve
from repro.core.calibration import PlatformCalibration
from repro.fpga.voltage import DEFAULT_STEP_V, VCCBRAM, VCCINT
from repro.search import EvalCache, PointEvaluation, point_key

from .request import PROBE, REGION, EvalRequest, ExecError


def rail_thresholds(
    calibration: PlatformCalibration, rail: str
) -> Tuple[float, float]:
    """Calibrated (Vmin, Vcrash) of one rail; rejects unknown rails.

    The single source of truth for which rails the characterization loops
    understand — the sweep drivers translate the :class:`ExecError` into
    their own error type but do not duplicate the logic.
    """
    if rail == VCCBRAM:
        return calibration.vmin_bram_v, calibration.vcrash_bram_v
    if rail == VCCINT:
        return calibration.vmin_int_v, calibration.vcrash_int_v
    raise ExecError(f"unsupported rail {rail!r}")


@dataclass
class SimulatedBackend:
    """The behavioural fault model as an evaluation backend.

    Parameters
    ----------
    chip:
        Die under test.  ``fault_field``, ``host`` and ``power_meter``
        default to the same objects :class:`~repro.harness.sweep.\
UndervoltingExperiment` would build, and the experiment shares its
        instances with the backend so the simulated hardware sees one
        consistent command sequence.
    step_v:
        Sweep grid step; parameterizes the VCCINT observable-fault shape.
    latency_s:
        Optional per-evaluation wall-clock latency modelling what real
        hardware spends on regulator settling and serial read-back.  The
        default (``0.0``) leaves results and timings untouched; the
        execution-engine benchmark uses it to show that parallel
        scheduling overlaps exactly this latency.
    spec_buildable:
        Whether :meth:`spec` may describe this backend as rebuildable from
        ``(platform, serial)`` alone.  Set false when the caller supplied
        a custom fault field, host or power meter that a worker process
        could not reconstruct.
    """

    chip: Any
    fault_field: Optional[Any] = None
    host: Optional[Any] = None
    power_meter: Optional[Any] = None
    step_v: float = DEFAULT_STEP_V
    latency_s: float = 0.0
    spec_buildable: bool = True

    kind = "simulated"
    source: Optional[str] = None

    #: Fresh fault-model evaluations this backend has performed (all kinds).
    n_evaluations: int = field(default=0, init=False)
    #: :meth:`evaluate_batch` calls answered (each is one Python crossing
    #: however many requests it carried).
    n_kernel_batches: int = field(default=0, init=False)
    #: Memoized zero-copy export of the flat fault table (see
    #: :meth:`share_table`).
    _shared_table: Optional[Any] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # Imported here (not at module top) to keep repro.exec importable
        # below repro.harness in the layer diagram: the harness imports the
        # engine at module load, the backend only touches the harness
        # classes when a backend is actually built.
        from repro.harness.host import HostController
        from repro.harness.powermeter import PowerMeter

        if self.fault_field is None:
            self.fault_field = cached_fault_field(self.chip)
        if self.host is None:
            self.host = HostController(self.chip, fault_field=self.fault_field)
        if self.power_meter is None:
            self.power_meter = PowerMeter(
                self.chip, calibration=self.fault_field.calibration
            )
        if self.latency_s < 0:
            raise ExecError("latency_s cannot be negative")

    # ------------------------------------------------------------------
    @property
    def platform(self) -> str:
        return self.chip.name

    @property
    def serial(self) -> str:
        return self.chip.spec.serial_number

    @property
    def calibration(self) -> PlatformCalibration:
        return self.fault_field.calibration

    @property
    def n_brams(self) -> Optional[int]:
        """BRAM count of the die (used to validate cached FVM rows)."""
        return int(self.chip.spec.n_brams)

    def spec(self) -> Optional[Tuple]:
        """Plain-tuple description a worker process can rebuild from.

        ``None`` when the backend carries state (custom field, host or
        power meter) that :func:`backend_from_spec` could not reproduce;
        the engine then refuses process scheduling rather than silently
        evaluating something else.
        """
        if not self.spec_buildable:
            return None
        return ("simulated", self.platform, self.serial, self.step_v, self.latency_s)

    def share_table(self) -> Optional[Tuple]:
        """A worker spec carrying a zero-copy handle to the flat fault table.

        Exports the built :class:`~repro.core.batch.FlatFaultTable` once
        (memoized) via :mod:`repro.exec.shm` and returns :meth:`spec`
        extended with the :class:`~repro.exec.shm.SharedTableSpec`; worker
        processes attach to the mmap-backed columns instead of rebuilding
        the die's cell population.  ``None`` when the backend is not
        spec-buildable (same contract as :meth:`spec`).
        """
        spec = self.spec()
        if spec is None:
            return None
        if self._shared_table is None:
            from .shm import export_table

            self._shared_table = export_table(self.fault_field.batch.table)
        return spec + (self._shared_table,)

    def describe(self) -> Dict[str, Any]:
        """JSON-serializable identity block (part of the CLI ``backend`` doc)."""
        return {"kind": self.kind, "source": self.source}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, request: EvalRequest) -> PointEvaluation:
        """Answer one request from the fault model."""
        if self.latency_s > 0.0:
            time.sleep(self.latency_s)
        self.n_evaluations += 1
        if request.kind == PROBE:
            return self._evaluate_probe(request)
        if request.kind == REGION:
            return self._evaluate_region(request)
        return self._evaluate_fvm(request)

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> List[PointEvaluation]:
        """Answer a whole batch with one kernel call per request group.

        Pure ``region``/``fvm`` requests are grouped by
        ``(kind, rail, pattern, n_runs, temperature)``; each group becomes
        one multi-voltage :class:`OperatingGrid` answered by a single
        ``chip_counts``/``per_bram_counts`` kernel call, so a fleet ladder
        of N voltages crosses the Python/NumPy boundary once instead of N
        times.  Results are bit-identical to per-request :meth:`evaluate`
        because every grid point is an independent pure function of its own
        operating point (same IEEE-754 comparisons, same operation order).
        ``probe`` requests — which mutate the simulated hardware — fall back
        to the sequential per-point protocol in request order.

        Latency modelling is aggregate: one sleep of ``latency_s`` per
        request, taken up front, so wall-clock accounting matches a
        sequential evaluation of the same batch.
        """
        requests = list(requests)
        if not requests:
            return []
        if self.latency_s > 0.0:
            time.sleep(self.latency_s * len(requests))
        self.n_evaluations += len(requests)
        self.n_kernel_batches += 1
        results: List[Optional[PointEvaluation]] = [None] * len(requests)
        groups: Dict[Tuple, List[int]] = {}
        for index, request in enumerate(requests):
            if request.kind == PROBE:
                results[index] = self._evaluate_probe(request)
                continue
            key = (
                request.kind,
                request.rail,
                request.pattern_text,
                request.n_runs,
                request.temperature_c,
            )
            groups.setdefault(key, []).append(index)
        for key, indices in groups.items():
            group = [requests[i] for i in indices]
            if key[0] == REGION:
                points = self._batch_region(group)
            else:
                points = self._batch_fvm(group)
            for index, point in zip(indices, points):
                results[index] = point
        return results  # type: ignore[return-value]

    def _batch_region(self, requests: List[EvalRequest]) -> List[PointEvaluation]:
        """One ``chip_counts`` kernel call answering a same-shape region group."""
        first = requests[0]
        if first.rail != VCCBRAM:
            raise ExecError("region requests characterize the VCCBRAM rail")
        grid = OperatingGrid.from_axes(
            tuple(request.voltage_v for request in requests),
            (first.temperature_c,),
            runs=first.n_runs,
        )
        counts = self.fault_field.batch.chip_counts(grid, first.pattern)
        power = power_curve(
            self.power_meter.bram_model,
            grid.voltages_v,
            self.power_meter.bram_utilization,
        )
        return [
            PointEvaluation(
                voltage_v=request.voltage_v,
                temperature_c=request.temperature_c,
                rail=VCCBRAM,
                pattern=request.pattern_text,
                n_runs=request.n_runs,
                counts=tuple(int(c) for c in counts[i, 0, :]),
                operational=True,
                bram_power_w=float(power[i]),
            )
            for i, request in enumerate(requests)
        ]

    def _batch_fvm(self, requests: List[EvalRequest]) -> List[PointEvaluation]:
        """One ``per_bram_counts`` kernel call answering a whole FVM ladder."""
        first = requests[0]
        if first.rail != VCCBRAM:
            raise ExecError("fvm requests characterize the VCCBRAM rail")
        grid = OperatingGrid.from_axes(
            tuple(request.voltage_v for request in requests),
            (first.temperature_c,),
        )
        rows = self.fault_field.batch.per_bram_counts(grid, first.pattern)
        return [
            PointEvaluation(
                voltage_v=request.voltage_v,
                temperature_c=request.temperature_c,
                rail=VCCBRAM,
                pattern=request.pattern_text,
                n_runs=0,
                counts=(),
                operational=True,
                per_bram_counts=tuple(int(c) for c in rows[i, 0, 0, :]),
            )
            for i, request in enumerate(requests)
        ]

    def _int_fault_count(self, vccint_v: float) -> int:
        """Observable logic faults when undervolting VCCINT (Fig. 1b).

        The paper does not characterize VCCINT faults bit-by-bit (the rail
        feeds LUTs, DSPs and routing, which cannot be read back like BRAMs);
        it only locates the SAFE/CRITICAL/CRASH boundaries.  The reproduction
        models the observable fault count with the same exponential-onset
        shape anchored at the calibrated VCCINT thresholds.
        """
        cal = self.calibration
        if vccint_v >= cal.vmin_int_v:
            return 0
        window = cal.vmin_int_v - cal.vcrash_int_v
        slope = math.log(500.0) / window
        return int(round(2.0 * math.exp(slope * (cal.vmin_int_v - vccint_v) - slope * self.step_v)))

    def _evaluate_probe(self, request: EvalRequest) -> PointEvaluation:
        """One guardband-walk operating point on one rail.

        Performs exactly the per-step work of the Fig. 1 discovery loop —
        program the rail, count faults over ``n_runs`` read-back passes
        while the design operates, read the rail power — so the exhaustive
        walk and the bisection probes produce bit-identical data at every
        voltage either of them visits.  Faults are counted for the
        requested pattern and temperature, whatever the BRAMs last held.
        Mutates the simulated hardware; the engine therefore never
        schedules probes onto workers.
        """
        _vmin_true, vcrash_true = rail_thresholds(self.calibration, request.rail)
        voltage = request.voltage_v
        operational = voltage >= vcrash_true - 1e-9
        if request.rail == VCCBRAM:
            self.chip.set_vccbram(max(voltage, 0.40))
            counts = []
            if operational:
                self.host.device.check_operational()
                counts = [
                    int(c)
                    for c in self.fault_field.counts_over_runs(
                        self.chip.vccbram,
                        request.n_runs,
                        temperature_c=request.temperature_c,
                        pattern=request.pattern,
                    )
                ]
        else:
            self.chip.set_vccint(max(voltage, 0.40))
            counts = [self._int_fault_count(voltage)] * request.n_runs if operational else []
        return PointEvaluation(
            voltage_v=voltage,
            temperature_c=request.temperature_c,
            rail=request.rail,
            pattern=request.pattern_text,
            n_runs=request.n_runs,
            counts=tuple(counts),
            operational=operational,
            bram_power_w=(
                self.power_meter.read_bram_power_w(voltage)
                if request.rail == VCCBRAM
                else None
            ),
        )

    def _evaluate_region(self, request: EvalRequest) -> PointEvaluation:
        """One Listing 1 voltage step: chip counts over the run axis + power."""
        if request.rail != VCCBRAM:
            raise ExecError("region requests characterize the VCCBRAM rail")
        grid = OperatingGrid.from_axes(
            (request.voltage_v,), (request.temperature_c,), runs=request.n_runs
        )
        counts = self.fault_field.batch.chip_counts(grid, request.pattern)
        power = power_curve(
            self.power_meter.bram_model,
            grid.voltages_v,
            self.power_meter.bram_utilization,
        )
        return PointEvaluation(
            voltage_v=request.voltage_v,
            temperature_c=request.temperature_c,
            rail=VCCBRAM,
            pattern=request.pattern_text,
            n_runs=request.n_runs,
            counts=tuple(int(c) for c in counts[0, 0, :]),
            operational=True,
            bram_power_w=float(power[0]),
        )

    def _evaluate_fvm(self, request: EvalRequest) -> PointEvaluation:
        """One FVM voltage row: the per-BRAM count vector (no run axis)."""
        if request.rail != VCCBRAM:
            raise ExecError("fvm requests characterize the VCCBRAM rail")
        grid = OperatingGrid.from_axes((request.voltage_v,), (request.temperature_c,))
        row = self.fault_field.batch.per_bram_counts(grid, request.pattern)[0, 0, 0, :]
        return PointEvaluation(
            voltage_v=request.voltage_v,
            temperature_c=request.temperature_c,
            rail=VCCBRAM,
            pattern=request.pattern_text,
            n_runs=0,
            counts=(),
            operational=True,
            per_bram_counts=tuple(int(c) for c in row),
        )


@dataclass
class ReplayBackend:
    """Serve evaluations bit-identically from a recorded store.

    ``entries`` maps :func:`repro.search.point_key` tuples to recorded
    :class:`~repro.search.PointEvaluation` objects.  A request the store
    has never seen raises :class:`ExecError` — replay never silently falls
    back to recomputation, which is the property that makes it usable as a
    no-fault-model CI backend.
    """

    platform: str
    serial: str
    entries: Dict[Tuple, PointEvaluation] = field(default_factory=dict)
    source: Optional[str] = None

    kind = "replay"

    #: Requests this backend has served from the store.
    n_served: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    @property
    def n_brams(self) -> Optional[int]:
        """Unknown for replayed data; cached-row validation is skipped."""
        return None

    def __len__(self) -> int:
        return len(self.entries)

    def spec(self) -> Optional[Tuple]:
        """Replay stores are in-memory; process scheduling is unsupported."""
        return None

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "source": self.source}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_cache(cls, cache: EvalCache, source: Optional[str] = None) -> "ReplayBackend":
        """Wrap an in-memory evaluation cache as a replay store."""
        backend = cls(platform=cache.platform, serial=cache.serial, source=source)
        for evaluation in cache:
            backend.record(evaluation)
        return backend

    @classmethod
    def open(
        cls,
        path: "str | Path",
        platform: Optional[str] = None,
        serial: Optional[str] = None,
    ) -> "ReplayBackend":
        """Open a recorded store from disk.

        ``path`` may be a single evaluation-cache JSON document (written by
        ``--record-store`` or :meth:`repro.campaign.store.CampaignStore.\
save_eval_cache`) or a campaign store directory, whose ``cache/``
        subdirectory is searched for the die matching ``platform``/
        ``serial`` (or for the single recorded die when neither is given).
        Both campaign store layouts work: the v1 per-unit store and the v2
        segmented columnar store (``store_version: 2``) share the same
        ``cache/<die>.json`` convention, and migration carries the caches
        over verbatim.
        """
        path = Path(path)
        if path.is_dir():
            candidates = sorted((path / "cache").glob("*.json")) or sorted(
                path.glob("*.json")
            )
            if not candidates:
                raise ExecError(f"no recorded evaluation caches under {path}")
            dies = []
            for candidate in candidates:
                try:
                    cache = _load_cache_document(candidate)
                except ExecError:
                    continue  # manifests and unit markers are not caches
                dies.append((candidate, cache))
            matching = [
                (file, cache)
                for file, cache in dies
                if (platform is None or cache.platform == platform)
                and (serial is None or cache.serial == serial)
            ]
            if not matching:
                known = ", ".join(
                    f"{cache.platform}/{cache.serial}" for _file, cache in dies
                ) or "none"
                raise ExecError(
                    f"store {path} holds no recorded die matching "
                    f"{platform or '*'}/{serial or '*'} (recorded: {known})"
                )
            if len(matching) > 1:
                raise ExecError(
                    f"store {path} holds {len(matching)} recorded dies; "
                    "name the die with platform and serial"
                )
            file, cache = matching[0]
            return cls.from_cache(cache, source=str(file))
        cache = _load_cache_document(path)
        if platform is not None and cache.platform != platform:
            raise ExecError(
                f"recorded store {path} holds die {cache.platform}/{cache.serial}, "
                f"not platform {platform}"
            )
        if serial is not None and cache.serial != serial:
            raise ExecError(
                f"recorded store {path} holds die {cache.platform}/{cache.serial}, "
                f"not serial {serial}"
            )
        return cls.from_cache(cache, source=str(path))

    def record(self, evaluation: PointEvaluation) -> PointEvaluation:
        """Add one recorded evaluation (idempotent for identical points)."""
        key = point_key(
            self.platform,
            self.serial,
            evaluation.rail,
            evaluation.voltage_v,
            evaluation.temperature_c,
            evaluation.pattern,
            evaluation.n_runs,
        )
        self.entries[key] = evaluation
        return evaluation

    # ------------------------------------------------------------------
    def _key_for(self, request: EvalRequest) -> Tuple:
        return point_key(
            self.platform,
            self.serial,
            request.rail,
            request.voltage_v,
            request.temperature_c,
            request.pattern_text,
            request.n_runs,
        )

    def _raise_missing(self, request: EvalRequest) -> None:
        raise ExecError(
            f"replay store{f' {self.source}' if self.source else ''} has no "
            f"recorded evaluation for {self.platform}/{self.serial} "
            f"{request.rail} at {request.voltage_v:.3f} V, "
            f"{request.temperature_c:.1f} degC, pattern "
            f"{request.pattern_text}, {request.n_runs} runs"
        )

    def evaluate(self, request: EvalRequest) -> PointEvaluation:
        """Serve one request from the store; missing points are an error."""
        found = self.entries.get(self._key_for(request))
        if found is None:
            self._raise_missing(request)
        self.n_served += 1
        return found

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> List[PointEvaluation]:
        """Serve a whole batch in one index probe over the store.

        One Python-level call answers every request; any unrecorded point
        raises the same :class:`ExecError` as :meth:`evaluate` (replay
        never recomputes), and nothing is counted as served on a miss.
        """
        requests = list(requests)
        entries = self.entries
        found = [entries.get(self._key_for(request)) for request in requests]
        for request, point in zip(requests, found):
            if point is None:
                self._raise_missing(request)
        self.n_served += len(requests)
        return found  # type: ignore[return-value]


def _load_cache_document(path: Path) -> EvalCache:
    """Read an evaluation-cache JSON document strictly (replay is loud)."""
    if not path.exists():
        raise ExecError(f"no recorded evaluation store at {path}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ExecError(f"recorded store {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or "entries" not in document:
        raise ExecError(f"{path} is not an evaluation-cache document")
    try:
        cache = EvalCache.from_document(document)
    except (KeyError, TypeError, ValueError) as exc:
        raise ExecError(
            f"recorded store {path} holds malformed evaluations ({exc!r}); "
            "re-record it"
        ) from exc
    if not cache.entries and document.get("entries"):
        raise ExecError(
            f"recorded store {path} was written by an incompatible cache "
            "version; re-record it"
        )
    return cache


def backend_from_spec(spec: Tuple) -> SimulatedBackend:
    """Rebuild a worker-side backend from :meth:`SimulatedBackend.spec`.

    Accepts both the plain 5-tuple of :meth:`SimulatedBackend.spec` and the
    extended form of :meth:`SimulatedBackend.share_table`, whose trailing
    :class:`~repro.exec.shm.SharedTableSpec` lets the worker attach to the
    parent's mmap-exported fault table instead of rebuilding it.
    """
    from repro.fpga.platform import FpgaChip

    if not spec or spec[0] != "simulated":
        raise ExecError(f"cannot rebuild a backend from spec {spec!r}")
    if len(spec) == 6:
        _kind, platform, serial, step_v, latency_s, shared = spec
    else:
        _kind, platform, serial, step_v, latency_s = spec
        shared = None
    chip = FpgaChip.build(platform, serial=serial)
    backend = SimulatedBackend(chip=chip, step_v=step_v, latency_s=latency_s)
    if shared is not None:
        from .shm import attach_table

        backend.fault_field.batch.adopt_table(attach_table(shared))
    return backend


__all__ = [
    "ReplayBackend",
    "SimulatedBackend",
    "backend_from_spec",
    "rail_thresholds",
]
