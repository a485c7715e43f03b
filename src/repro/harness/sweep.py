"""Voltage-sweep drivers implementing the paper's measurement loops.

Two loops matter:

* the **guardband discovery** sweep of Fig. 1: start at the nominal voltage
  and walk each rail down in 10 mV steps until the design crashes, noting the
  lowest fault-free voltage (``Vmin``) and the lowest operational voltage
  (``Vcrash``);
* the **critical-region characterization** loop of Listing 1: for every
  voltage between ``Vmin`` and ``Vcrash``, read the whole BRAM pool back 100
  times, analyse fault rate and location, record power, step down 10 mV and
  repeat.

Both are implemented here on top of :class:`repro.harness.host.HostController`
and return the typed records of :mod:`repro.harness.records`, which the
benchmarks turn into the paper's tables and figures.

Each loop exists in two search modes.  The **exhaustive** drivers walk every
grid point, exactly as the paper's Listing 1 does.  The **adaptive** variants
(:meth:`UndervoltingExperiment.discover_guardband_adaptive` and the
``cache=`` parameters of the region sweeps) find the same grid answers with
certified bisection (:mod:`repro.search`) plus a shared
:class:`~repro.search.EvalCache`, and report their evaluation cost as a
:class:`~repro.search.SearchReport`; ``docs/adaptive_search.md`` documents
the equivalence argument.

Every operating-point evaluation either mode performs goes through the
experiment's :class:`~repro.exec.ExecutionEngine` — the probing primitive
itself lives in :class:`repro.exec.SimulatedBackend`, the cache sits behind
the engine, and the pure sweep kinds (critical region, FVM) parallelize
over the engine's thread/process schedulers without changing a single bit
of output (``docs/architecture.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    BatchGridResult,
    OperatingGrid,
    cached_fault_field,
    power_curve,
    voltage_ladder,
)
from repro.core.calibration import PlatformCalibration
from repro.core.faultmodel import FaultField
from repro.core.fvm import FaultVariationMap
from repro.core.guardband import GuardbandResult, SweepObservation, detect_guardband
from repro.core.temperature import REFERENCE_TEMPERATURE_C
from repro.exec import (
    FVM,
    PROBE,
    REGION,
    EvalRequest,
    ExecError,
    ExecutionEngine,
    SimulatedBackend,
    rail_thresholds,
)
from repro.fpga.platform import FpgaChip
from repro.fpga.voltage import DEFAULT_STEP_V, VCCBRAM
from repro.search import (
    BisectionCertificate,
    BracketHint,
    EvalCache,
    PointEvaluation,
    SearchReport,
    ThresholdBisector,
    WarmStartModel,
)

from .environment import HeatChamber
from .host import HostController
from .powermeter import PowerMeter
from .records import GuardbandMeasurement, RunObservation, SweepResult, VoltageStepResult


class SweepError(RuntimeError):
    """Raised for invalid sweep configurations."""


@dataclass(frozen=True)
class GuardbandPlanOutcome:
    """Everything one completed guardband plan discovered.

    ``evaluated`` maps probed ladder indices to their evaluations (the
    sparse walk); the certificates prove the Vmin/Vcrash boundaries equal
    the exhaustive grid answers.  ``vcrash_certificate`` is ``None`` when
    no fault-free point exists (the exhaustive walk's error path).
    """

    evaluated: Dict[int, PointEvaluation]
    certificates: Tuple[BisectionCertificate, ...]
    vmin_certificate: BisectionCertificate
    vcrash_certificate: Optional[BisectionCertificate]
    n_exhaustive_equivalent: int


def guardband_plan(
    ladder: Sequence[float],
    vmin_hint: Optional[BracketHint] = None,
    vcrash_hint: Optional[BracketHint] = None,
) -> Generator[int, Tuple[PointEvaluation, bool], GuardbandPlanOutcome]:
    """The Fig. 1 adaptive discovery as a resumable probe plan.

    Yields the ladder indices that need probing, in exactly the order the
    sequential :meth:`UndervoltingExperiment.discover_guardband_adaptive`
    driver would probe them; the caller sends back ``(point,
    served_from_cache)`` for each.  The plan chains the certified Vmin
    bisection into the Vcrash bisection (sharing every evaluated point and
    anchoring the crash bracket at the lowest fault-free voltage) and
    returns a :class:`GuardbandPlanOutcome` as the ``StopIteration`` value.

    Separating the *plan* (which indices, in which order) from the *probe*
    (who answers them) keeps the search logic free of engine, cache and
    hardware concerns: the driver answers each index through the engine,
    and the plan alone decides what to probe next.
    """
    evaluated: Dict[int, PointEvaluation] = {}

    def drive(
        steps: Generator[int, Tuple[bool, bool], BisectionCertificate],
        predicate_of: Callable[[PointEvaluation], bool],
    ) -> Generator[int, Tuple[PointEvaluation, bool], BisectionCertificate]:
        # Bridge the bisector's (predicate, from_cache) protocol onto the
        # plan's (point, from_cache) protocol, memoizing evaluations so the
        # Vcrash search reuses every point the Vmin search paid for.
        try:
            index = next(steps)
            while True:
                if index in evaluated:
                    answer = (predicate_of(evaluated[index]), True)
                else:
                    point, from_cache = yield index
                    evaluated[index] = point
                    answer = (predicate_of(point), from_cache)
                index = steps.send(answer)
        except StopIteration as stop:
            return stop.value

    vmin_cert = yield from drive(
        ThresholdBisector(ladder).search_steps("vmin", vmin_hint),
        lambda point: point.fault_free,
    )
    certificates = [vmin_cert]
    if vmin_cert.boundary_index > 0:
        # The lowest fault-free point is operational, so it anchors the
        # true side of the Vcrash bracket for free (already evaluated).
        hint = vcrash_hint
        if hint is None or hint.is_cold:
            hint = BracketHint(above_v=vmin_cert.boundary_voltage_above)
        vcrash_cert: Optional[BisectionCertificate] = yield from drive(
            ThresholdBisector(ladder).search_steps("vcrash", hint),
            lambda point: point.operational,
        )
        certificates.append(vcrash_cert)
        n_exhaustive = min(vcrash_cert.boundary_index + 1, len(ladder))
    else:
        # No fault-free point exists: the exhaustive walk would still
        # have walked to the crash; mirror its error path downstream.
        vcrash_cert = None
        n_exhaustive = len(ladder)
    return GuardbandPlanOutcome(
        evaluated=evaluated,
        certificates=tuple(certificates),
        vmin_certificate=vmin_cert,
        vcrash_certificate=vcrash_cert,
        n_exhaustive_equivalent=n_exhaustive,
    )


@dataclass(frozen=True)
class AdaptiveGuardbandResult:
    """Outcome of one certified adaptive guardband discovery on one rail.

    ``measurement`` is bit-identical to what the exhaustive walk reports on
    the same grid; ``sweep`` holds only the probed voltage steps (sparse,
    descending); ``report`` carries the evaluation accounting plus the
    bisection certificates proving grid equivalence.
    """

    measurement: GuardbandMeasurement
    sweep: SweepResult
    report: SearchReport


@dataclass
class UndervoltingExperiment:
    """The end-to-end undervolting experiment on one board.

    Parameters
    ----------
    chip:
        Board under test; a fresh chip is normally built per experiment.
    fault_field:
        Fault model; defaults to the calibrated field for the platform.
    runs_per_step:
        Read-back repetitions per voltage step.  The paper uses 100; smaller
        values keep the benchmarks quick and the statistics are unaffected in
        expectation.
    """

    chip: FpgaChip
    fault_field: Optional[FaultField] = None
    host: Optional[HostController] = None
    power_meter: Optional[PowerMeter] = None
    runs_per_step: int = 100
    step_v: float = DEFAULT_STEP_V
    #: Execution engine every operating-point evaluation routes through.
    #: ``None`` builds one over a :class:`~repro.exec.SimulatedBackend`
    #: sharing this experiment's chip/host/power-meter instances; pass an
    #: engine explicitly to replay recorded evaluations or share a backend.
    engine: Optional[ExecutionEngine] = None
    #: Scheduling of the engine built when ``engine`` is ``None`` (the pure
    #: sweep kinds shard over it; results are scheduler-independent).
    scheduler: str = "serial"
    jobs: int = 1

    #: Total operating-point probes this experiment has performed (the
    #: guardband-walk unit of cost; reset it freely between measurements).
    n_point_evaluations: int = field(default=0, init=False)
    #: Evaluation accounting of the most recent sweep/discovery call.
    last_search_report: Optional[SearchReport] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.runs_per_step < 1:
            raise SweepError("runs_per_step must be at least 1")
        customized = not (
            self.fault_field is None and self.host is None and self.power_meter is None
        )
        if self.fault_field is None:
            self.fault_field = cached_fault_field(self.chip)
        if self.host is None:
            self.host = HostController(self.chip, fault_field=self.fault_field)
        if self.power_meter is None:
            self.power_meter = PowerMeter(self.chip, calibration=self.fault_field.calibration)
        if self.engine is None:
            backend = SimulatedBackend(
                chip=self.chip,
                fault_field=self.fault_field,
                host=self.host,
                power_meter=self.power_meter,
                step_v=self.step_v,
                spec_buildable=not customized,
            )
            self.engine = ExecutionEngine(backend, scheduler=self.scheduler, jobs=self.jobs)
        elif (
            self.engine.platform != self.chip.name
            or self.engine.serial != self.chip.spec.serial_number
        ):
            raise SweepError(
                f"engine backend is die {self.engine.platform}/"
                f"{self.engine.serial}, experiment chip is "
                f"{self.chip.name}/{self.chip.spec.serial_number}"
            )

    # ------------------------------------------------------------------
    @property
    def calibration(self) -> PlatformCalibration:
        """Calibration backing the fault field."""
        return self.fault_field.calibration

    # ------------------------------------------------------------------
    # Engine plumbing (the probe primitive lives in repro.exec)
    # ------------------------------------------------------------------
    def _rail_thresholds(self, rail: str) -> Tuple[float, float]:
        """Calibrated (Vmin, Vcrash) of one rail; rejects unknown rails."""
        try:
            return rail_thresholds(self.calibration, rail)
        except ExecError as exc:
            raise SweepError(str(exc)) from None

    def _engine_for(self, cache: Optional[EvalCache]) -> ExecutionEngine:
        """The engine serving one driver call.

        ``None`` (and the engine's own cache) use the experiment's engine
        directly; an explicitly passed cache gets a throwaway cache-variant
        engine sharing the same backend, scheduling and telemetry counters
        (a variant is three references and a frozen scheduler config, so
        there is nothing worth memoizing), keeping the legacy ``cache=``
        call signatures working while the cache itself lives behind the
        engine.
        """
        if cache is None or cache is self.engine.cache:
            return self.engine
        return self.engine.with_cache(cache)

    def _probe(
        self,
        engine: ExecutionEngine,
        rail: str,
        voltage: float,
        pattern: "str | int",
        probe_runs: int,
    ) -> Tuple[PointEvaluation, bool]:
        """One guardband-walk probe through the engine.

        Returns ``(point, served_from_cache)``; fresh evaluations count
        toward :attr:`n_point_evaluations` exactly as the direct probes of
        earlier revisions did.
        """
        point, from_cache = engine.evaluate(
            EvalRequest(
                kind=PROBE,
                rail=rail,
                voltage_v=voltage,
                temperature_c=self.chip.board_temperature_c,
                pattern=pattern,
                n_runs=probe_runs,
            )
        )
        if not from_cache:
            self.n_point_evaluations += 1
        return point, from_cache

    def _guardband_ladder(self, vnom_v: float) -> Tuple[float, ...]:
        """The discovery walk's voltage grid: nominal down to the 0.3 V floor."""
        voltages: List[float] = []
        voltage = vnom_v
        while voltage > 0.3:
            voltages.append(voltage)
            voltage = round(voltage - self.step_v, 4)
        return tuple(voltages)

    @staticmethod
    def _step_from_point(point: PointEvaluation, total_mbits: float) -> VoltageStepResult:
        """The harness record for one probed operating point."""
        return VoltageStepResult(
            voltage_v=point.voltage_v,
            temperature_c=point.temperature_c,
            runs=[
                RunObservation(run_index=r, fault_count=c)
                for r, c in enumerate(point.counts)
            ],
            bram_power_w=point.bram_power_w,
            operational=point.operational,
            total_mbits=total_mbits,
        )

    def _finish_guardband(
        self,
        rail: str,
        result: SweepResult,
        observations: Sequence[SweepObservation],
    ) -> GuardbandMeasurement:
        """Detect the guardband, build the measurement, reset the board."""
        cal = self.calibration
        guardband: GuardbandResult = detect_guardband(observations, nominal_v=cal.vnom_v)
        reduction = self.power_meter.bram_reduction_factor(cal.vnom_v, guardband.vmin_v)
        measurement = GuardbandMeasurement(
            platform=self.chip.name,
            rail=rail,
            nominal_v=cal.vnom_v,
            vmin_v=guardband.vmin_v,
            vcrash_v=guardband.vcrash_v,
            power_reduction_factor_at_vmin=reduction,
        )
        # Leave the board in a sane state for whatever runs next.
        self.chip.regulator.reset_all()
        self.host.recover_from_crash()
        return measurement

    # ------------------------------------------------------------------
    # Guardband discovery (Fig. 1)
    # ------------------------------------------------------------------
    def discover_guardband(
        self,
        rail: str = VCCBRAM,
        pattern: "str | int" = 0xFFFF,
        probe_runs: int = 3,
    ) -> Tuple[GuardbandMeasurement, SweepResult]:
        """Walk one rail down from nominal until the design stops operating."""
        self._rail_thresholds(rail)  # reject unknown rails before touching hardware
        self.host.initialize_brams(pattern)
        engine = self.engine
        result = SweepResult(platform=self.chip.name, rail=rail, pattern=str(pattern))
        observations: List[SweepObservation] = []
        crashed_at: Optional[float] = None
        for voltage in self._guardband_ladder(self.calibration.vnom_v):
            point, _ = self._probe(engine, rail, voltage, pattern, probe_runs)
            step = self._step_from_point(point, self.chip.brams.total_mbits)
            result.steps.append(step)
            observations.append(
                SweepObservation(
                    voltage_v=voltage,
                    fault_count=int(step.median_fault_count),
                    operational=point.operational,
                )
            )
            if not point.operational:
                crashed_at = voltage
                break

        result.crashed_at_v = crashed_at
        measurement = self._finish_guardband(rail, result, observations)
        self.last_search_report = SearchReport(
            mode="exhaustive",
            n_evaluations=len(result.steps),
            n_exhaustive_equivalent=len(result.steps),
        )
        return measurement, result

    def discover_guardband_adaptive(
        self,
        rail: str = VCCBRAM,
        pattern: "str | int" = 0xFFFF,
        probe_runs: int = 3,
        cache: Optional[EvalCache] = None,
        warm: Optional[WarmStartModel] = None,
    ) -> "AdaptiveGuardbandResult":
        """Certified-bisection version of :meth:`discover_guardband`.

        Locates the same grid Vmin/Vcrash as the exhaustive walk — the Fig. 1
        boundaries are monotone threshold crossings on the 10 mV ladder, so
        bracketing + bisection provably reproduces them (the returned
        certificates record the adjacent-bracket evidence) — while paying
        ``O(log n)`` instead of ``O(n)`` fault-field evaluations.

        ``cache`` shares operating-point evaluations across searches and
        process restarts; ``warm`` seeds the brackets from fleet quantiles
        (see :class:`~repro.search.WarmStartModel`).  Both are optional;
        without them the search runs cold and still wins by a large factor.
        """
        self._rail_thresholds(rail)  # reject unknown rails before touching hardware
        self.host.initialize_brams(pattern)
        engine = self._engine_for(cache)
        ladder = self._guardband_ladder(self.calibration.vnom_v)
        vmin_hint = warm.vmin_hint(self.chip.name, rail) if warm is not None else None
        vcrash_hint = (
            warm.vcrash_hint(self.chip.name, rail) if warm is not None else None
        )

        # Drive the shared plan sequentially: every yielded ladder index is
        # answered immediately through the engine (cache, counters, spans).
        plan = guardband_plan(ladder, vmin_hint, vcrash_hint)
        try:
            index = next(plan)
            while True:
                index = plan.send(
                    self._probe(engine, rail, ladder[index], pattern, probe_runs)
                )
        except StopIteration as stop:
            outcome: GuardbandPlanOutcome = stop.value

        return self._assemble_adaptive_result(rail, str(pattern), outcome)

    def _assemble_adaptive_result(
        self,
        rail: str,
        pattern_text: str,
        outcome: GuardbandPlanOutcome,
    ) -> "AdaptiveGuardbandResult":
        """Turn one completed guardband plan into the adaptive result.

        Reassembles the sparse walk in descending-voltage order and lets
        the ordinary detector derive the thresholds from the probed
        evidence — the certificates guarantee it sees the decisive points.
        """
        result = SweepResult(platform=self.chip.name, rail=rail, pattern=pattern_text)
        observations = []
        for index in sorted(outcome.evaluated):
            point = outcome.evaluated[index]
            step = self._step_from_point(point, self.chip.brams.total_mbits)
            result.steps.append(step)
            observations.append(
                SweepObservation(
                    voltage_v=point.voltage_v,
                    fault_count=int(step.median_fault_count),
                    operational=point.operational,
                )
            )
        if outcome.vcrash_certificate is not None:
            result.crashed_at_v = outcome.vcrash_certificate.boundary_voltage_below

        report = SearchReport(
            mode="adaptive",
            n_evaluations=sum(c.n_evaluations for c in outcome.certificates),
            n_cache_hits=sum(c.n_cache_hits for c in outcome.certificates),
            n_exhaustive_equivalent=outcome.n_exhaustive_equivalent,
            certificates=outcome.certificates,
        )
        measurement = self._finish_guardband(rail, result, observations)
        self.last_search_report = report
        return AdaptiveGuardbandResult(
            measurement=measurement, sweep=result, report=report
        )

    # ------------------------------------------------------------------
    # Critical-region characterization (Listing 1, Fig. 3)
    # ------------------------------------------------------------------
    def critical_region_sweep(
        self,
        pattern: "str | int" = 0xFFFF,
        n_runs: Optional[int] = None,
        start_v: Optional[float] = None,
        stop_v: Optional[float] = None,
        collect_per_bram: bool = False,
        temperature_c: Optional[float] = None,
        cache: Optional[EvalCache] = None,
    ) -> SweepResult:
        """Listing 1: sweep VCCBRAM from ``Vmin`` down to ``Vcrash``.

        The whole (voltage x run) grid is evaluated in one call through the
        batch engine — a single sorted-threshold query replaces the per-step
        per-BRAM loops — and the result is unpacked back into the per-step
        records the analyses consume.  The per-step rail programming and soft
        reset of Listing 1 are still issued so the simulated hardware sees
        the same command sequence as before.

        With ``cache``, previously evaluated voltage points are served from
        the :class:`~repro.search.EvalCache` and only the missing subset of
        the grid goes through the batch engine (each point's counts are a
        pure per-voltage function, so subset evaluation is bit-identical);
        ``last_search_report`` then accounts for the evaluations avoided.
        The optional per-BRAM collection always evaluates in full.
        """
        cal = self.calibration
        n_runs = self.runs_per_step if n_runs is None else n_runs
        if n_runs < 1:
            raise SweepError("n_runs must be at least 1")
        start = cal.vmin_bram_v if start_v is None else start_v
        stop = cal.vcrash_bram_v if stop_v is None else stop_v
        if stop > start:
            raise SweepError("critical-region sweep must go downward")
        if temperature_c is not None:
            self.chip.set_temperature(temperature_c)

        self.host.initialize_brams(pattern)
        voltages = self._descending_voltages(start, stop)
        temperature = self.chip.board_temperature_c
        counts = self._region_counts(voltages, temperature, pattern, n_runs, cache)
        per_bram_matrix = None
        if collect_per_bram:
            per_bram_matrix = self.fault_field.batch.per_bram_counts(
                OperatingGrid.from_axes(voltages, (temperature,)), pattern
            )[:, 0, 0, :]
        powers = power_curve(
            self.power_meter.bram_model, voltages, self.power_meter.bram_utilization
        )

        result = SweepResult(platform=self.chip.name, rail=VCCBRAM, pattern=str(pattern))
        for index, voltage in enumerate(voltages):
            self.chip.set_vccbram(voltage)
            step = VoltageStepResult(
                voltage_v=voltage,
                temperature_c=temperature,
                runs=[
                    RunObservation(run_index=r, fault_count=int(c))
                    for r, c in enumerate(counts[index, 0, :])
                ],
                per_bram_counts=(
                    tuple(int(c) for c in per_bram_matrix[index])
                    if per_bram_matrix is not None
                    else None
                ),
                bram_power_w=float(powers[index]),
                operational=True,
                total_mbits=self.chip.brams.total_mbits,
            )
            result.steps.append(step)
            self.chip.soft_reset()
        self.chip.set_vccbram(cal.vnom_v)
        return result

    def _descending_voltages(self, start: float, stop: float) -> List[float]:
        """The 10 mV (``step_v``) ladder from ``start`` down to ``stop``."""
        return list(voltage_ladder(start, stop, self.step_v))

    def _region_counts(
        self,
        voltages: Sequence[float],
        temperature: float,
        pattern: "str | int",
        n_runs: int,
        cache: Optional[EvalCache],
    ) -> np.ndarray:
        """Chip counts over a critical-region grid, through the engine.

        Returns the ``(n_voltages, 1, n_runs)`` count array the batch engine
        would produce for the whole grid; the engine serves what its cache
        holds and evaluates (possibly in parallel) only the rest.  Each
        voltage's counts depend on nothing but its own operating point, so
        subset and sharded evaluation are bit-identical to the full-grid
        call.  Sets :attr:`last_search_report`.
        """
        engine = self._engine_for(cache)
        before = engine.counters.snapshot()
        points = engine.evaluate_many(
            [
                EvalRequest(
                    kind=REGION,
                    rail=VCCBRAM,
                    voltage_v=voltage,
                    temperature_c=temperature,
                    pattern=pattern,
                    n_runs=n_runs,
                )
                for voltage in voltages
            ]
        )
        counts = np.empty((len(voltages), 1, n_runs), dtype=np.int64)
        for index, point in enumerate(points):
            counts[index, 0, :] = point.counts
        delta = engine.counters.since(before)
        self.n_point_evaluations += delta.n_backend_evaluations
        self.last_search_report = SearchReport(
            mode="exhaustive" if engine.cache is None else "adaptive",
            n_evaluations=delta.n_backend_evaluations,
            n_cache_hits=delta.n_cache_hits,
            n_exhaustive_equivalent=len(voltages),
        )
        return counts

    # ------------------------------------------------------------------
    # Batched grid evaluation (the scenario fan-out entry point)
    # ------------------------------------------------------------------
    def grid_sweep(
        self,
        voltages_v: Optional[Sequence[float]] = None,
        temperatures_c: Optional[Sequence[float]] = None,
        n_runs: Optional[int] = None,
        pattern: "str | int" = 0xFFFF,
    ) -> BatchGridResult:
        """Evaluate a whole (voltage x temperature x run) operating grid.

        This is the first-class batched API: every scenario in the cross
        product is evaluated in one NumPy pass, with no per-step hardware
        mutation — ideal for wide scenario exploration, and the path the
        batch-engine benchmark measures.  Defaults cover the critical region
        at the reference temperature with ``runs_per_step`` runs.
        """
        if voltages_v is None:
            cal = self.calibration
            voltages_v = self._descending_voltages(cal.vmin_bram_v, cal.vcrash_bram_v)
        grid = OperatingGrid.from_axes(
            voltages_v,
            temperatures_c,
            runs=self.runs_per_step if n_runs is None else n_runs,
        )
        counts = self.fault_field.batch.chip_counts(grid, pattern)
        powers = power_curve(
            self.power_meter.bram_model, grid.voltages_v, self.power_meter.bram_utilization
        )
        return BatchGridResult(
            grid=grid,
            chip_counts=counts,
            total_mbits=self.chip.brams.total_mbits,
            pattern=str(pattern),
            bram_power_w=powers,
        )

    # ------------------------------------------------------------------
    # Fault Variation Map extraction (Figs. 6 and 7)
    # ------------------------------------------------------------------
    def extract_fvm(
        self,
        pattern: "str | int" = 0xFFFF,
        voltages: Optional[Sequence[float]] = None,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        cache: Optional[EvalCache] = None,
    ) -> FaultVariationMap:
        """Build the chip's FVM by sweeping the critical region once.

        The whole (voltage x BRAM) count matrix comes out of a single batched
        per-BRAM evaluation; no per-voltage Python loop remains.  With
        ``cache``, per-voltage BRAM count vectors are stored under the
        no-run-axis convention (``n_runs = 0``) and only missing voltages are
        evaluated — bit-identical, since every voltage row is an independent
        pure function of its operating point.  Sets
        :attr:`last_search_report`.
        """
        cal = self.calibration
        if voltages is None:
            voltages = [
                round(v, 4)
                for v in self._descending_voltages(cal.vmin_bram_v, cal.vcrash_bram_v)
            ]
        engine = self._engine_for(cache)
        before = engine.counters.snapshot()
        points = engine.evaluate_many(
            [
                EvalRequest(
                    kind=FVM,
                    rail=VCCBRAM,
                    voltage_v=voltage,
                    temperature_c=temperature_c,
                    pattern=pattern,
                    n_runs=0,
                )
                for voltage in voltages
            ]
        )
        n_brams = self.chip.spec.n_brams
        matrix = np.empty((len(voltages), n_brams), dtype=np.int64)
        for index, point in enumerate(points):
            matrix[index, :] = point.per_bram_counts
        delta = engine.counters.since(before)
        self.n_point_evaluations += delta.n_backend_evaluations
        self.last_search_report = SearchReport(
            mode="exhaustive" if engine.cache is None else "adaptive",
            n_evaluations=delta.n_backend_evaluations,
            n_cache_hits=delta.n_cache_hits,
            n_exhaustive_equivalent=len(voltages),
        )
        return FaultVariationMap.from_matrix(
            platform=self.chip.name,
            floorplan=self.chip.floorplan,
            voltages_v=list(voltages),
            counts=matrix,
            bram_bits=self.chip.spec.bram_rows * self.chip.spec.bram_cols,
        )

    # ------------------------------------------------------------------
    # Temperature study (Fig. 8)
    # ------------------------------------------------------------------
    def temperature_sweep(
        self,
        temperatures_c: Sequence[float],
        pattern: "str | int" = 0xFFFF,
        n_runs: int = 5,
    ) -> Dict[float, SweepResult]:
        """Repeat the critical-region sweep at several chamber temperatures."""
        if not temperatures_c:
            raise SweepError("at least one temperature is required")
        chamber = HeatChamber(self.chip)
        results: Dict[float, SweepResult] = {}
        for target in temperatures_c:
            chamber.go_to(target)
            results[float(target)] = self.critical_region_sweep(
                pattern=pattern, n_runs=n_runs
            )
        chamber.go_to(REFERENCE_TEMPERATURE_C)
        return results
