"""Discrete-event fleet simulation of closed-loop undervolted serving.

One :class:`FleetSimulator` drives a fleet of chips through a
:class:`~repro.runtime.workload.WorkloadTrace`: every step, each board's
heat chamber ramps toward the trace's ambient setpoint, the
:class:`~repro.runtime.governor.VoltageGovernor` reads the board
temperature over PMBUS and actuates ``VCCBRAM``, the fleet splits the
step's inference arrivals, and each chip serves its share on the compiled
NN accelerator (default or ICBP placement) at whatever effective voltage
its bitcells see.

The fault path is bit-accurate to the offline pipeline but vectorized for
runtime scale: at simulator construction each chip's compiled placement is
flattened into a :class:`ServingModel` — the sorted failure voltages of
every *weight-observable* bitcell, i.e. exactly the cells
:meth:`repro.core.faultmodel.FaultField.corrupt_words` would flip given the
stored weight words — so a step's weight-fault count is one
``searchsorted`` instead of a per-BRAM Python loop, the same
sorted-threshold trick :class:`repro.core.batch.BatchFaultEvaluator` uses
for offline grids.  Rail power over the whole voltage path is evaluated in
one :func:`repro.core.batch.power_curve` broadcast per chip after the loop.
A thousand-step, 16-chip simulation completes in seconds, and the produced
:class:`~repro.runtime.telemetry.TelemetryLog` is a pure function of
(bundle, network, trace, policy, seed): replays are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.accelerator import NnAccelerator
from repro.accelerator.icbp import IcbpFlow, PlacementPolicy
from repro.core.batch import cached_fault_field, power_curve
from repro.core.faultmodel import FaultField
from repro.fpga.platform import FpgaChip
from repro.harness.environment import HeatChamber
from repro.harness.pmbus import PmbusAdapter
from repro.harness.powermeter import PowerMeter
from repro.nn.inference import QuantizedNetwork

from .characterization import GovernorBundle
from .governor import GovernorPolicy, VoltageGovernor, build_policy
from .telemetry import TelemetryLog
from .workload import WorkloadTrace


class SimulationError(RuntimeError):
    """Raised for inconsistent fleet-simulation configurations."""


#: The two simulation cores ``FleetSimulator.run`` dispatches between:
#: ``"event"`` (the discrete-event core, the default) and ``"stepped"``
#: (the original per-step loop, kept as the bit-identity oracle).
SIM_CORES: Tuple[str, ...] = ("event", "stepped")


def validate_core(core: str) -> str:
    """Normalize and validate a simulation-core knob value."""
    normalized = str(core).strip().lower()
    if normalized not in SIM_CORES:
        raise SimulationError(
            f"unknown simulation core {core!r}; expected one of {SIM_CORES}"
        )
    return normalized


def compile_accelerator(
    chip: FpgaChip,
    fault_field: FaultField,
    network: QuantizedNetwork,
    icbp: bool,
    compile_seed: int,
) -> NnAccelerator:
    """Compile one die's accelerator (ICBP or default placement).

    Module-level so the event core's process-pool workers can rebuild a
    die's serving model from its identity with the exact placement the
    simulator construction used.
    """
    if not icbp:
        return NnAccelerator(
            chip=chip,
            network=network,
            fault_field=fault_field,
            compile_seed=compile_seed,
        )
    # The last-layer ICBP constraint needs only the FVM, not the
    # vulnerability analysis, so the flow runs without a dataset here.
    flow = IcbpFlow(chip=chip, network=network, dataset=None, fault_field=fault_field)
    accelerator, _protected = flow.build_accelerator(
        PlacementPolicy.LAST_LAYER, compile_seed=compile_seed
    )
    return accelerator


@dataclass
class ServingModel:
    """The voltage-sensitivity of one compiled accelerator, flattened.

    ``thresholds_v`` holds the sorted failure voltages of every vulnerable
    bitcell that (a) lies inside a physical BRAM the placement assigned a
    weight segment to, (b) falls on a row holding a stored weight word and
    (c) would produce an *observable* flip for the bit actually stored
    there (a ``1 -> 0`` cell under a stored 1, a ``0 -> 1`` cell under a
    stored 0) — the exact cells ``corrupt_words`` flips.  A step's
    weight-fault count is then ``#{thresholds > effective_v}``, one
    ``searchsorted`` per query or one broadcast over a whole path.
    """

    thresholds_v: np.ndarray
    total_weight_bits: int
    bram_utilization: float

    @classmethod
    def from_accelerator(cls, accelerator: NnAccelerator) -> "ServingModel":
        """Flatten one compiled accelerator against its chip's fault field."""
        fault_field: FaultField = accelerator.fault_field
        cols = accelerator.chip.spec.bram_cols
        thresholds: List[np.ndarray] = []
        total_bits = 0
        for layer in accelerator.network.layers:
            flat = layer.flat_words()
            for segment in accelerator.mapping.segments_of_layer(layer.index):
                physical = accelerator.placement.site_of(segment.logical_name)
                words = flat[segment.word_slice()]
                total_bits += len(words) * layer.fmt.total_bits
                profile = fault_field.profile(physical)
                if profile.is_empty():
                    continue
                in_range = profile.rows < len(words)
                if not in_range.any():
                    continue
                rows = profile.rows[in_range]
                bit_positions = cols - 1 - profile.cols[in_range]
                stored = (words[rows] >> bit_positions) & 1
                observable = np.where(
                    profile.one_to_zero[in_range], stored == 1, stored == 0
                )
                thresholds.append(profile.failure_voltages_v[in_range][observable])
        merged = (
            np.sort(np.concatenate(thresholds))
            if thresholds
            else np.array([], dtype=float)
        )
        utilization = accelerator.mapping.bram_utilization_fraction(
            accelerator.chip.spec.n_brams
        )
        return cls(
            thresholds_v=merged,
            total_weight_bits=total_bits,
            bram_utilization=utilization,
        )

    def fault_bits(self, effective_v: "float | np.ndarray") -> "int | np.ndarray":
        """Flipped weight bits at an effective voltage (scalar or array)."""
        counts = self.thresholds_v.size - np.searchsorted(
            self.thresholds_v, effective_v, side="right"
        )
        if np.isscalar(effective_v):
            return int(counts)
        return counts.astype(np.int64)


@dataclass
class FleetChip:
    """Runtime state of one board in the simulated fleet."""

    chip: FpgaChip
    fault_field: FaultField
    adapter: PmbusAdapter
    serving: ServingModel
    power_meter: PowerMeter
    #: Deterministic per-step supply ripple, precomputed for the trace.
    ripple_v: np.ndarray
    crash_steps_left: int = 0
    faults_last_step: int = 0

    @property
    def key(self) -> Tuple[str, str]:
        """The (platform, serial) identity of the die."""
        return (self.chip.spec.name, self.chip.spec.serial_number)


class FleetSimulator:
    """Serve a workload trace on a characterized fleet under one governor.

    Parameters
    ----------
    bundle:
        Per-die characterizations (defines the fleet membership).
    network:
        Quantized network every chip accelerates; weights are mapped onto
        each die's own placement.
    trace:
        The workload to serve (requests and ambient per step).
    icbp:
        Compile each accelerator with the ICBP last-layer constraint
        (``True``, the paper's mitigation) or the default placement.
    capacity_rps:
        Per-chip serving capacity in requests per second; arrivals beyond
        the fleet's aggregate capacity (or routed to crashed chips) miss
        their SLO.
    crash_recovery_steps:
        Steps a crashed board spends rebooting at nominal voltage.
    compile_seed:
        Place-and-route seed shared by the fleet's compilations.
    core:
        Default simulation core :meth:`run` uses: ``"event"`` (the
        discrete-event core of :mod:`repro.runtime.event_core`) or
        ``"stepped"`` (the original per-step reference loop).  The two are
        bit-identical — same telemetry digest — for every input; the event
        core just scales wall-clock with *activity* instead of
        ``fleet x steps``.

    Building the simulator pays the expensive, policy-independent work once
    (chips, fault fields, compiled placements, serving models); each
    :meth:`run` then replays the same fleet under a different policy.
    """

    def __init__(
        self,
        bundle: GovernorBundle,
        network: QuantizedNetwork,
        trace: WorkloadTrace,
        icbp: bool = True,
        capacity_rps: float = 150.0,
        crash_recovery_steps: int = 3,
        compile_seed: int = 0,
        core: str = "event",
    ) -> None:
        if len(bundle) == 0:
            raise SimulationError("the characterization bundle is empty")
        if capacity_rps <= 0:
            raise SimulationError("capacity_rps must be positive")
        if crash_recovery_steps < 1:
            raise SimulationError("crash_recovery_steps must be at least 1")
        self.bundle = bundle
        self.network = network
        self.trace = trace
        self.icbp = icbp
        self.capacity_rps = capacity_rps
        self.capacity_per_step = int(round(capacity_rps * trace.step_seconds))
        self.crash_recovery_steps = crash_recovery_steps
        self.compile_seed = compile_seed
        self.core = validate_core(core)
        self.fleet: List[FleetChip] = []
        for die in bundle:
            chip = FpgaChip.build(die.platform, serial=die.serial)
            fault_field = cached_fault_field(chip)
            accelerator = compile_accelerator(
                chip, fault_field, network, icbp=icbp, compile_seed=compile_seed
            )
            serving = ServingModel.from_accelerator(accelerator)
            ripple = np.array(
                [fault_field.ripple_v(step) for step in range(trace.n_steps)]
            )
            self.fleet.append(
                FleetChip(
                    chip=chip,
                    fault_field=fault_field,
                    adapter=PmbusAdapter(chip),
                    serving=serving,
                    power_meter=PowerMeter(
                        chip, bram_utilization=serving.bram_utilization
                    ),
                    ripple_v=ripple,
                )
            )

    def with_trace(self, trace: WorkloadTrace) -> "FleetSimulator":
        """A simulator over the same compiled fleet serving another trace.

        Reuses every expensive policy-independent artifact (chips, fault
        fields, placements, serving models) and recomputes only the
        trace-dependent state (per-step ripple, capacity per step) — the
        cheap path the property tests and benchmarks use to sweep many
        traces over one fleet.  The clone shares the underlying chips, so
        do not run the original and the clone concurrently.
        """
        clone = object.__new__(FleetSimulator)
        clone.bundle = self.bundle
        clone.network = self.network
        clone.trace = trace
        clone.icbp = self.icbp
        clone.capacity_rps = self.capacity_rps
        clone.capacity_per_step = int(round(self.capacity_rps * trace.step_seconds))
        clone.crash_recovery_steps = self.crash_recovery_steps
        clone.compile_seed = self.compile_seed
        clone.core = self.core
        clone.fleet = [
            FleetChip(
                chip=fleet_chip.chip,
                fault_field=fleet_chip.fault_field,
                adapter=fleet_chip.adapter,
                serving=fleet_chip.serving,
                power_meter=fleet_chip.power_meter,
                ripple_v=np.array(
                    [
                        fleet_chip.fault_field.ripple_v(step)
                        for step in range(trace.n_steps)
                    ]
                ),
            )
            for fleet_chip in self.fleet
        ]
        return clone

    # ------------------------------------------------------------------
    # Analytic energy anchors (the guardband-recovery denominators)
    # ------------------------------------------------------------------
    def nominal_energy_j(self) -> float:
        """Fleet energy if every rail stayed at nominal the whole trace."""
        return self._static_energy_j(lambda die: die.vnom_v)

    def guardband_floor_energy_j(self) -> float:
        """Fleet energy if every rail parked at its characterized Vmin.

        The "static guardband" savings potential: the denominator of the
        guardband-recovery fraction the acceptance benchmark asserts on.
        """
        return self._static_energy_j(lambda die: die.vmin_v)

    def _static_energy_j(self, voltage_of) -> float:
        total = 0.0
        for fleet_chip in self.fleet:
            die = self.bundle.get(*fleet_chip.key)
            power = fleet_chip.power_meter.read_bram_power_w(voltage_of(die))
            total += power * self.trace.n_steps * self.trace.step_seconds
        return total

    # ------------------------------------------------------------------
    # The simulation cores
    # ------------------------------------------------------------------
    def run(
        self, policy: "str | GovernorPolicy", core: Optional[str] = None
    ) -> TelemetryLog:
        """Serve the whole trace under one policy and return the telemetry.

        Dispatches to the constructor's ``core`` (overridable per call):
        the discrete-event core or the stepped reference loop, which
        produce bit-identical telemetry.  Either way the fleet state is
        reset first (rails to nominal, boards to the trace's initial
        ambient, cleared policy state), so consecutive ``run`` calls on one
        simulator are independent and deterministic.
        """
        core = validate_core(self.core if core is None else core)
        if core == "event":
            return self.run_event(policy)
        return self.run_stepped(policy)

    def run_event(
        self,
        policy: "str | GovernorPolicy",
        scheduler: str = "serial",
        jobs: int = 1,
    ) -> TelemetryLog:
        """Run one policy on the discrete-event core.

        ``scheduler``/``jobs`` shard the per-die event walks over
        :class:`repro.exec.WorkScheduler`; the merged telemetry digest is
        identical in every mode (1 worker or N, any completion order).
        """
        from .event_core import run_event

        return run_event(self, policy, scheduler=scheduler, jobs=jobs)

    def run_stepped(self, policy: "str | GovernorPolicy") -> TelemetryLog:
        """Run one policy on the per-step reference loop (the oracle).

        Kept verbatim from the pre-event-core simulator: every die ticks at
        every step.  The property suite asserts the event core reproduces
        this loop's telemetry bit-for-bit.
        """
        if isinstance(policy, str):
            policy = build_policy(policy)
        policy.reset()
        governor = VoltageGovernor(policy=policy, bundle=self.bundle)
        trace = self.trace
        n_chips, n_steps = len(self.fleet), trace.n_steps

        chambers: List[HeatChamber] = []
        for fleet_chip in self.fleet:
            fleet_chip.chip.regulator.reset_all()
            fleet_chip.chip.set_temperature(float(trace.ambient_c[0]))
            fleet_chip.adapter.clear_log()
            fleet_chip.crash_steps_left = 0
            fleet_chip.faults_last_step = 0
            chambers.append(HeatChamber(fleet_chip.chip))

        voltages = np.zeros((n_chips, n_steps))
        temperatures = np.zeros((n_chips, n_steps))
        assigned = np.zeros((n_chips, n_steps), dtype=np.int64)
        served = np.zeros((n_chips, n_steps), dtype=np.int64)
        faulty = np.zeros((n_chips, n_steps), dtype=np.int64)
        fault_bits = np.zeros((n_chips, n_steps), dtype=np.int64)
        crashed = np.zeros((n_chips, n_steps), dtype=np.int64)

        for step in range(n_steps):
            # 1. Thermal transient: every chamber ramps toward the setpoint.
            for chamber in chambers:
                chamber.set_temperature(float(trace.ambient_c[step]))
                chamber.settle(max_steps=1)

            # 2. Governor actuation (and crash bookkeeping).
            operational: List[int] = []
            for index, fleet_chip in enumerate(self.fleet):
                temperatures[index, step] = fleet_chip.chip.board_temperature_c
                if fleet_chip.crash_steps_left > 0:
                    fleet_chip.crash_steps_left -= 1
                    crashed[index, step] = 1
                    voltages[index, step] = fleet_chip.chip.vccbram
                    fleet_chip.faults_last_step = 0
                    continue
                applied = governor.step(
                    fleet_chip.adapter, step, fleet_chip.faults_last_step
                )
                die = self.bundle.get(*fleet_chip.key)
                vcrash_true = fleet_chip.fault_field.calibration.vcrash_bram_v
                if applied < vcrash_true - 1e-9:
                    # The command killed the board: power-cycle to nominal
                    # and spend the recovery window rebooting.
                    fleet_chip.chip.regulator.reset_all()
                    fleet_chip.crash_steps_left = self.crash_recovery_steps
                    policy.notify_crash(die)
                    crashed[index, step] = 1
                    voltages[index, step] = fleet_chip.chip.vccbram
                    fleet_chip.faults_last_step = 0
                    continue
                voltages[index, step] = applied
                operational.append(index)

            # 3. Load balancing: split the step's arrivals evenly over the
            #    operational chips (deterministic remainder assignment).
            arrivals = int(trace.requests[step])
            if operational:
                base, remainder = divmod(arrivals, len(operational))
                for position, index in enumerate(operational):
                    assigned[index, step] = base + (1 if position < remainder else 0)

            # 4. Serving and fault accounting.
            for index in operational:
                fleet_chip = self.fleet[index]
                share = int(assigned[index, step])
                completed = min(share, self.capacity_per_step)
                served[index, step] = completed
                effective = (
                    fleet_chip.fault_field.itd.effective_voltage(
                        voltages[index, step], temperatures[index, step]
                    )
                    + fleet_chip.ripple_v[step]
                )
                bits = fleet_chip.serving.fault_bits(effective)
                fault_bits[index, step] = bits
                if bits > 0:
                    # Weight faults are live in the datapath: everything the
                    # chip served this step is an uncorrected-fault inference
                    # (the scrubber only reports at the step boundary).
                    faulty[index, step] = completed
                fleet_chip.faults_last_step = bits

        # 5. Power/energy, vectorized over each chip's whole voltage path.
        power = np.zeros((n_chips, n_steps))
        for index, fleet_chip in enumerate(self.fleet):
            power[index] = power_curve(
                fleet_chip.power_meter.bram_model,
                voltages[index],
                fleet_chip.serving.bram_utilization,
            )
        energy = power * trace.step_seconds

        return TelemetryLog(
            policy=policy.name,
            trace=trace.to_dict(),
            chips=[fleet_chip.key for fleet_chip in self.fleet],
            step_seconds=trace.step_seconds,
            arrays={
                "voltages_v": voltages,
                "temperatures_c": temperatures,
                "assigned": assigned,
                "served": served,
                "faulty": faulty,
                "fault_bits": fault_bits,
                "crashed": crashed,
                "bram_power_w": power,
                "energy_j": energy,
            },
            n_actuations=governor.n_actuations,
        )

    def run_policies(
        self,
        policies: Optional[Sequence[str]] = None,
        core: Optional[str] = None,
        scheduler: str = "serial",
        jobs: int = 1,
    ) -> Dict[str, TelemetryLog]:
        """Run several policies on the identical fleet and trace.

        ``core`` overrides the constructor's simulation core per batch;
        ``scheduler``/``jobs`` shard the event core's per-die walks (the
        stepped reference ignores them — it exists to be the serial
        oracle).
        """
        from .governor import POLICY_NAMES

        names = list(POLICY_NAMES) if policies is None else list(policies)
        resolved = validate_core(self.core if core is None else core)
        if resolved == "event":
            return {
                name: self.run_event(name, scheduler=scheduler, jobs=jobs)
                for name in names
            }
        return {name: self.run_stepped(name) for name in names}
