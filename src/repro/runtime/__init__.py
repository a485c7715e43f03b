"""Closed-loop runtime undervolting: governors, workloads, fleet serving.

The offline pipeline (batch engine, campaigns, adaptive search)
characterizes dies; this subpackage *uses* those characterizations online.
A :class:`GovernorBundle` carries per-die thresholds out of a campaign
store, a :class:`VoltageGovernor` with a pluggable policy actuates each
board's ``VCCBRAM`` over PMBUS, and a :class:`FleetSimulator` serves a
seeded :class:`WorkloadTrace` (diurnal, burst or batch-offline) on a fleet
of NN accelerators through heat-chamber temperature transients, logging a
bit-replayable :class:`TelemetryLog` that :mod:`repro.analysis.runtime`
turns into energy/accuracy/SLO summaries.

See ``docs/runtime.md`` for the policy and simulator models; the CLI front
end is ``repro-undervolt runtime``.
"""

from .characterization import (
    BUNDLE_FILENAME,
    CharacterizationError,
    DieCharacterization,
    GovernorBundle,
    bundle_path,
    characterize_die,
    write_governor_bundle,
)
from .governor import (
    POLICIES,
    POLICY_NAMES,
    GovernorError,
    GovernorObservation,
    GovernorPolicy,
    PredictiveItdPolicy,
    ReactiveBackoffPolicy,
    StaticNominalPolicy,
    StaticUndervoltPolicy,
    VoltageGovernor,
    build_policy,
    ceil_to_resolution,
)
from .event_core import (
    DieTimeline,
    chamber_temperature_path,
    merge_timelines,
    serving_phase,
    transient_steps,
)
from .simulator import (
    SIM_CORES,
    FleetChip,
    FleetSimulator,
    ServingModel,
    SimulationError,
    compile_accelerator,
    validate_core,
)
from .telemetry import TELEMETRY_VERSION, TelemetryError, TelemetryLog
from .workload import (
    TRACE_KINDS,
    TraceError,
    WorkloadTrace,
    batch_trace,
    build_trace,
    burst_trace,
    diurnal_trace,
    sparse_diurnal_trace,
)

__all__ = [
    "BUNDLE_FILENAME",
    "CharacterizationError",
    "DieCharacterization",
    "DieTimeline",
    "FleetChip",
    "FleetSimulator",
    "GovernorBundle",
    "GovernorError",
    "GovernorObservation",
    "GovernorPolicy",
    "POLICIES",
    "POLICY_NAMES",
    "PredictiveItdPolicy",
    "ReactiveBackoffPolicy",
    "SIM_CORES",
    "ServingModel",
    "SimulationError",
    "StaticNominalPolicy",
    "StaticUndervoltPolicy",
    "TELEMETRY_VERSION",
    "TRACE_KINDS",
    "TelemetryError",
    "TelemetryLog",
    "TraceError",
    "VoltageGovernor",
    "WorkloadTrace",
    "batch_trace",
    "build_policy",
    "build_trace",
    "bundle_path",
    "burst_trace",
    "ceil_to_resolution",
    "chamber_temperature_path",
    "characterize_die",
    "compile_accelerator",
    "diurnal_trace",
    "merge_timelines",
    "serving_phase",
    "sparse_diurnal_trace",
    "transient_steps",
    "validate_core",
    "write_governor_bundle",
]
