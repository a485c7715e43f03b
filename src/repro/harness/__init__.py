"""Experiment harness: the measurement methodology of Fig. 2 and Listing 1.

Provides the software host (PMBUS rail control, BRAM initialization and
read-back analysis), the heat chamber and power meter, and the sweep drivers
that produce the data behind every characterization figure in Section II.
"""

from .environment import EnvironmentError_, HeatChamber, TemperatureMonitor
from .host import HostController, HostError
from .pmbus import (
    OPERATION_ON,
    OPERATION_SOFT_OFF,
    PmbusAdapter,
    PmbusError,
    PmbusTransaction,
    READ_TEMPERATURE,
    READ_VOUT,
    VOUT_COMMAND,
)
from .powermeter import PowerMeter, PowerMeterError, XpePowerEstimate
from .records import (
    GuardbandMeasurement,
    RecordError,
    RunObservation,
    SweepResult,
    VoltageStepResult,
)
from .sweep import AdaptiveGuardbandResult, SweepError, UndervoltingExperiment

__all__ = [
    "AdaptiveGuardbandResult",
    "EnvironmentError_",
    "GuardbandMeasurement",
    "HeatChamber",
    "HostController",
    "HostError",
    "OPERATION_ON",
    "OPERATION_SOFT_OFF",
    "PmbusAdapter",
    "PmbusError",
    "PmbusTransaction",
    "PowerMeter",
    "PowerMeterError",
    "READ_TEMPERATURE",
    "READ_VOUT",
    "RecordError",
    "RunObservation",
    "SweepError",
    "SweepResult",
    "TemperatureMonitor",
    "UndervoltingExperiment",
    "VOUT_COMMAND",
    "VoltageStepResult",
    "XpePowerEstimate",
]
