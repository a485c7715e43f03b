"""Intelligently-Constrained BRAM Placement (ICBP) — the paper's mitigation.

ICBP (Section III-C, Fig. 12b) is an extra constraint added to the FPGA
placement stage.  It rests on two observations:

1. undervolting faults are deterministic and chip-dependent, so a
   pre-extracted Fault Variation Map tells which physical BRAMs are
   low-vulnerable;
2. NN layers differ in fault sensitivity — the last (smallest) layer is by
   far the most sensitive — so protecting a handful of BRAMs protects most of
   the accuracy.

The flow therefore constrains the logical BRAMs of the most sensitive layer
to physical BRAMs classified as low-vulnerable (using Vivado's Pblock
facility on hardware, :class:`repro.fpga.pblock.Pblock` here), leaves the
rest of the placement untouched, and pays essentially no timing, area or
power overhead.

Beyond the paper's last-layer policy, the reproduction also implements a
vulnerability-ordered policy (protect layers in decreasing sensitivity until
the low-vulnerable BRAMs run out) as the ablation benchmarks/bench_ablation_icbp_policies.py studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import OperatingGrid, cached_fault_field, voltage_ladder
from repro.core.faultmodel import FaultField
from repro.core.fvm import FaultVariationMap
from repro.core.temperature import REFERENCE_TEMPERATURE_C
from repro.fpga.pblock import ConstraintSet, Pblock
from repro.fpga.platform import FpgaChip
from repro.nn.datasets import Dataset
from repro.nn.inference import QuantizedNetwork

from .accelerator import NnAccelerator
from .mapping import WeightMapping
from .power import AcceleratorPowerModel
from .vulnerability import VulnerabilityReport, analyze_layer_vulnerability


class IcbpError(RuntimeError):
    """Raised when the ICBP constraints cannot be satisfied."""


class PlacementPolicy(Enum):
    """Which layers ICBP steers into low-vulnerable BRAMs."""

    #: Unconstrained placement — the paper's "default placement" baseline.
    DEFAULT = "default"
    #: The paper's policy: protect only the last (most sensitive) layer.
    LAST_LAYER = "last_layer"
    #: Extension: protect layers in decreasing vulnerability while the
    #: low-vulnerable BRAM budget lasts.
    VULNERABILITY_ORDERED = "vulnerability_ordered"


@dataclass(frozen=True)
class IcbpEvaluation:
    """Accuracy and power outcome of one placement policy at one voltage."""

    policy: PlacementPolicy
    voltage_v: float
    baseline_error: float
    classification_error: float
    protected_layers: Tuple[int, ...]
    power_savings_vs_vmin: float

    @property
    def accuracy_loss(self) -> float:
        """Error increase over the fault-free baseline (the Fig. 14 metric)."""
        return max(0.0, self.classification_error - self.baseline_error)


@dataclass
class IcbpFlow:
    """End-to-end ICBP flow for one chip + network + dataset combination.

    Parameters
    ----------
    chip:
        Target board.
    network:
        Quantized network whose weights will live in BRAMs.
    dataset:
        Benchmark providing the inference inputs/labels.
    fault_field:
        Calibrated fault model of the chip; shared by the FVM extraction and
        the accelerator evaluation so "pre-process" and "deployment" see the
        same die.
    fvm:
        Pre-extracted Fault Variation Map; extracted from the fault field if
        not supplied.
    """

    chip: FpgaChip
    network: QuantizedNetwork
    dataset: Dataset
    fault_field: Optional[FaultField] = None
    fvm: Optional[FaultVariationMap] = None
    vulnerability: Optional[VulnerabilityReport] = None
    compile_seed: int = 0
    max_eval_samples: Optional[int] = 1000

    def __post_init__(self) -> None:
        if self.fault_field is None:
            self.fault_field = cached_fault_field(self.chip)

    # ------------------------------------------------------------------
    # Pre-processing stages (Fig. 12b, left side)
    # ------------------------------------------------------------------
    def extract_fvm(self) -> FaultVariationMap:
        """Extract (or return the cached) Fault Variation Map of the chip."""
        if self.fvm is None:
            cal = self.fault_field.calibration
            voltages = [
                round(v, 4)
                for v in voltage_ladder(cal.vmin_bram_v, cal.vcrash_bram_v, 0.010)
            ]
            grid = OperatingGrid.from_axes(voltages)
            matrix = self.fault_field.batch.per_bram_counts(grid)[:, 0, 0, :]
            self.fvm = FaultVariationMap.from_matrix(
                platform=self.chip.name,
                floorplan=self.chip.floorplan,
                voltages_v=voltages,
                counts=matrix,
                bram_bits=self.chip.spec.bram_rows * self.chip.spec.bram_cols,
            )
        return self.fvm

    def analyze_vulnerability(self) -> VulnerabilityReport:
        """Run (or return the cached) per-layer sensitivity analysis."""
        if self.vulnerability is None:
            self.vulnerability = analyze_layer_vulnerability(
                self.network, self.dataset, max_samples=self.max_eval_samples
            )
        return self.vulnerability

    # ------------------------------------------------------------------
    # Constraint construction
    # ------------------------------------------------------------------
    def _protected_layers(self, policy: PlacementPolicy, mapping: WeightMapping) -> List[int]:
        if policy is PlacementPolicy.DEFAULT:
            return []
        if policy is PlacementPolicy.LAST_LAYER:
            return [self.network.n_weight_layers - 1]
        report = self.analyze_vulnerability()
        return report.most_vulnerable_first()

    def build_constraints(
        self, policy: PlacementPolicy = PlacementPolicy.LAST_LAYER
    ) -> Tuple[Optional[ConstraintSet], Tuple[int, ...]]:
        """Build the Pblock constraint set for one policy.

        Returns the constraint set (``None`` for the default policy) and the
        tuple of layer indices that ended up protected.
        """
        mapping = WeightMapping(self.network)
        ordered_layers = self._protected_layers(policy, mapping)
        if not ordered_layers:
            return None, ()

        fvm = self.extract_fvm()
        safe_sites = list(fvm.vulnerability_rank())  # least vulnerable first
        fault_free = set(fvm.fault_free_brams())
        low_class = set(fvm.low_vulnerable_brams())
        allowed_pool = [site for site in safe_sites if site in fault_free or site in low_class]

        constraints = ConstraintSet()
        protected: List[int] = []
        cursor = 0
        for layer_index in ordered_layers:
            names = mapping.logical_names_of_layer(layer_index)
            remaining = len(allowed_pool) - cursor
            if remaining < len(names):
                break  # out of low-vulnerable BRAMs; stop protecting further layers
            sites = allowed_pool[cursor : cursor + len(names)]
            cursor += len(names)
            constraints.add(
                Pblock.from_sites(
                    name=f"icbp_layer{layer_index}",
                    sites=sites,
                    blocks=names,
                )
            )
            protected.append(layer_index)
        if not protected:
            raise IcbpError(
                "the FVM does not contain enough low-vulnerable BRAMs to protect "
                "even the most sensitive layer"
            )
        return constraints, tuple(protected)

    # ------------------------------------------------------------------
    # Evaluation (Fig. 14)
    # ------------------------------------------------------------------
    def build_accelerator(
        self,
        policy: PlacementPolicy = PlacementPolicy.LAST_LAYER,
        compile_seed: Optional[int] = None,
    ) -> Tuple[NnAccelerator, Tuple[int, ...]]:
        """Compile the accelerator under one placement policy.

        ``compile_seed`` selects the place-and-route run; different seeds
        scatter the unconstrained logical BRAMs over different physical sites,
        exactly as recompiling the design does on hardware.
        """
        constraints, protected = self.build_constraints(policy)
        accelerator = NnAccelerator(
            chip=self.chip,
            network=self.network,
            fault_field=self.fault_field,
            constraints=constraints,
            compile_seed=self.compile_seed if compile_seed is None else compile_seed,
        )
        return accelerator, protected

    def _eval_inputs(self) -> Tuple[np.ndarray, np.ndarray]:
        inputs = self.dataset.test_inputs
        labels = self.dataset.test_labels
        if self.max_eval_samples is not None and len(labels) > self.max_eval_samples:
            inputs = inputs[: self.max_eval_samples]
            labels = labels[: self.max_eval_samples]
        return inputs, labels

    def evaluate(
        self,
        policy: PlacementPolicy = PlacementPolicy.LAST_LAYER,
        voltage_v: Optional[float] = None,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        compile_seeds: Sequence[int] = (0,),
        aggregate: str = "mean",
    ) -> IcbpEvaluation:
        """Measure accuracy loss and power savings for one policy at one voltage.

        The accuracy is aggregated over the given place-and-route seeds: the
        paper measures one board with one compilation, but in the reproduction
        the default placement's accuracy loss depends on which physical BRAMs
        the sensitive layers happen to land on.  ``aggregate="mean"`` gives the
        representative number over compilations; ``aggregate="max"`` gives the
        unlucky-compilation analogue of the measured board (ICBP's result is
        essentially seed-independent either way, which is the point of the
        technique).
        """
        if not compile_seeds:
            raise IcbpError("at least one compile seed is required")
        if aggregate not in ("mean", "max"):
            raise IcbpError(f"unknown aggregate {aggregate!r}; expected 'mean' or 'max'")
        cal = self.fault_field.calibration
        voltage = cal.vcrash_bram_v if voltage_v is None else voltage_v
        inputs, labels = self._eval_inputs()
        errors: List[float] = []
        baseline = 0.0
        protected: Tuple[int, ...] = ()
        for seed in compile_seeds:
            accelerator, protected = self.build_accelerator(policy, compile_seed=seed)
            baseline = accelerator.baseline_error(inputs, labels)
            errors.append(
                accelerator.classification_error_at(
                    voltage, inputs, labels, temperature_c=temperature_c
                )
            )
        mapping = WeightMapping(self.network)
        power = AcceleratorPowerModel(
            chip=self.chip,
            bram_utilization=mapping.bram_utilization_fraction(self.chip.spec.n_brams),
        )
        savings = power.bram_savings_between(cal.vmin_bram_v, voltage)
        aggregated = float(np.mean(errors)) if aggregate == "mean" else float(np.max(errors))
        return IcbpEvaluation(
            policy=policy,
            voltage_v=voltage,
            baseline_error=baseline,
            classification_error=aggregated,
            protected_layers=protected,
            power_savings_vs_vmin=savings,
        )

    def compare_policies(
        self,
        voltage_v: Optional[float] = None,
        policies: Sequence[PlacementPolicy] = (
            PlacementPolicy.DEFAULT,
            PlacementPolicy.LAST_LAYER,
        ),
        compile_seeds: Sequence[int] = (0,),
        aggregate: str = "mean",
    ) -> Dict[PlacementPolicy, IcbpEvaluation]:
        """Evaluate several placement policies at the same operating point."""
        return {
            policy: self.evaluate(
                policy, voltage_v, compile_seeds=compile_seeds, aggregate=aggregate
            )
            for policy in policies
        }
