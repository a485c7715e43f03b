"""Governor-ready per-die characterizations and their bundles.

The offline pipeline (PRs 1–3) produces everything a runtime governor needs
to know about a die — its characterized ``Vmin``/``Vcrash`` on the 10 mV
grid, its ITD temperature response and the supply-ripple spread — but
scatters it across campaign unit summaries, calibrations and caches.  This
module condenses that into one :class:`DieCharacterization` per die and one
:class:`GovernorBundle` per fleet: the exact artifact a deployment would
ship to its serving hosts.

Bundles come from two places:

* :func:`characterize_die` runs the adaptive guardband discovery on a live
  chip (the "first boot" path; shares the :class:`~repro.search.EvalCache`
  and warm-start machinery of PR 3);
* :meth:`GovernorBundle.from_campaign` reads a completed guardband
  campaign's store — and campaigns with the ``governor_bundle`` spec knob
  emit the bundle file (``governor_bundle.json``) into their store
  directory automatically at the end of a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.calibration import get_calibration
from repro.core.temperature import REFERENCE_TEMPERATURE_C
from repro.fpga.platform import FpgaChip
from repro.fpga.voltage import VCCBRAM
from repro.harness.sweep import UndervoltingExperiment
from repro.search import EvalCache, WarmStartModel

#: Bundle schema version; bumped when the document layout changes so stale
#: bundles are rejected loudly instead of misread.
BUNDLE_VERSION = 1

#: File name a campaign's emitted bundle lives under in its store directory.
BUNDLE_FILENAME = "governor_bundle.json"


class CharacterizationError(ValueError):
    """Raised for malformed characterizations or bundles."""


@dataclass(frozen=True)
class DieCharacterization:
    """Everything the governor needs to know about one die's VCCBRAM rail.

    Attributes
    ----------
    platform / serial:
        The die's identity (matches the campaign store's chip key).
    vnom_v:
        Nominal rail voltage (the static-nominal baseline's setpoint).
    vmin_v:
        Lowest fault-free grid voltage found by guardband discovery at the
        reference temperature.
    vcrash_v:
        Highest grid voltage at which the design stopped operating; the
        governor never commands at or below it.
    itd_v_per_degc:
        Fitted ITD coefficient (the Fig. 8 temperature study): equivalent
        voltage gained per degree above the reference temperature.
    ripple_margin_v:
        Supply-ripple allowance (six run-to-run sigmas, Table II): the
        safety margin a zero-fault policy must keep above the compensated
        Vmin.
    reference_temperature_c:
        Board temperature the characterization was taken at.
    """

    platform: str
    serial: str
    vnom_v: float
    vmin_v: float
    vcrash_v: float
    itd_v_per_degc: float
    ripple_margin_v: float
    reference_temperature_c: float = REFERENCE_TEMPERATURE_C

    def __post_init__(self) -> None:
        if not self.vcrash_v < self.vmin_v <= self.vnom_v:
            raise CharacterizationError(
                f"die {self.platform}/{self.serial}: expected "
                "Vcrash < Vmin <= Vnom"
            )
        if self.itd_v_per_degc < 0:
            raise CharacterizationError("ITD coefficient must be non-negative")
        if self.ripple_margin_v < 0:
            raise CharacterizationError("ripple margin must be non-negative")

    # ------------------------------------------------------------------
    @property
    def chip_key(self) -> Tuple[str, str]:
        """The (platform, serial) pair identifying this die."""
        return (self.platform, self.serial)

    @property
    def guardband_fraction(self) -> float:
        """Fraction of the nominal voltage the guardband wastes on this die."""
        return (self.vnom_v - self.vmin_v) / self.vnom_v

    def compensated_vmin_v(self, temperature_c: float) -> float:
        """Minimum safe voltage at a board temperature (ITD-compensated).

        Hotter silicon tolerates a lower supply (ITD), so the safe floor
        *drops* above the reference temperature and *rises* below it —
        exactly the shift the predictive policy tracks.
        """
        return self.vmin_v - self.itd_v_per_degc * (
            temperature_c - self.reference_temperature_c
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON form of the characterization."""
        return {
            "platform": self.platform,
            "serial": self.serial,
            "vnom_v": self.vnom_v,
            "vmin_v": self.vmin_v,
            "vcrash_v": self.vcrash_v,
            "itd_v_per_degc": self.itd_v_per_degc,
            "ripple_margin_v": self.ripple_margin_v,
            "reference_temperature_c": self.reference_temperature_c,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "DieCharacterization":
        """Inverse of :meth:`to_dict`."""
        return cls(
            platform=str(document["platform"]),
            serial=str(document["serial"]),
            vnom_v=float(document["vnom_v"]),
            vmin_v=float(document["vmin_v"]),
            vcrash_v=float(document["vcrash_v"]),
            itd_v_per_degc=float(document["itd_v_per_degc"]),
            ripple_margin_v=float(document["ripple_margin_v"]),
            reference_temperature_c=float(
                document.get("reference_temperature_c", REFERENCE_TEMPERATURE_C)
            ),
        )


def characterize_die(
    chip: FpgaChip,
    runs_per_step: int = 3,
    cache: Optional[EvalCache] = None,
    warm: Optional[WarmStartModel] = None,
    engine: Optional[Any] = None,
) -> DieCharacterization:
    """Characterize one live chip for governor use (the "first boot" path).

    Runs the certified adaptive guardband discovery on ``VCCBRAM`` (bit
    identical to the exhaustive walk, a fraction of the evaluations) and
    pairs the measured thresholds with the platform's fitted ITD coefficient
    and ripple spread from the calibration — the quantities the Fig. 8
    temperature study and Table II stability runs establish offline.

    ``engine`` is an optional :class:`repro.exec.ExecutionEngine` bound to
    the same die — pass one to replay the discovery from a recorded store
    (:class:`repro.exec.ReplayBackend`) or to share a backend; the default
    builds the experiment's own simulated engine.
    """
    experiment = UndervoltingExperiment(
        chip, runs_per_step=runs_per_step, engine=engine
    )
    measurement = experiment.discover_guardband_adaptive(
        rail=VCCBRAM, probe_runs=runs_per_step, cache=cache, warm=warm
    ).measurement
    calibration = get_calibration(chip.spec)
    return DieCharacterization(
        platform=chip.name,
        serial=chip.spec.serial_number,
        vnom_v=measurement.nominal_v,
        vmin_v=measurement.vmin_v,
        vcrash_v=measurement.vcrash_v,
        itd_v_per_degc=calibration.itd_v_per_degc,
        ripple_margin_v=6.0 * calibration.ripple_sigma_v,
    )


def _characterize_stock_die(
    platform: str, serial: str, runs_per_step: int
) -> DieCharacterization:
    """Process-pool entry point: characterize one stock-built die by identity."""
    return characterize_die(
        FpgaChip.build(platform, serial=serial), runs_per_step=runs_per_step
    )


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------
@dataclass
class GovernorBundle:
    """A fleet's worth of governor-ready die characterizations.

    ``source`` records where the bundle came from (a campaign name or
    ``"inline"``); ``spec_hash`` pins the producing campaign spec when there
    is one, so a bundle cannot silently be replayed against a different
    fleet definition.
    """

    dies: Dict[Tuple[str, str], DieCharacterization] = field(default_factory=dict)
    source: Optional[str] = None
    spec_hash: Optional[str] = None

    def __len__(self) -> int:
        return len(self.dies)

    def __iter__(self) -> Iterator[DieCharacterization]:
        return iter(self.dies.values())

    def add(self, die: DieCharacterization) -> DieCharacterization:
        """Register one die (idempotent for identical keys)."""
        self.dies[die.chip_key] = die
        return die

    def get(self, platform: str, serial: str) -> DieCharacterization:
        """The characterization of one die; raises for unknown dies."""
        try:
            return self.dies[(platform, serial)]
        except KeyError:
            raise CharacterizationError(
                f"bundle has no characterization for die {platform}/{serial}"
            ) from None

    def chip_keys(self) -> List[Tuple[str, str]]:
        """Every (platform, serial) pair in insertion order."""
        return list(self.dies)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_document(self) -> Dict[str, Any]:
        """JSON document of the bundle."""
        return {
            "version": BUNDLE_VERSION,
            "source": self.source,
            "spec_hash": self.spec_hash,
            "dies": [die.to_dict() for die in self.dies.values()],
        }

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "GovernorBundle":
        """Rebuild a bundle from its JSON document (strict on version)."""
        if document.get("version") != BUNDLE_VERSION:
            raise CharacterizationError(
                f"governor bundle version {document.get('version')!r} is not "
                f"the supported {BUNDLE_VERSION}; re-emit it from the campaign"
            )
        bundle = cls(
            source=document.get("source"), spec_hash=document.get("spec_hash")
        )
        for entry in document.get("dies", []):
            bundle.add(DieCharacterization.from_dict(entry))
        return bundle

    def save(self, path: "str | Path") -> Path:
        """Write the bundle document to ``path`` (pretty, sorted keys)."""
        path = Path(path)
        path.write_text(json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "GovernorBundle":
        """Read a bundle document back from disk."""
        path = Path(path)
        if not path.exists():
            raise CharacterizationError(f"no governor bundle at {path}")
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CharacterizationError(
                f"governor bundle at {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_document(document)

    # ------------------------------------------------------------------
    # Construction from the offline pipeline
    # ------------------------------------------------------------------
    @classmethod
    def from_chips(
        cls,
        chips: "List[FpgaChip]",
        runs_per_step: int = 3,
        source: str = "inline",
        scheduler: str = "serial",
        jobs: int = 1,
    ) -> "GovernorBundle":
        """Characterize a list of live chips into a bundle.

        Serially (the default), dies are characterized in order with a
        shared warm-start model, so every die after the first of its
        platform starts from the population's brackets — the same fleet
        economics as a campaign.

        ``scheduler``/``jobs`` fan the dies out over the execution layer's
        scheduling substrate (:class:`repro.exec.WorkScheduler`) instead.
        Parallel characterization runs every die cold — warm starts only
        ever change the evaluation *cost*, never a threshold (the
        bisection certificates guarantee it), so the bundle is bit-identical
        in every mode.  The process scheduler recharacterizes dies from
        their ``(platform, serial)`` identity and therefore expects
        stock-built chips (exactly what the CLI and ``fleet_serials``
        produce).
        """
        from repro.exec import WorkScheduler
        from repro.fpga.voltage import DEFAULT_STEP_V

        bundle = cls(source=source)
        work = WorkScheduler(scheduler=scheduler, jobs=jobs)
        if work.is_serial:
            warm = WarmStartModel(step_v=DEFAULT_STEP_V)
            for chip in chips:
                die = characterize_die(chip, runs_per_step=runs_per_step, warm=warm)
                warm.add(die.platform, VCCBRAM, die.vmin_v, die.vcrash_v)
                bundle.add(die)
            return bundle
        if work.scheduler == "process":
            tasks = [
                (chip.name, chip.spec.serial_number, runs_per_step) for chip in chips
            ]
            dies = work.map_tasks(_characterize_stock_die, tasks)
        else:
            dies = work.map_tasks(
                characterize_die, [(chip, runs_per_step) for chip in chips]
            )
        for die in dies:
            bundle.add(die)
        return bundle

    @classmethod
    def from_campaign(cls, store: Any, spec: Optional[Any] = None) -> "GovernorBundle":
        """Condense a completed guardband campaign store into a bundle.

        ``store`` is a :class:`repro.campaign.CampaignStore` of either
        layout version — open it with :func:`repro.campaign.open_store`,
        which dispatches on the manifest's ``store_version`` (the v2
        columnar store serves ``results`` through the same interface);
        ``spec`` defaults to the store's manifest.  Only units measured at
        each die's first listed temperature contribute (the
        characterization anchor); re-characterizing at other temperatures
        belongs to the ITD fit, not the threshold table.
        """
        if spec is None:
            spec = store.load_manifest()
        if spec.sweep != "guardband":
            raise CharacterizationError(
                f"governor bundles need a guardband campaign, not {spec.sweep!r}"
            )
        anchor_temperature = spec.temperatures_c[0]
        bundle = cls(source=spec.name, spec_hash=spec.spec_hash)
        for result in store.results(spec, with_arrays=False):
            unit = result.unit
            if unit.temperature_c != anchor_temperature:
                continue
            if unit.chip_key in bundle.dies:
                continue  # first pattern wins; thresholds are pattern-robust
            rail = result.summary.get("rails", {}).get(VCCBRAM)
            if rail is None:
                continue
            calibration = get_calibration(unit.platform)
            bundle.add(
                DieCharacterization(
                    platform=unit.platform,
                    serial=unit.serial,
                    vnom_v=float(rail["vnom_v"]),
                    vmin_v=float(rail["vmin_v"]),
                    vcrash_v=float(rail["vcrash_v"]),
                    itd_v_per_degc=calibration.itd_v_per_degc,
                    ripple_margin_v=6.0 * calibration.ripple_sigma_v,
                )
            )
        if not bundle.dies:
            raise CharacterizationError(
                f"campaign {spec.name!r} has no completed guardband units at "
                f"{anchor_temperature} degC to bundle"
            )
        return bundle


def bundle_path(store: Any) -> Path:
    """Where a campaign store's emitted governor bundle lives."""
    return Path(store.directory) / BUNDLE_FILENAME


def write_governor_bundle(store: Any, spec: Optional[Any] = None) -> Path:
    """Emit a campaign's governor bundle file (the spec-knob side effect)."""
    bundle = GovernorBundle.from_campaign(store, spec)
    return bundle.save(bundle_path(store))
