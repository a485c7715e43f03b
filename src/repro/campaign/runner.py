"""Campaign execution: per-chip sharding over worker processes.

The expansion of a :class:`~repro.campaign.spec.CampaignSpec` is embarrassingly
parallel — every :class:`~repro.campaign.spec.WorkUnit` owns its chip, loop and
operating point — so the runner:

1. asks the store which units are still pending (resume semantics);
2. groups them into *shards*, one per (platform, serial) die, so each worker
   builds a die once and reuses its memoized fault field
   (:func:`repro.core.batch.cached_fault_field`) plus the batch engine's
   sorted-threshold caches across all of that die's units;
3. fans the shards out through the execution layer's scheduling substrate
   (:class:`repro.exec.WorkScheduler`: serial, thread or process workers,
   fork context where the platform offers it, bounded in-flight queue);
   every worker persists each of its units through the store the moment it
   finishes, so an interruption loses at most the in-flight unit per
   worker.

Everything a worker touches is module-level and deterministic, so results are
identical whether a campaign runs serially, across 2 workers or across 16,
on threads or on processes — and, for the guardband loop, bit-identical to
driving :class:`repro.harness.UndervoltingExperiment` by hand on the same
serial.  Within each unit, every operating-point evaluation goes through
the experiment's :class:`repro.exec.ExecutionEngine` (the per-die
evaluation cache rides behind it).

Adaptive campaigns (``spec.search == "adaptive"``, the default) add three
cost optimizations on top, none of which can change a result:

* every die's :class:`~repro.search.EvalCache` is loaded from the store
  before its shard runs and saved back after every unit, so resumed or
  re-run campaigns replay probes from disk;
* guardband discovery runs as certified bisection seeded by a
  :class:`~repro.search.WarmStartModel` built from the population already
  characterized (same part number first);
* for a cold fleet the runner executes one *scout* shard per platform
  first, then fans the rest out with warm brackets — which is where the
  order-of-magnitude evaluation saving of ``bench_adaptive_search`` comes
  from.  Every worker count runs this same wave plan, so even the
  evaluation accounting is independent of the schedule.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import cached_fault_field
from repro.exec import ExecError, WorkScheduler, validate_scheduler
from repro.fpga.platform import FpgaChip
from repro.fpga.voltage import DEFAULT_STEP_V, VCCBRAM, VCCINT
from repro.harness.sweep import UndervoltingExperiment
from repro.obs import trace as obs_trace
from repro.obs.progress import EventStream
from repro.search import EvalCache, WarmStartModel, merge_search_documents

from .spec import CampaignError, CampaignSpec, WorkUnit
from .store import DEFAULT_ROOT, CampaignStore, UnitResult
from .store_v2 import open_store, open_store_for_spec

#: Cap on dies kept alive per worker process; a filled VC707 pins ~34 MB.
_CHIP_CACHE_MAX = 4

_CHIP_CACHE: "OrderedDict[Tuple[str, str], FpgaChip]" = OrderedDict()
#: The chip cache is shared by every shard of a thread-scheduled campaign.
_CHIP_CACHE_LOCK = threading.Lock()


def _chip_for(platform: str, serial: str) -> FpgaChip:
    """The worker-local die instance for one (platform, serial) pair.

    Keeping the *instance* cached matters beyond construction cost:
    :func:`cached_fault_field` keys on chip identity, so a stable instance is
    what lets every unit of a shard share one fault field and flat table.
    """
    key = (platform, serial)
    with _CHIP_CACHE_LOCK:
        chip = _CHIP_CACHE.get(key)
        if chip is not None:
            _CHIP_CACHE.move_to_end(key)
            return chip
    chip = FpgaChip.build(platform, serial=serial)
    with _CHIP_CACHE_LOCK:
        _CHIP_CACHE[key] = chip
        if len(_CHIP_CACHE) > _CHIP_CACHE_MAX:
            _CHIP_CACHE.popitem(last=False)
    return chip


# ----------------------------------------------------------------------
# Unit execution (runs inside worker processes)
# ----------------------------------------------------------------------
def execute_unit(
    unit: WorkUnit,
    cache: Optional[EvalCache] = None,
    warm: Optional[WarmStartModel] = None,
) -> UnitResult:
    """Run one work unit to completion and return its result.

    Pure function of the unit descriptor: builds (or reuses) the die, sets
    the chamber temperature, and drives the requested measurement loop
    through the ordinary :class:`UndervoltingExperiment` — the same code path
    a single-board study uses, which is what makes campaign results directly
    comparable to the one-chip benchmarks.  ``cache`` and ``warm`` only
    shape the *cost* of adaptive units (certified bisection makes the
    results themselves mode-independent); both default to cold/empty.
    """
    chip = _chip_for(unit.platform, unit.serial)
    chip.set_temperature(unit.temperature_c)
    experiment = UndervoltingExperiment(
        chip, fault_field=cached_fault_field(chip), runs_per_step=unit.runs_per_step
    )
    adaptive = unit.search == "adaptive"
    if adaptive and cache is None:
        cache = EvalCache(platform=unit.platform, serial=unit.serial)
    if unit.sweep == "guardband":
        return _run_guardband(experiment, unit, cache, warm)
    if unit.sweep == "sweep":
        return _run_critical_region(experiment, unit, cache if adaptive else None)
    if unit.sweep == "fvm":
        return _run_fvm(experiment, unit, cache if adaptive else None)
    raise CampaignError(f"unit {unit.unit_id} has unknown sweep kind {unit.sweep!r}")


def _run_guardband(
    experiment: UndervoltingExperiment,
    unit: WorkUnit,
    cache: Optional[EvalCache],
    warm: Optional[WarmStartModel],
) -> UnitResult:
    """Fig. 1 loop on both rails; scalars per rail, VCCBRAM curve as arrays.

    ``runs_per_step`` maps onto the discovery loop's probe runs, so a
    campaign asking for more repetitions per voltage step gets them here
    too, not only in the critical-region sweep.  Adaptive units discover the
    same thresholds by certified bisection; their VCCBRAM curve arrays hold
    the certificate-decisive operating points only, so both the scalar
    summary and the array payload are independent of warm-start state and
    scheduling — only the ``search`` accounting (how many probes were paid)
    reflects the actual schedule.
    """
    rails: Dict[str, Dict[str, float]] = {}
    arrays: Dict[str, np.ndarray] = {}
    rail_searches: Dict[str, Dict[str, Any]] = {}
    for rail in (VCCBRAM, VCCINT):
        decisive_voltages = None
        if unit.search == "adaptive":
            outcome = experiment.discover_guardband_adaptive(
                rail=rail,
                pattern=unit.pattern,
                probe_runs=unit.runs_per_step,
                cache=cache,
                warm=warm,
            )
            measurement, sweep = outcome.measurement, outcome.sweep
            # Persist only the certificate-decisive operating points: which
            # *other* voltages a search happened to probe depends on the
            # warm-start state (and therefore on scheduling), while the
            # bracket points are a pure function of the die — keeping the
            # stored arrays identical across worker counts and resumes.
            decisive_voltages = {
                voltage
                for certificate in outcome.report.certificates
                for voltage in (
                    certificate.boundary_voltage_above,
                    certificate.boundary_voltage_below,
                )
                if voltage is not None
            }
        else:
            measurement, sweep = experiment.discover_guardband(
                rail=rail, pattern=unit.pattern, probe_runs=unit.runs_per_step
            )
        rail_searches[rail] = experiment.last_search_report.to_dict()
        rails[rail] = {
            "vnom_v": measurement.nominal_v,
            "vmin_v": measurement.vmin_v,
            "vcrash_v": measurement.vcrash_v,
            "guardband_fraction": measurement.guardband_fraction,
            "power_reduction_factor_at_vmin": measurement.power_reduction_factor_at_vmin,
        }
        if warm is not None:
            warm.add(unit.platform, rail, measurement.vmin_v, measurement.vcrash_v)
        if rail == VCCBRAM:
            steps = sweep.operational_steps()
            if decisive_voltages is not None:
                steps = [s for s in steps if s.voltage_v in decisive_voltages]
            arrays["vccbram_voltages_v"] = np.array([s.voltage_v for s in steps])
            arrays["vccbram_median_fault_counts"] = np.array(
                [s.median_fault_count for s in steps]
            )
            arrays["vccbram_power_w"] = np.array(
                [s.bram_power_w if s.bram_power_w is not None else np.nan for s in steps]
            )
    summary = {"rails": rails, "search": _search_summary(unit.search, rail_searches)}
    return UnitResult(unit=unit, summary=summary, arrays=arrays)


def _search_summary(
    mode: str, rail_searches: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Any]:
    """The unit-level search accounting stored in every summary."""
    totals = merge_search_documents(rail_searches.values())
    return {
        "mode": mode,
        "n_evaluations": totals["n_evaluations"],
        "n_cache_hits": totals["n_cache_hits"],
        "n_exhaustive_equivalent": totals["n_exhaustive_equivalent"],
        "evaluations_saved": totals["evaluations_saved"],
        "rails": {rail: dict(doc) for rail, doc in rail_searches.items()},
    }


def _run_critical_region(
    experiment: UndervoltingExperiment, unit: WorkUnit, cache: Optional[EvalCache]
) -> UnitResult:
    """Listing 1 loop: fault-rate and power series over the critical region."""
    result = experiment.critical_region_sweep(
        pattern=unit.pattern,
        n_runs=unit.runs_per_step,
        temperature_c=unit.temperature_c,
        cache=cache,
    )
    search = experiment.last_search_report.to_dict()
    search.pop("certificates", None)
    voltages = np.array(result.voltages())
    rates = np.array(result.fault_rates_per_mbit())
    powers = np.array([p if p is not None else np.nan for p in result.powers_w()])
    stds = np.array([step.fault_rate_std_per_mbit for step in result.steps])
    cal = experiment.calibration
    return UnitResult(
        unit=unit,
        summary={
            "vmin_v": cal.vmin_bram_v,
            "vcrash_v": cal.vcrash_bram_v,
            "rate_at_vcrash_per_mbit": float(rates[-1]),
            "power_at_vmin_w": float(powers[0]),
            "power_at_vcrash_w": float(powers[-1]),
            "search": {"mode": unit.search, **search},
        },
        arrays={
            "voltages_v": voltages,
            "median_rates_per_mbit": rates,
            "bram_power_w": powers,
            "rate_std_per_mbit": stds,
        },
    )


def _run_fvm(
    experiment: UndervoltingExperiment, unit: WorkUnit, cache: Optional[EvalCache]
) -> UnitResult:
    """FVM extraction: the (voltage x BRAM) count matrix plus its statistics."""
    fvm = experiment.extract_fvm(
        pattern=unit.pattern, temperature_c=unit.temperature_c, cache=cache
    )
    search = experiment.last_search_report.to_dict()
    search.pop("certificates", None)
    return UnitResult(
        unit=unit,
        summary={
            "n_brams": fvm.n_brams,
            "bram_bits": fvm.bram_bits,
            **fvm.statistics(),
            "search": {"mode": unit.search, **search},
        },
        arrays={
            "voltages_v": np.array(fvm.voltages_v),
            "counts": fvm.counts_matrix(),
        },
    )


def _execute_shard(
    units: Tuple[WorkUnit, ...],
    name: str,
    root: str,
    warm_document: Optional[Dict[str, Any]] = None,
) -> List[Tuple[str, Dict[str, Any]]]:
    """Run one die's units back to back (the worker-side entry point).

    Each unit is persisted through the store *as soon as it finishes* —
    unit files are distinct and the JSON commit marker is renamed into
    place atomically, so concurrent workers never contend — which bounds
    what an interruption can lose to the single in-flight unit per worker.
    Adaptive shards load their die's evaluation cache first and save it
    back after every unit; the per-die cache file is owned by exactly one
    shard, so cache writes never contend either.  Returns
    ``(unit_id, search_summary)`` pairs for the parent's accounting.
    """
    store = open_store(name, root)
    adaptive = any(unit.search == "adaptive" for unit in units)
    cache: Optional[EvalCache] = None
    if adaptive and units:
        cache = store.load_eval_cache(units[0].platform, units[0].serial)
    if warm_document is not None:
        warm = WarmStartModel.from_dict(warm_document)
    else:
        warm = WarmStartModel(step_v=DEFAULT_STEP_V)
    executed: List[Tuple[str, Dict[str, Any]]] = []
    die = f"{units[0].platform}/{units[0].serial}" if units else ""
    with obs_trace.span("campaign.shard", die=die, n_units=len(units)):
        for unit in units:
            with obs_trace.span("campaign.unit", unit=unit.unit_id):
                result = execute_unit(unit, cache=cache, warm=warm)
                # Cache first, commit marker last: a marker on disk implies
                # its probes are in the cache, so losing the in-flight unit
                # can never cost more than re-running it from cached
                # evaluations.
                if cache is not None and unit.search == "adaptive":
                    store.save_eval_cache(cache)
                store.save(result)
            executed.append((result.unit_id, result.summary.get("search", {})))
    return executed


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignRunReport:
    """What one ``run_campaign`` invocation actually did."""

    name: str
    spec_hash: str
    n_units: int
    executed: Tuple[str, ...]
    skipped: Tuple[str, ...]
    n_workers: int
    search: str = "adaptive"
    #: Shard scheduling substrate the run used (see :mod:`repro.exec`).
    scheduler: str = "process"
    evaluations: Dict[str, Any] = field(default_factory=dict)
    #: Path of the emitted governor bundle (``governor_bundle`` spec knob),
    #: or ``None`` when the campaign does not emit one.
    governor_bundle: Optional[str] = None
    #: On-disk layout version of the store the run wrote into.
    store_version: int = 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON form used by ``repro-undervolt campaign run --json``."""
        return {
            "name": self.name,
            "spec_hash": self.spec_hash,
            "n_units": self.n_units,
            "n_executed": len(self.executed),
            "n_skipped": len(self.skipped),
            "n_workers": self.n_workers,
            "search": self.search,
            "backend": {
                "kind": "simulated",
                "scheduler": self.scheduler,
                "jobs": self.n_workers,
                "source": None,
                "counters": None,
            },
            "store": {"version": self.store_version},
            "evaluations": dict(self.evaluations),
            "executed_unit_ids": list(self.executed),
            "governor_bundle": self.governor_bundle,
        }


def _shards(units: Sequence[WorkUnit]) -> List[Tuple[WorkUnit, ...]]:
    """Group units by die, preserving expansion order within and across shards."""
    grouped: "OrderedDict[Tuple[str, str], List[WorkUnit]]" = OrderedDict()
    for unit in units:
        grouped.setdefault(unit.chip_key, []).append(unit)
    return [tuple(batch) for batch in grouped.values()]


def warm_model_from_store(
    store: CampaignStore, spec: CampaignSpec
) -> WarmStartModel:
    """Seed a warm-start model from a campaign's completed guardband units.

    Reads only the JSON scalar summaries (no array payloads), so it stays
    cheap even for large fleets; non-guardband campaigns yield an empty
    model, which downstream searches treat as cold.
    """
    model = WarmStartModel(step_v=DEFAULT_STEP_V)
    if spec.sweep != "guardband":
        return model
    for result in store.results(spec, with_arrays=False):
        for rail, data in result.summary.get("rails", {}).items():
            model.add(result.unit.platform, rail, data["vmin_v"], data["vcrash_v"])
    return model


def _waves(
    shards: List[Tuple[WorkUnit, ...]], warm: Optional[WarmStartModel]
) -> List[List[Tuple[WorkUnit, ...]]]:
    """Split shards into a scout wave and the warm remainder.

    One shard per platform that the warm model knows nothing about runs
    first (the *scouts*); every other shard then starts from the scouts'
    discovered quantiles.  Platforms already represented in the model — a
    resumed campaign, or a fleet sharing its store with an earlier one —
    need no scout and go straight to the warm wave.  Without a warm model
    (campaigns that do not warm-start) every shard runs in one wave.
    """
    if warm is None:
        return [shards] if shards else []
    known = {platform for (platform, _rail) in warm.observations}
    scouts: "OrderedDict[str, Tuple[WorkUnit, ...]]" = OrderedDict()
    rest: List[Tuple[WorkUnit, ...]] = []
    for shard in shards:
        platform = shard[0].platform
        if platform not in known and platform not in scouts:
            scouts[platform] = shard
        else:
            rest.append(shard)
    return [wave for wave in (list(scouts.values()), rest) if wave]


def run_campaign(
    spec: CampaignSpec,
    root: "str | os.PathLike" = DEFAULT_ROOT,
    max_workers: Optional[int] = None,
    scheduler: str = "process",
    store_version: Optional[int] = None,
    events: Optional[EventStream] = None,
) -> CampaignRunReport:
    """Run (or resume) a campaign, persisting every unit as it completes.

    Every worker count and scheduler runs the same wave plan through
    :class:`repro.exec.WorkScheduler` — for adaptive guardband campaigns a
    scout wave of one cold die per platform, then every other die warm-
    started from the store — so the report, ``evaluations`` accounting
    included, does not depend on how many workers ran it.

    Parameters
    ----------
    spec:
        The declarative campaign; its name selects the store directory.
    root:
        Directory the result store lives under (default ``campaigns/``).
    max_workers:
        Worker cap; defaults to ``min(n_shards, cpu_count)``.  ``1`` (or
        the serial scheduler) runs the plan in this process.
    scheduler:
        Shard scheduling substrate from :data:`repro.exec.SCHEDULERS`
        (``serial`` / ``thread`` / ``process``; default ``process``).
    store_version:
        On-disk layout for a *fresh* campaign (``1`` per-unit files, ``2``
        segmented columnar; default v1).  An existing store keeps its
        version — asking for a conflicting one raises.
    events:
        Optional :class:`repro.obs.progress.EventStream` receiving
        ``campaign.progress`` events (fields ``unit_id``/``done``/
        ``pending``), one burst per finished die; the run builds a private
        stream when none is given.  Every event is also recorded on the
        active trace recorder.
    """
    try:
        scheduler = validate_scheduler(scheduler)
    except ExecError as exc:
        raise CampaignError(str(exc)) from None
    store = open_store_for_spec(spec, root, store_version=store_version)
    all_units = spec.expand()
    skipped = tuple(u.unit_id for u in all_units if store.is_complete(u))
    skipped_ids = set(skipped)
    pending = [u for u in all_units if u.unit_id not in skipped_ids]
    shards = _shards(pending)

    if max_workers is None:
        max_workers = min(len(shards), os.cpu_count() or 1) or 1
    if max_workers < 1:
        raise CampaignError("max_workers must be at least 1")
    jobs = 1 if scheduler == "serial" else max(1, min(max_workers, len(shards)))
    work = WorkScheduler(scheduler=scheduler, jobs=jobs)

    stream = events if events is not None else EventStream()
    n_done = 0

    def _progress(_index: int, results: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        nonlocal n_done
        for unit_id, _search in results:
            n_done += 1
            stream.emit(
                "campaign.progress", unit_id=unit_id, done=n_done, pending=len(pending)
            )

    warm_starting = spec.search == "adaptive" and spec.sweep == "guardband"
    warm = warm_model_from_store(store, spec) if warm_starting else None
    # Shard results in submission order: the report must not depend on
    # which worker finished first.
    finished: List[Tuple[str, Dict[str, Any]]] = []
    with obs_trace.span(
        "campaign.run", name=spec.name, sweep=spec.sweep, search=spec.search
    ):
        # One worker pool for the whole run: the context manager keeps it
        # alive across the scout and warm waves.
        with work:
            for wave_index, wave in enumerate(_waves(shards, warm)):
                if warm_starting and wave_index > 0:
                    warm = warm_model_from_store(store, spec)
                warm_document = warm.to_dict() if warm is not None else None
                with obs_trace.span("campaign.wave", wave=wave_index, n_shards=len(wave)):
                    for results in work.map_tasks(
                        _execute_shard,
                        [(shard, spec.name, str(root), warm_document) for shard in wave],
                        on_result=_progress,
                    ):
                        finished.extend(results)

    bundle_file: Optional[str] = None
    if spec.governor_bundle and store.status(spec).is_complete:
        # Imported lazily: the runtime layer sits above the campaign layer.
        from repro.runtime.characterization import write_governor_bundle

        bundle_file = str(write_governor_bundle(store, spec))

    return CampaignRunReport(
        name=spec.name,
        spec_hash=spec.spec_hash,
        n_units=len(all_units),
        executed=tuple(unit_id for unit_id, _search in finished),
        skipped=skipped,
        n_workers=jobs,
        search=spec.search,
        # The substrate that actually ran: one job runs in this process.
        scheduler="serial" if work.is_serial else scheduler,
        evaluations=merge_search_documents(search for _unit_id, search in finished),
        governor_bundle=bundle_file,
        store_version=store.store_version,
    )
