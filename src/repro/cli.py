"""Command-line interface to the reproduction's main experiments.

Installed as the ``repro-undervolt`` console script (``repro`` is kept as a
shorter alias).  Five sub-commands cover the workflows a user typically wants
without writing Python:

* ``guardband``     — Fig. 1: discover Vmin/Vcrash and the guardband of a board;
* ``sweep``         — Fig. 3 / Listing 1: fault rate and power across the
  critical region;
* ``characterize``  — Section II-C: pattern, stability and variability studies;
* ``icbp``          — Section III: train the case-study network, run it at
  Vcrash under the default and ICBP placements and compare the accuracy loss;
* ``campaign``      — fleet-scale populations of simulated boards: ``run``,
  ``status`` and ``report`` over a declarative campaign spec
  (:mod:`repro.campaign`, see ``docs/campaigns.md``);
* ``runtime``       — closed-loop runtime undervolting: ``run`` a governed
  fleet through a workload trace and ``report`` saved telemetry
  (:mod:`repro.runtime`, see ``docs/runtime.md``);
* ``trace``         — ``summarize`` an observability trace file written by
  ``--obs-trace`` into a per-phase wall/self-time table
  (:mod:`repro.obs`, see ``docs/observability.md``).

The long-running commands (``guardband``, ``sweep``, ``campaign run``,
``runtime run``, ``serve``) accept ``--obs-trace PATH`` (JSON-lines span
trace of the run) and ``--obs-metrics PATH`` (Prometheus text exposition
written when the command finishes).  Both default to off, and off is free —
the ``--json`` documents are byte-identical either way.

Every single-board command accepts ``--platform`` (default VC707) and prints
aligned ASCII tables; machine-readable output is available with ``--json``.
Every ``--json`` document segregates its wall-clock measurements under a
single ``timing`` key (at least ``wall_s``), so the rest of each document is
a pure function of the inputs and seeds — golden-structure tests compare it
exactly.  The full reference, including each ``--json`` document schema,
lives in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.analysis import render_table, similarity_extremes
from repro.campaign import (
    CampaignError,
    CampaignSpec,
    DEFAULT_ROOT,
    build_report,
    migrate_store,
    open_store,
    preset_spec,
    run_campaign,
)
from repro.exec import ExecError, ExecutionEngine, ReplayBackend, SCHEDULERS
from repro.obs.progress import EventStream, ProgressEvent
from repro.search import SEARCH_MODES, EvalCache, merge_search_documents
from repro.core import cached_fault_field
from repro.core.characterization import (
    STUDY_PATTERNS,
    pattern_study,
    stability_study,
    variability_study,
)
from repro.fpga import FpgaChip, platform_names
from repro.fpga.bram import BramError, data_pattern
from repro.harness import UndervoltingExperiment
from repro.runtime.governor import POLICY_NAMES
from repro.runtime.workload import TRACE_KINDS


#: Wall-clock start of the current command, set by :func:`main`.  Every
#: ``--json`` document routes through :func:`_emit_json`, which appends the
#: elapsed time under the single ``timing`` key — the one place wall-clock
#: (non-deterministic) values are allowed to appear.
_COMMAND_T0: Optional[float] = None


def _emit_json(document: Dict[str, Any], **extra_timing: float) -> None:
    """Print a ``--json`` document with its segregated ``timing`` block."""
    timing: Dict[str, float] = {}
    if _COMMAND_T0 is not None:
        timing["wall_s"] = round(time.perf_counter() - _COMMAND_T0, 6)
    timing.update(extra_timing)
    document["timing"] = timing
    print(json.dumps(document, indent=2))


def _add_platform_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--platform",
        default="VC707",
        choices=platform_names(),
        help="board to simulate (Table I of the paper)",
    )


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON document instead of ASCII tables",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The observability flags of the long-running commands.

    ``--obs-trace`` installs a JSON-lines span recorder for the whole
    command; ``--obs-metrics`` switches the process-wide metrics registry
    on and dumps its Prometheus text exposition when the command returns.
    Both are off by default, and off is free (see docs/observability.md).
    """
    parser.add_argument(
        "--obs-trace",
        metavar="PATH",
        help="append a JSON-lines span trace of this command to PATH "
        "(inspect it with 'repro-undervolt trace summarize PATH')",
    )
    parser.add_argument(
        "--obs-metrics",
        metavar="PATH",
        help="collect metrics during this command and write the Prometheus "
        "text exposition to PATH on exit",
    )


def _add_search_argument(parser: argparse.ArgumentParser, default: Optional[str]) -> None:
    parser.add_argument(
        "--search",
        choices=list(SEARCH_MODES),
        default=default,
        help=(
            "characterization search mode: 'adaptive' finds thresholds by "
            "certified bisection (provably grid-identical, far fewer "
            "fault-field evaluations), 'exhaustive' walks every grid point"
        ),
    )


def _add_sim_core_arguments(
    parser: argparse.ArgumentParser, jobs_flag: bool = True
) -> None:
    """The fleet-simulation core knobs: ``--sim-core`` and ``--sim-jobs``.

    Choices mirror :data:`repro.runtime.simulator.SIM_CORES` (spelled out
    here so parser construction stays clear of the NN/accelerator import
    chain).  Both cores produce bit-identical telemetry; ``stepped`` is
    the reference loop kept as the event core's identity oracle.
    """
    parser.add_argument(
        "--sim-core",
        choices=["event", "stepped"],
        default="event",
        help="fleet-simulation core: the discrete-event core (default) or "
        "the stepped reference loop (bit-identical, slower)",
    )
    if jobs_flag:
        parser.add_argument(
            "--sim-jobs",
            type=int,
            default=1,
            metavar="N",
            help="shard the event core's per-die walks over N worker "
            "processes (telemetry digests are identical for any N)",
        )


def _add_backend_arguments(
    parser: argparse.ArgumentParser,
    default: str = "serial",
    replay: bool = False,
) -> None:
    """The execution-layer knobs: ``--backend`` and ``--jobs``.

    ``serial``/``thread``/``process`` pick the scheduling substrate of the
    simulated backend (results are bit-identical across all three; see
    docs/architecture.md); ``replay``, where offered, serves every
    evaluation from a recorded store instead of the fault model.
    """
    choices = list(SCHEDULERS) + (["replay"] if replay else [])
    parser.add_argument(
        "--backend",
        choices=choices,
        default=default,
        help=(
            "execution backend: scheduling substrate of the simulated fault "
            "model" + (", or bit-identical replay from a recorded store "
                       "(--replay-store)" if replay else "")
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker threads/processes for the parallel backends "
        "(default: CPU count when --backend is thread/process, else 1)",
    )
    if replay:
        parser.add_argument(
            "--replay-store",
            metavar="PATH",
            help="recorded evaluation store (a --record-store file or a "
            "campaign store directory) served by --backend replay",
        )
        parser.add_argument(
            "--record-store",
            metavar="PATH",
            help="write this run's evaluation cache to PATH for later "
            "--backend replay runs (needs --search adaptive)",
        )


def build_parser() -> argparse.ArgumentParser:
    """The top-level ``repro-undervolt`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-undervolt",
        description="FPGA BRAM undervolting experiments (MICRO 2018 reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    guardband = subparsers.add_parser("guardband", help="discover Vmin/Vcrash (Fig. 1)")
    _add_platform_argument(guardband)
    _add_json_argument(guardband)
    _add_search_argument(guardband, default="adaptive")
    _add_backend_arguments(guardband, replay=True)
    _add_obs_arguments(guardband)
    guardband.add_argument(
        "--runs",
        type=int,
        default=3,
        help="read-back repetitions per probe (default 3; match the "
        "recording's runs_per_step when replaying a campaign store)",
    )

    sweep = subparsers.add_parser("sweep", help="critical-region fault/power sweep (Fig. 3)")
    _add_platform_argument(sweep)
    _add_json_argument(sweep)
    _add_search_argument(sweep, default="adaptive")
    _add_backend_arguments(sweep, replay=True)
    _add_obs_arguments(sweep)
    sweep.add_argument("--runs", type=int, default=11, help="read-back repetitions per voltage step")
    sweep.add_argument("--pattern", default="FFFF", help="initial BRAM data pattern (e.g. FFFF, AAAA)")

    characterize = subparsers.add_parser(
        "characterize", help="pattern/stability/variability studies (Section II-C)"
    )
    _add_platform_argument(characterize)
    _add_json_argument(characterize)
    characterize.add_argument("--runs", type=int, default=50, help="runs for the stability study")

    icbp = subparsers.add_parser("icbp", help="NN case study with ICBP mitigation (Fig. 14)")
    _add_platform_argument(icbp)
    _add_json_argument(icbp)
    icbp.add_argument("--train-samples", type=int, default=6000, help="training-set size")
    icbp.add_argument("--seeds", type=int, default=4, help="number of place-and-route seeds to average")

    campaign = subparsers.add_parser(
        "campaign", help="fleet-scale campaigns over populations of boards"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_common(sub: argparse.ArgumentParser, need_spec: bool) -> None:
        sub.add_argument(
            "--root",
            default=DEFAULT_ROOT,
            help="directory campaign result stores live under (default: campaigns/)",
        )
        sub.add_argument(
            "--spec", metavar="PATH", help="campaign spec JSON file (see docs/campaigns.md)"
        )
        sub.add_argument(
            "--preset",
            metavar="NAME",
            help="built-in campaign: fleet16, fleet16-fvm, fleet16-sweep "
            "or fleet16-fast",
        )
        if not need_spec:
            sub.add_argument(
                "--name", help="name of an existing campaign (reads its manifest)"
            )
        _add_json_argument(sub)

    run = campaign_sub.add_parser("run", help="run (or resume) a campaign")
    _add_campaign_common(run, need_spec=True)
    _add_search_argument(run, default=None)  # None: honour the spec's knob
    _add_backend_arguments(run, default="process")
    _add_obs_arguments(run)
    run.add_argument(
        "--store-version",
        type=int,
        choices=(1, 2),
        default=None,
        help="on-disk layout for a fresh campaign: 1 (per-unit files, the "
        "default) or 2 (segmented columnar; see docs/campaign_store.md). "
        "An existing store keeps its version",
    )

    status = campaign_sub.add_parser("status", help="progress of a campaign on disk")
    _add_campaign_common(status, need_spec=False)

    report = campaign_sub.add_parser(
        "report", help="aggregate a campaign into fleet statistics"
    )
    _add_campaign_common(report, need_spec=False)

    migrate = campaign_sub.add_parser(
        "migrate",
        help="convert a v1 campaign store to the v2 columnar layout "
        "(idempotent, digest-verified)",
    )
    _add_campaign_common(migrate, need_spec=False)
    migrate.add_argument(
        "--keep-v1",
        action="store_true",
        help="keep the original v1 store as <name>.v1-backup next to the "
        "migrated store",
    )

    runtime = subparsers.add_parser(
        "runtime", help="closed-loop runtime undervolting on a serving fleet"
    )
    runtime_sub = runtime.add_subparsers(dest="runtime_command", required=True)

    run_rt = runtime_sub.add_parser(
        "run", help="serve a workload trace under one or all governor policies"
    )
    _add_platform_argument(run_rt)
    _add_json_argument(run_rt)
    _add_backend_arguments(run_rt)
    _add_obs_arguments(run_rt)
    run_rt.add_argument(
        "--chips", type=int, default=4, help="fleet size when characterizing inline"
    )
    run_rt.add_argument(
        "--campaign",
        metavar="NAME",
        help="take the fleet's characterizations from this campaign's store "
        "(guardband sweep) instead of characterizing inline",
    )
    run_rt.add_argument(
        "--root",
        default=DEFAULT_ROOT,
        help="campaign store root used with --campaign (default: campaigns/)",
    )
    run_rt.add_argument(
        "--policy",
        choices=list(POLICY_NAMES) + ["all"],
        default="all",
        help="governor policy to simulate ('all' compares every policy)",
    )
    run_rt.add_argument(
        "--trace",
        choices=list(TRACE_KINDS),
        default="diurnal",
        help="workload trace family (see docs/runtime.md)",
    )
    run_rt.add_argument("--steps", type=int, default=400, help="simulation steps")
    run_rt.add_argument("--seed", type=int, default=7, help="trace seed")
    run_rt.add_argument(
        "--capacity-rps",
        type=float,
        default=150.0,
        help="per-chip serving capacity in requests per second",
    )
    run_rt.add_argument(
        "--train-samples",
        type=int,
        default=500,
        help="training-set size of the served network",
    )
    run_rt.add_argument(
        "--no-icbp",
        action="store_true",
        help="compile the accelerators with the default placement instead of ICBP",
    )
    run_rt.add_argument(
        "--save",
        metavar="PATH",
        help="write the run's full telemetry document to this JSON file "
        "(readable by 'runtime report')",
    )
    _add_sim_core_arguments(run_rt)

    scale_rt = runtime_sub.add_parser(
        "scale",
        help="population-scale governor comparison on a synthetic die fleet",
    )
    _add_platform_argument(scale_rt)
    _add_json_argument(scale_rt)
    _add_backend_arguments(scale_rt)
    scale_rt.add_argument(
        "--dies", type=int, default=10_000, help="synthetic fleet size"
    )
    scale_rt.add_argument(
        "--fleet-seed",
        type=int,
        default=2026,
        help="seed of the calibrated population draw",
    )
    scale_rt.add_argument(
        "--policy",
        choices=list(POLICY_NAMES) + ["all"],
        default="all",
        help="governor policy to simulate ('all' compares every policy)",
    )
    scale_rt.add_argument(
        "--trace",
        choices=list(TRACE_KINDS),
        default="sparse-diurnal",
        help="workload trace family (see docs/runtime.md)",
    )
    scale_rt.add_argument(
        "--steps", type=int, default=720, help="simulation steps"
    )
    scale_rt.add_argument("--seed", type=int, default=7, help="trace seed")
    scale_rt.add_argument(
        "--capacity-rps",
        type=float,
        default=150.0,
        help="per-die serving capacity in requests per second",
    )
    scale_rt.add_argument(
        "--load-scale",
        type=float,
        default=None,
        metavar="X",
        help="multiply the trace's fleet-wide request rates by X "
        "(default: dies/16, keeping per-die load at the 16-chip "
        "study's level)",
    )
    _add_sim_core_arguments(scale_rt, jobs_flag=False)

    report_rt = runtime_sub.add_parser(
        "report", help="summarize a saved runtime telemetry document"
    )
    _add_json_argument(report_rt)
    report_rt.add_argument(
        "--telemetry", metavar="PATH", required=True,
        help="telemetry document written by 'runtime run --save'",
    )

    serve = subparsers.add_parser(
        "serve",
        help="characterization-as-a-service: HTTP/JSON fleet query API "
        "(see docs/service.md)",
    )
    serve_source = serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument(
        "--store",
        metavar="NAME",
        help="completed guardband campaign store to serve",
    )
    serve_source.add_argument(
        "--bundle",
        metavar="PATH",
        help="emitted governor_bundle.json to serve directly",
    )
    serve.add_argument(
        "--root",
        default=DEFAULT_ROOT,
        metavar="DIR",
        help="campaign store root directory (with --store)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port; 0 picks an ephemeral port (the bound address is "
        "printed on the ready line either way)",
    )
    serve.add_argument(
        "--engine-workers",
        type=int,
        default=4,
        metavar="N",
        help="worker threads for engine-backed queries (FVM sweeps)",
    )
    _add_obs_arguments(serve)

    trace = subparsers.add_parser(
        "trace",
        help="inspect observability trace files written by --obs-trace",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase wall/self-time table of a JSON-lines trace file",
    )
    summarize.add_argument(
        "path", metavar="PATH", help="trace file written by --obs-trace"
    )
    _add_json_argument(summarize)

    return parser


# ----------------------------------------------------------------------
# Sub-command implementations
# ----------------------------------------------------------------------
def _search_payload(search_documents: List[dict], mode: str) -> dict:
    """The ``search`` block of a ``--json`` document: mode + evaluation cost.

    Totals come from :func:`repro.search.merge_search_documents` — the same
    aggregation the campaign reports use — trimmed to the three count keys
    the CLI schema publishes.
    """
    totals = merge_search_documents(search_documents)
    return {
        "mode": mode,
        "n_evaluations": totals["n_evaluations"],
        "n_cache_hits": totals["n_cache_hits"],
        "n_exhaustive_equivalent": totals["n_exhaustive_equivalent"],
    }


def _backend_block(
    kind: str, scheduler: str, jobs: int, source: Optional[str] = None
) -> Dict[str, Any]:
    """A counterless ``backend`` --json block.

    Commands whose evaluations happen outside this process (campaign
    workers, per-die characterization tasks) publish the engine identity
    without counters; in-process commands use
    :meth:`repro.exec.ExecutionEngine.describe` instead, which fills the
    same schema with live counters.
    """
    return {
        "kind": kind,
        "scheduler": scheduler,
        "jobs": jobs,
        "source": source,
        "counters": None,
    }


def _resolved_jobs(args: argparse.Namespace) -> int:
    """The worker count ``--jobs`` resolves to.

    A parallel backend without an explicit ``--jobs`` gets one worker per
    CPU — asking for ``--backend thread`` must never silently run serial.
    """
    if args.jobs is not None:
        return args.jobs
    if args.backend in ("thread", "process"):
        return os.cpu_count() or 1
    return 1


def _single_board_experiment(
    args: argparse.Namespace, runs_per_step: int
) -> UndervoltingExperiment:
    """The experiment a single-board command drives, honouring ``--backend``.

    ``serial``/``thread``/``process`` configure the simulated engine's
    scheduler; ``replay`` swaps the backend for a
    :class:`~repro.exec.ReplayBackend` over ``--replay-store``.
    """
    chip = FpgaChip.build(args.platform)
    if args.backend == "replay":
        if not args.replay_store:
            raise ExecError("--backend replay needs --replay-store PATH")
        backend = ReplayBackend.open(
            args.replay_store, platform=chip.name, serial=chip.spec.serial_number
        )
        return UndervoltingExperiment(
            chip,
            runs_per_step=runs_per_step,
            engine=ExecutionEngine(backend),
        )
    return UndervoltingExperiment(
        chip,
        runs_per_step=runs_per_step,
        scheduler=args.backend,
        jobs=_resolved_jobs(args),
    )


def _record_cache(
    args: argparse.Namespace, experiment: UndervoltingExperiment
) -> Optional[EvalCache]:
    """The recording cache of ``--record-store``, if requested."""
    if not getattr(args, "record_store", None):
        return None
    if args.search != "adaptive":
        raise ExecError(
            "--record-store records the evaluation cache, which only the "
            "adaptive search path maintains; drop --search exhaustive"
        )
    return EvalCache(
        platform=experiment.chip.name,
        serial=experiment.chip.spec.serial_number,
    )


def _write_record_store(args: argparse.Namespace, cache: Optional[EvalCache]) -> None:
    """Persist a recording cache as a replayable store document."""
    if cache is None:
        return
    Path(args.record_store).write_text(
        json.dumps(cache.to_document(), indent=2, sort_keys=True) + "\n"
    )


def _backend_footer(experiment: UndervoltingExperiment) -> str:
    """One human-readable line describing the engine that served a command."""
    block = experiment.engine.describe()
    counters = block["counters"]
    return (
        f"  * backend: {block['kind']} ({block['scheduler']} x{block['jobs']}): "
        f"{counters['n_backend_evaluations']} backend evaluations, "
        f"{counters['n_cache_hits']} cache hits"
    )


def _cmd_guardband(args: argparse.Namespace) -> int:
    experiment = _single_board_experiment(args, runs_per_step=args.runs)
    cache = _record_cache(args, experiment)
    payload = {}
    search_documents: List[dict] = []
    for rail in ("VCCBRAM", "VCCINT"):
        # Pattern "FFFF" spells the stored image the way campaign units do,
        # so campaign stores double as replay sources for this command (the
        # bit image is identical to the library default 0xFFFF).
        if args.search == "adaptive":
            # No cross-rail cache sharing happens either way: keys include
            # the rail, and within one rail the two bisections already
            # share probes internally.  A --record-store cache rides along
            # purely to capture the probes for later replay.
            measurement = experiment.discover_guardband_adaptive(
                rail=rail, pattern="FFFF", probe_runs=args.runs, cache=cache
            ).measurement
        else:
            measurement, _ = experiment.discover_guardband(
                rail=rail, pattern="FFFF", probe_runs=args.runs
            )
        search_documents.append(experiment.last_search_report.to_dict())
        payload[rail] = {
            "vnom_v": measurement.nominal_v,
            "vmin_v": measurement.vmin_v,
            "vcrash_v": measurement.vcrash_v,
            "guardband_fraction": measurement.guardband_fraction,
            "power_reduction_factor_at_vmin": measurement.power_reduction_factor_at_vmin,
        }
    _write_record_store(args, cache)
    search = _search_payload(search_documents, args.search)
    if args.json:
        _emit_json({
            "platform": args.platform,
            "rails": payload,
            "search": search,
            "backend": experiment.engine.describe(),
        })
        return 0
    rows = [
        (rail, data["vnom_v"], data["vmin_v"], data["vcrash_v"],
         100 * data["guardband_fraction"], data["power_reduction_factor_at_vmin"])
        for rail, data in payload.items()
    ]
    print(render_table(
        ["rail", "Vnom", "Vmin", "Vcrash", "guardband %", "power x at Vmin"],
        rows,
        title=f"Voltage guardbands of {args.platform} (Fig. 1)",
    ))
    print(
        f"  * {args.search} search: {search['n_evaluations']} fault-field "
        f"evaluations ({search['n_exhaustive_equivalent']} exhaustive-equivalent)"
    )
    print(_backend_footer(experiment))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    experiment = _single_board_experiment(args, runs_per_step=args.runs)
    chip = experiment.chip
    cache = _record_cache(args, experiment)
    if cache is None and args.search == "adaptive":
        cache = EvalCache(platform=chip.name, serial=chip.spec.serial_number)
    result = experiment.critical_region_sweep(
        pattern=args.pattern, n_runs=args.runs, cache=cache
    )
    if getattr(args, "record_store", None):
        _write_record_store(args, cache)
    series = result.as_series()
    if args.json:
        _emit_json({
            "platform": args.platform,
            "pattern": args.pattern,
            "search": _search_payload(
                [experiment.last_search_report.to_dict()], args.search
            ),
            "backend": experiment.engine.describe(),
            "points": [
                {"vccbram_v": v, "faults_per_mbit": rate, "bram_power_w": power}
                for v, rate, power in series
            ],
        })
        return 0
    print(render_table(
        ["VCCBRAM (V)", "faults per Mbit", "BRAM power (W)"],
        series,
        title=f"Critical-region sweep of {args.platform}, pattern {args.pattern} (Fig. 3)",
    ))
    print(_backend_footer(experiment))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    chip = FpgaChip.build(args.platform)
    field = cached_fault_field(chip)
    vcrash = field.calibration.vcrash_bram_v
    patterns = pattern_study(field, vcrash, patterns=STUDY_PATTERNS)
    stability = stability_study(field, vcrash, n_runs=max(2, args.runs))
    variability = variability_study(field, vcrash)
    payload = {
        "platform": args.platform,
        "vcrash_v": vcrash,
        "pattern_rates_per_mbit": patterns.rates_per_mbit,
        "stability": stability.as_table_row(),
        "location_overlap": stability.location_overlap,
        "variability": {
            "max_percent": variability.max_percent,
            "mean_percent": variability.mean_percent,
            "never_faulty_fraction": variability.never_faulty_fraction,
        },
    }
    if args.json:
        _emit_json(payload)
        return 0
    print(render_table(
        ["pattern", "faults per Mbit"],
        [(name, patterns.rate(name)) for name in STUDY_PATTERNS],
        title=f"Data-pattern study of {args.platform} at {vcrash:.2f} V (Fig. 4)",
    ))
    print()
    print(render_table(
        ["metric", "value"],
        list(stability.as_table_row().items()) + [("location overlap", stability.location_overlap)],
        title=f"Stability over {stability.n_runs} runs (Table II)",
    ))
    print()
    print(render_table(
        ["metric", "value"],
        [
            ("max per-BRAM rate (%)", variability.max_percent),
            ("mean per-BRAM rate (%)", variability.mean_percent),
            ("never-faulty BRAMs (%)", 100 * variability.never_faulty_fraction),
        ],
        title="Per-BRAM variability (Fig. 5)",
    ))
    return 0


def _cmd_icbp(args: argparse.Namespace) -> int:
    # Imported lazily: the NN stack is only needed for this sub-command.
    from repro.accelerator import IcbpFlow, PlacementPolicy
    from repro.nn import QuantizedNetwork, SCALED_TOPOLOGY, TrainingConfig, synthetic_mnist, train_network

    chip = FpgaChip.build(args.platform)
    field = cached_fault_field(chip)
    dataset = synthetic_mnist(n_train=args.train_samples, n_test=1000)
    trained = train_network(dataset, topology=SCALED_TOPOLOGY, config=TrainingConfig(seed=3))
    network = QuantizedNetwork.from_network(trained.network)
    flow = IcbpFlow(chip=chip, network=network, dataset=dataset, fault_field=field, max_eval_samples=1000)
    comparison = flow.compare_policies(compile_seeds=range(max(1, args.seeds)))
    default = comparison[PlacementPolicy.DEFAULT]
    icbp = comparison[PlacementPolicy.LAST_LAYER]
    payload = {
        "platform": args.platform,
        "voltage_v": default.voltage_v,
        "baseline_error": default.baseline_error,
        "default_placement": {
            "error": default.classification_error,
            "accuracy_loss": default.accuracy_loss,
        },
        "icbp": {
            "error": icbp.classification_error,
            "accuracy_loss": icbp.accuracy_loss,
            "protected_layers": list(icbp.protected_layers),
        },
        "power_savings_vs_vmin": icbp.power_savings_vs_vmin,
    }
    if args.json:
        _emit_json(payload)
        return 0
    print(render_table(
        ["placement", "error %", "accuracy loss %"],
        [
            ("default", 100 * default.classification_error, 100 * default.accuracy_loss),
            ("ICBP", 100 * icbp.classification_error, 100 * icbp.accuracy_loss),
        ],
        title=(
            f"ICBP vs default placement on {args.platform} at {default.voltage_v:.2f} V "
            f"({100 * icbp.power_savings_vs_vmin:.1f} % BRAM power below Vmin)"
        ),
    ))
    return 0


# ----------------------------------------------------------------------
# Campaign sub-commands
# ----------------------------------------------------------------------
def _resolve_spec(args: argparse.Namespace) -> CampaignSpec:
    """The campaign spec named by ``--spec``, ``--preset`` or ``--name``."""
    given = [
        flag
        for flag, value in (
            ("--spec", args.spec),
            ("--preset", args.preset),
            ("--name", getattr(args, "name", None)),
        )
        if value
    ]
    if len(given) != 1:
        raise CampaignError(
            "give exactly one of --spec PATH, --preset NAME"
            + (" or --name NAME" if hasattr(args, "name") else "")
        )
    if args.spec:
        path = Path(args.spec)
        if not path.exists():
            raise CampaignError(f"campaign spec file {path} does not exist")
        return CampaignSpec.from_json(path.read_text())
    if args.preset:
        return preset_spec(args.preset)
    return open_store(args.name, args.root).load_manifest()


def _print_campaign_progress(event: ProgressEvent) -> None:
    """One stderr line per finished unit (they arrive one die at a time)."""
    fields = event.fields
    print(
        f"  [{fields['done']}/{fields['pending']}] unit {fields['unit_id']} done",
        file=sys.stderr,
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    if args.search and args.search != spec.search:
        # Overriding the knob redefines the campaign (the spec hash, and
        # therefore the store identity, includes the search mode).
        spec = dataclasses.replace(spec, search=args.search)

    events = EventStream()
    if not args.json:
        events.subscribe(_print_campaign_progress)
    report = run_campaign(
        spec,
        root=args.root,
        max_workers=args.jobs,
        scheduler=args.backend,
        store_version=args.store_version,
        events=events,
    )
    if args.json:
        _emit_json(report.to_dict())
        return 0
    store = open_store(spec.name, args.root)
    evaluations = report.evaluations
    print(render_table(
        ["metric", "value"],
        [
            ("campaign", spec.name),
            ("sweep kind", spec.sweep),
            ("search mode", report.search),
            ("spec hash", spec.spec_hash),
            ("units total", report.n_units),
            ("units executed", len(report.executed)),
            ("units skipped (already complete)", len(report.skipped)),
            ("backend", f"simulated ({report.scheduler} x{report.n_workers})"),
            ("workers", report.n_workers),
            ("store layout", f"v{report.store_version}"),
            ("fault-field evaluations", evaluations.get("n_evaluations", 0)),
            ("exhaustive-equivalent evaluations",
             evaluations.get("n_exhaustive_equivalent", 0)),
            ("evaluations saved", evaluations.get("evaluations_saved", 0)),
            ("result store", str(store.directory)),
        ]
        + (
            [("governor bundle", report.governor_bundle)]
            if report.governor_bundle
            else []
        ),
        title=f"Campaign {spec.name}: run complete",
    ))
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    # must_exist=False keeps "spec given, nothing run yet" a valid
    # all-pending status instead of an error.
    status = open_store(spec.name, args.root, must_exist=False).status(spec)
    if args.json:
        _emit_json(status.to_dict())
        return 0
    print(render_table(
        ["metric", "value"],
        [
            ("campaign", status.name),
            ("sweep kind", status.sweep),
            ("spec hash", status.spec_hash),
            ("units total", status.n_units),
            ("units completed", status.n_completed),
            ("units pending", status.n_pending),
            ("complete", "yes" if status.is_complete else "no"),
        ],
        title=f"Campaign {status.name}: status",
    ))
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    report = build_report(open_store(spec.name, args.root), spec)
    if args.json:
        _emit_json(report.to_dict())
        return 0
    # The table path reads only the aggregates — the per-unit rows (lazy on
    # the v2 streaming path) are never materialized here, which is what
    # keeps 'campaign report' sub-second on 100k-die stores.
    scope_rows = [("fleet", metric, dist) for metric, dist in report.fleet.items()] + [
        (platform, metric, dist)
        for platform, dists in report.by_platform.items()
        for metric, dist in dists.items()
    ]
    print(render_table(
        ["scope", "metric", "mean", "min", "max", "p5", "p95"],
        [
            (
                scope,
                metric,
                dist.summary.mean,
                dist.summary.minimum,
                dist.summary.maximum,
                dist.percentiles["p5"],
                dist.percentiles["p95"],
            )
            for scope, metric, dist in scope_rows
        ],
        title=(
            f"Campaign {spec.name}: {report.n_completed}/{spec.n_units} units, "
            f"population statistics ({spec.sweep})"
        ),
    ))
    evaluations = report.evaluations
    if evaluations.get("n_units"):
        print(
            f"  * {spec.search} search: "
            f"{evaluations['n_evaluations']} fault-field evaluations across the fleet "
            f"({evaluations['n_exhaustive_equivalent']} exhaustive-equivalent, "
            f"{evaluations['evaluations_saved']} saved)"
        )
    if report.similarity:
        extremes = similarity_extremes(report.similarity)
        print()
        print(render_table(
            ["metric", "value"],
            sorted(extremes.items()),
            title="Die-to-die FVM similarity across same-part-number pairs (Fig. 7 generalized)",
        ))
    return 0


# ----------------------------------------------------------------------
# Runtime sub-commands
# ----------------------------------------------------------------------
def _runtime_summary_payload(logs, simulator) -> dict:
    """The shared summary block of both runtime ``--json`` documents."""
    from repro.analysis.runtime import policy_comparison, summarize_telemetry

    nominal = simulator.nominal_energy_j()
    floor = simulator.guardband_floor_energy_j()
    summaries = {name: summarize_telemetry(log) for name, log in logs.items()}
    rows = policy_comparison(summaries, nominal, floor, order=list(logs))
    return {
        "baselines": {
            "nominal_energy_j": nominal,
            "guardband_floor_energy_j": floor,
        },
        "policies": {row["policy"]: row for row in rows},
    }


def _print_runtime_table(payload: dict, title: str) -> None:
    """Human-readable policy comparison (shared by run and report)."""
    rows = [
        (
            name,
            row["mean_voltage_v"],
            row["energy_j"],
            100.0 * row["guardband_recovered_fraction"],
            row["faulty_inferences"],
            row["slo_violations"],
            row["crash_steps"],
        )
        for name, row in payload["policies"].items()
    ]
    print(render_table(
        ["policy", "mean V", "energy (J)", "guardband recovered %",
         "faulty inferences", "SLO violations", "crash steps"],
        rows,
        title=title,
    ))


def _cmd_runtime_run(args: argparse.Namespace) -> int:
    # Imported lazily: the runtime stack pulls in the NN/accelerator layers.
    from repro.fpga.platform import fleet_serials
    from repro.nn import (
        QuantizedNetwork,
        SCALED_TOPOLOGY,
        TrainingConfig,
        synthetic_mnist,
        train_network,
    )
    from repro.runtime import FleetSimulator, GovernorBundle, build_trace

    if args.campaign:
        store = open_store(args.campaign, args.root)
        bundle = GovernorBundle.from_campaign(store)
        backend_block = _backend_block("campaign-store", "serial", 1, args.campaign)
    else:
        chips = [
            FpgaChip.build(args.platform, serial=serial)
            for serial in fleet_serials(args.platform, args.chips)
        ]
        # Inline characterization (live adaptive discovery on every die)
        # fans out over the execution layer's scheduling substrate.
        jobs = _resolved_jobs(args)
        bundle = GovernorBundle.from_chips(
            chips, scheduler=args.backend, jobs=jobs
        )
        backend_block = _backend_block("simulated", args.backend, jobs)

    dataset = synthetic_mnist(n_train=args.train_samples, n_test=200)
    trained = train_network(
        dataset, topology=SCALED_TOPOLOGY, config=TrainingConfig(seed=3)
    )
    network = QuantizedNetwork.from_network(trained.network)

    trace = build_trace(args.trace, n_steps=args.steps, seed=args.seed)
    simulator = FleetSimulator(
        bundle,
        network,
        trace,
        icbp=not args.no_icbp,
        capacity_rps=args.capacity_rps,
        core=args.sim_core,
    )
    policies = list(POLICY_NAMES) if args.policy == "all" else [args.policy]
    logs = simulator.run_policies(
        policies,
        scheduler="process" if args.sim_jobs > 1 else "serial",
        jobs=args.sim_jobs,
    )

    if args.save:
        document = {
            "version": 1,
            "trace": trace.to_dict(),
            "bundle": bundle.to_document(),
            "baselines": {
                "nominal_energy_j": simulator.nominal_energy_j(),
                "guardband_floor_energy_j": simulator.guardband_floor_energy_j(),
            },
            "runs": {name: log.to_document() for name, log in logs.items()},
        }
        Path(args.save).write_text(json.dumps(document, indent=2) + "\n")

    payload = {
        "fleet": {
            "n_chips": len(bundle),
            "source": bundle.source,
            "icbp": not args.no_icbp,
        },
        "trace": trace.to_dict(),
        "backend": backend_block,
        **_runtime_summary_payload(logs, simulator),
    }
    if args.json:
        _emit_json(
            payload,
            steps_per_s=0.0 if _COMMAND_T0 is None else round(
                len(logs) * trace.n_steps
                / max(1e-9, time.perf_counter() - _COMMAND_T0),
                3,
            ),
        )
        return 0
    _print_runtime_table(
        payload,
        title=(
            f"Runtime governor on {len(bundle)} chips, {trace.n_steps}-step "
            f"{trace.kind} trace ({payload['fleet']['source']})"
        ),
    )
    return 0


def _cmd_runtime_report(args: argparse.Namespace) -> int:
    from repro.analysis.runtime import (
        guardband_recovery_fraction,
        summarize_telemetry,
    )
    from repro.runtime import TelemetryError, TelemetryLog

    path = Path(args.telemetry)
    if not path.exists():
        raise TelemetryError(f"no telemetry document at {path}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TelemetryError(
            f"telemetry document {path} is not valid JSON: {exc}"
        ) from exc
    logs = {
        name: TelemetryLog.from_document(run)
        for name, run in document.get("runs", {}).items()
    }
    if not logs:
        raise TelemetryError(f"telemetry document {path} holds no runs")

    baselines = document.get("baselines")
    if not baselines:
        raise TelemetryError(
            f"telemetry document {path} carries no energy baselines; "
            "re-save it with 'runtime run --save'"
        )
    nominal = float(baselines["nominal_energy_j"])
    floor = float(baselines["guardband_floor_energy_j"])

    summaries = {name: summarize_telemetry(log) for name, log in logs.items()}
    payload = {
        "telemetry": str(path),
        "trace": dict(document.get("trace", {})),
        "baselines": {
            "nominal_energy_j": nominal,
            "guardband_floor_energy_j": floor,
        },
        "policies": {
            name: {
                **summary.to_dict(),
                "guardband_recovered_fraction": guardband_recovery_fraction(
                    summary, nominal, floor
                ),
            }
            for name, summary in summaries.items()
        },
    }
    if args.json:
        _emit_json(payload)
        return 0
    _print_runtime_table(
        payload, title=f"Runtime telemetry report: {path.name}"
    )
    return 0


def _cmd_runtime_scale(args: argparse.Namespace) -> int:
    # Lazy import: the population engine only needs numpy + the core
    # calibration, but it lives beside the full runtime stack.
    from dataclasses import replace

    import numpy as np

    from repro.runtime.fleetscale import (
        FleetScaleError,
        SyntheticFleet,
        SyntheticFleetSpec,
        guardband_floor_energy_j,
        nominal_energy_j,
        simulate_policies,
    )
    from repro.runtime.workload import build_trace

    trace = build_trace(args.trace, n_steps=args.steps, seed=args.seed)
    load_scale = args.dies / 16.0 if args.load_scale is None else args.load_scale
    if load_scale <= 0:
        raise FleetScaleError("--load-scale must be positive")
    trace = replace(
        trace,
        requests=np.rint(trace.requests * load_scale).astype(np.int64),
    )
    fleet = SyntheticFleet.draw(
        SyntheticFleetSpec(
            n_dies=args.dies, platform=args.platform, seed=args.fleet_seed
        )
    )
    jobs = _resolved_jobs(args)
    policies = list(POLICY_NAMES) if args.policy == "all" else [args.policy]
    results = simulate_policies(
        fleet,
        trace,
        policies,
        capacity_rps=args.capacity_rps,
        core=args.sim_core,
        scheduler=args.backend,
        jobs=jobs,
    )

    nominal = nominal_energy_j(fleet, trace)
    floor = guardband_floor_energy_j(fleet, trace)
    span = max(nominal - floor, 1e-12)
    policy_block = {}
    for name, result in results.items():
        totals = result.totals()
        policy_block[name] = {
            **totals,
            "guardband_recovered_fraction": round(
                (nominal - totals["energy_j"]) / span, 6
            ),
            "digest": result.digest(),
        }
    device_seconds = args.dies * trace.duration_s
    payload = {
        "fleet": {
            "n_dies": args.dies,
            "platform": args.platform,
            "seed": args.fleet_seed,
            "drifted_dies": int(np.sum(fleet.true_vcrash_v > fleet.vmin_v)),
            "crash_first_dies": int(
                np.sum(fleet.max_threshold_v < fleet.true_vcrash_v)
            ),
        },
        "trace": {**trace.to_dict(), "load_scale": load_scale},
        "backend": _backend_block("synthetic-fleet", args.backend, jobs),
        "core": args.sim_core,
        "device_seconds": device_seconds,
        "baselines": {
            "nominal_energy_j": round(nominal, 9),
            "guardband_floor_energy_j": round(floor, 9),
        },
        "policies": policy_block,
    }
    if args.json:
        elapsed = (
            1e-9 if _COMMAND_T0 is None
            else max(1e-9, time.perf_counter() - _COMMAND_T0)
        )
        _emit_json(
            payload,
            device_seconds_per_s=round(
                len(results) * device_seconds / elapsed, 3
            ),
        )
        return 0
    rows = [
        (
            name,
            row["energy_j"],
            100.0 * row["guardband_recovered_fraction"],
            row["faulty_inferences"],
            row["slo_violations"],
            row["crash_steps"],
            row["n_actuations"],
        )
        for name, row in policy_block.items()
    ]
    print(render_table(
        ["policy", "energy (J)", "guardband recovered %", "faulty inferences",
         "SLO violations", "crash steps", "actuations"],
        rows,
        title=(
            f"Population governor comparison: {args.dies} dies, "
            f"{trace.n_steps}-step {trace.kind} trace ({args.sim_core} core)"
        ),
    ))
    return 0


_RUNTIME_COMMANDS = {
    "run": _cmd_runtime_run,
    "report": _cmd_runtime_report,
    "scale": _cmd_runtime_scale,
}


def _cmd_runtime(args: argparse.Namespace) -> int:
    from repro.fpga.platform import PlatformError
    from repro.runtime import (
        CharacterizationError,
        GovernorError,
        SimulationError,
        TelemetryError,
        TraceError,
    )

    try:
        return _RUNTIME_COMMANDS[args.runtime_command](args)
    except (
        CampaignError,
        CharacterizationError,
        ExecError,
        GovernorError,
        PlatformError,
        SimulationError,
        TelemetryError,
        TraceError,
        OSError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_campaign_migrate(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    report = migrate_store(spec.name, args.root, keep_v1=args.keep_v1)
    if args.json:
        _emit_json(report.to_dict())
        return 0
    rows = [
        ("campaign", report.name),
        ("root", report.root),
        ("store layout", f"v{report.from_version} -> v{report.to_version}"),
        ("already v2 (no-op)", "yes" if report.already_v2 else "no"),
        ("units migrated", report.n_units),
        ("segments", report.n_segments),
    ]
    if report.digest:
        rows.append(("verified digest", report.digest))
    if report.backup:
        rows.append(("v1 backup", report.backup))
    print(render_table(
        ["metric", "value"],
        rows,
        title=f"Campaign {report.name}: store migration",
    ))
    return 0


_CAMPAIGN_COMMANDS = {
    "run": _cmd_campaign_run,
    "status": _cmd_campaign_status,
    "report": _cmd_campaign_report,
    "migrate": _cmd_campaign_migrate,
}


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        return _CAMPAIGN_COMMANDS[args.campaign_command](args)
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


async def _serve_forever(app: Any, host: str, port: int) -> None:
    """Bind the service, print the ready line, run until SIGINT/SIGTERM."""
    import asyncio
    import signal

    from repro.service import start_service

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix event loops
            pass
    server = await start_service(app, host=host, port=port)
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    # The ready line is the startup contract: scripts (the CI smoke step)
    # wait for it before sending traffic, and it carries the actual port
    # when --port 0 asked for an ephemeral one.
    print(
        f"serving {len(app.service.bundle)} dies on "
        f"http://{bound_host}:{bound_port} "
        f"({len(app.routes)} endpoints; SIGINT/SIGTERM to stop)",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        current = asyncio.current_task()
        lingering = [task for task in asyncio.all_tasks() if task is not current]
        for task in lingering:
            task.cancel()
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime.characterization import CharacterizationError
    from repro.service import FleetService, ServiceApp, ServiceError

    try:
        if args.store:
            service = FleetService.from_campaign(
                args.store, args.root, engine_workers=args.engine_workers
            )
        else:
            service = FleetService.from_bundle_file(
                args.bundle, engine_workers=args.engine_workers
            )
    except (CampaignError, CharacterizationError, ServiceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    app = ServiceApp(service)
    try:
        asyncio.run(_serve_forever(app, args.host, args.port))
    except OSError as error:  # e.g. port already bound
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        service.close()
    return 0


# ----------------------------------------------------------------------
# Trace sub-commands
# ----------------------------------------------------------------------
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import TraceError, render_summary_table, summarize_trace

    try:
        document = summarize_trace(args.path)
    except (TraceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(document)
        return 0
    print(render_summary_table(document))
    return 0


_COMMANDS = {
    "guardband": _cmd_guardband,
    "sweep": _cmd_sweep,
    "characterize": _cmd_characterize,
    "icbp": _cmd_icbp,
    "campaign": _cmd_campaign,
    "runtime": _cmd_runtime,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
}


def _install_observability(args: argparse.Namespace):
    """Honour ``--obs-trace``/``--obs-metrics``; returns the teardown hook.

    Installation happens before the command runs, teardown after it
    returns (including on error paths): the trace recorder is closed and
    reset, and the metrics registry — stamped with build info — is
    rendered to its output path and switched back off.
    """
    trace_path = getattr(args, "obs_trace", None)
    metrics_path = getattr(args, "obs_metrics", None)
    if trace_path:
        from repro.obs import install_trace

        install_trace(trace_path)
    if metrics_path:
        from repro.obs import build_info, enable

        build_info(__version__, enable())

    def teardown() -> None:
        if metrics_path:
            from repro.obs import disable, get_registry

            registry = get_registry()
            if registry is not None:
                Path(metrics_path).write_text(registry.render())
            disable()
        if trace_path:
            from repro.obs import reset_recorder

            reset_recorder()

    return teardown


#: Count flags (by argparse ``dest``) that must be at least 1.
_COUNT_FLAGS = ("jobs", "runs", "steps", "dies", "sim_jobs", "engine_workers")


def _flag_problem(args: argparse.Namespace) -> Optional[str]:
    """What is wrong with a parsed flag value, naming the flag as typed.

    Checked before any command runs, so a bad value fails as one line
    instead of a traceback from deep inside the model.
    """
    for dest in _COUNT_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            return f"--{dest.replace('_', '-')} must be at least 1"
    capacity_rps = getattr(args, "capacity_rps", None)
    if capacity_rps is not None and not capacity_rps > 0:
        return "--capacity-rps must be positive"
    if getattr(args, "pattern", None) is not None:
        try:
            data_pattern(args.pattern, rows=1)
        except BramError as error:
            return f"--pattern: {error}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-undervolt`` console script."""
    global _COMMAND_T0
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _flag_problem(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    _COMMAND_T0 = time.perf_counter()
    teardown = _install_observability(args)
    try:
        return _COMMANDS[args.command](args)
    except ExecError as error:
        # Execution-layer misconfiguration (bad backend/replay request) is
        # operator input, not a crash: one line, non-zero exit.
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        teardown()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
