"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py TASK INPUTS PASS_DIR TRACED

TASK is ``characterize``, ``study`` or ``scale`` (one timed pass), or a
``serve`` helper: ``serve-store`` writes the synthetic store the server
opens, ``serve-split`` times opening it in-process.  The worker imports the
program, prepares its inputs from the INPUTS JSON file, prints ``ready``,
runs the timed pass (wrapped in span tracing when TRACED is ``1``), checks
the outputs untimed, and prints one JSON result line.  Every store root
lives under PASS_DIR.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import spans

Check = Callable[[Any], Tuple[int, str, Dict[str, float], List[str]]]


def _canonical(document: Any) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def campaign_pass(workload: str, inputs: Dict[str, Any], root: Path) -> Tuple[Callable, Check]:
    """A cold serial campaign on a fresh v2 store: guardband or Listing 1 sweep."""
    import repro.campaign as campaign
    from repro.campaign import CampaignSpec, ChipGroup, build_report, open_store
    from repro.core import STUDY_PATTERNS, STUDY_TEMPERATURES_C

    groups = tuple(
        ChipGroup(platform=platform, serials=tuple(serials))
        for platform, serials in inputs["dies"].items()
    )
    if workload == "characterize":
        spec = CampaignSpec(name=workload, groups=groups, sweep="guardband")
    else:
        # Exhaustive: on a cold store a die's units never share an operating
        # point, so the adaptive eval cache could only add rewrites.
        spec = CampaignSpec(
            name=workload,
            groups=groups,
            sweep="sweep",
            temperatures_c=STUDY_TEMPERATURES_C,
            patterns=STUDY_PATTERNS,
            search="exhaustive",
        )

    def run() -> Any:
        # Called through the package so a traced pass sees the wrapper.
        return campaign.run_campaign(
            spec, root=root, max_workers=1, scheduler="serial", store_version=2
        )

    def check(report: Any) -> Tuple[int, str, Dict[str, float], List[str]]:
        problems = []
        if report.skipped or len(report.executed) != spec.n_units:
            problems.append(
                f"{len(report.executed)} of {spec.n_units} units executed, "
                f"{len(report.skipped)} skipped"
            )
        store = open_store(spec.name, root)
        document = build_report(store, spec).to_dict()
        if not document["complete"]:
            problems.append("the campaign report is incomplete")
        # Search accounting depends on the schedule and store layout, not on
        # the answers; the digest covers the answers only.
        for key in ("store", "evaluations"):
            document.pop(key, None)
        digest = hashlib.sha256(_canonical(document))
        for unit in spec.expand():
            result = store.load(unit)
            summary = {k: v for k, v in result.summary.items() if k != "search"}
            digest.update(_canonical([result.unit_id, summary]))
            for name in sorted(result.arrays):
                array = result.arrays[name]
                digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
                digest.update(array.tobytes())
        evaluations = report.evaluations
        exhaustive = evaluations.get("n_exhaustive_equivalent", 0)
        extra = {
            "search.evaluations": evaluations.get("n_evaluations", 0),
            "search.eval_ratio": (
                evaluations.get("n_evaluations", 0) / exhaustive if exhaustive else 0.0
            ),
        }
        return spec.n_units, digest.hexdigest(), extra, problems

    return run, check


def scale_pass(inputs: Dict[str, Any], root: Path) -> Tuple[Callable, Check]:
    """``SyntheticFleet.draw`` plus all four policies on the event core."""
    from dataclasses import replace

    import numpy as np
    from repro.runtime.fleetscale import SyntheticFleet, SyntheticFleetSpec, simulate_policies
    from repro.runtime.workload import build_trace

    n_dies = inputs["n_dies"]
    trace = build_trace("sparse-diurnal", n_steps=inputs["n_steps"], seed=inputs["trace_seed"])
    # The CLI's default load scale: per-die load stays at the 16-die study's.
    trace = replace(trace, requests=np.rint(trace.requests * (n_dies / 16.0)).astype(np.int64))
    fleet_spec = SyntheticFleetSpec(n_dies=n_dies, seed=inputs["fleet_seed"])

    def run() -> Any:
        fleet = SyntheticFleet.draw(fleet_spec)
        return simulate_policies(fleet, trace, core="event", scheduler="serial", jobs=1)

    def check(results: Any) -> Tuple[int, str, Dict[str, float], List[str]]:
        problems = []
        if sorted(results) != sorted(spans.POLICIES):
            problems.append(f"policies {sorted(results)} simulated")
        digest = hashlib.sha256()
        for policy in sorted(results):
            totals = results[policy].totals()
            if totals["n_dies"] != n_dies or not 0 <= totals["served"] <= totals["requests"]:
                problems.append(f"{policy}: {totals}")
            if totals["served"] + totals["slo_violations"] != totals["requests"]:
                problems.append(f"{policy}: served + slo_violations != requests")
            digest.update(f"{policy}:{results[policy].digest()}".encode())
        extra = {"runtime.reactive_actuations": results["reactive"].totals()["n_actuations"]}
        return len(results) * n_dies * trace.n_steps, digest.hexdigest(), extra, problems

    return run, check


def serve_store(inputs: Dict[str, Any], root: Path) -> Dict[str, Any]:
    """Write the synthetic v2 guardband store the server opens (untimed input)."""
    from repro.campaign import open_store_for_spec
    from repro.campaign.synthetic import synthetic_fleet_spec, synthetic_result_batches

    spec = synthetic_fleet_spec(inputs["n_dies"], name=inputs["store"])
    store = open_store_for_spec(spec, root, store_version=2)
    for batch in synthetic_result_batches(spec):
        store.save_many(batch)
    # Byte identity of every file: the server must open the same store.
    files = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        files.update(f"{path.relative_to(root)}\n".encode() + path.read_bytes())
    return {
        "roster": [list(chip) for chip in spec.chips()],
        "index_written": store.index_path.is_file(),
        "store_digest": files.hexdigest(),
    }


def serve_split(inputs: Dict[str, Any], root: Path) -> Dict[str, Any]:
    """Time the server's set-up steps in-process on the same store."""
    from repro.campaign import open_store
    from repro.runtime import GovernorBundle

    opens, loads = [], []
    for _ in range(3):
        started = time.perf_counter()
        store = open_store(inputs["store"], root)
        opened = time.perf_counter()
        bundle = GovernorBundle.from_campaign(store)
        opens.append(opened - started)
        loads.append(time.perf_counter() - opened)
    return {
        "store.open_s": statistics.median(opens),
        "runtime.bundle_load_s": statistics.median(loads),
        "n_dies": len(bundle),
    }


def main(argv: List[str]) -> int:
    task, inputs_path, pass_dir, traced = argv[1], Path(argv[2]), Path(argv[3]), argv[4] == "1"
    inputs = json.loads(inputs_path.read_text())
    root = pass_dir / "store"
    if task in ("serve-store", "serve-split"):
        print("ready", flush=True)
        helper = serve_store if task == "serve-store" else serve_split
        print(json.dumps(helper(inputs, root)))
        return 0
    if task == "scale":
        run, check = scale_pass(inputs, root)
    else:
        run, check = campaign_pass(task, inputs, root)
    print("ready", flush=True)

    recorder = spans.Recorder().install() if traced else None
    started = time.perf_counter()
    try:
        outcome = run()
        wall_s = time.perf_counter() - started
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops, digest, extra, problems = check(outcome)
    if recorder is not None:
        (pass_dir / "trace.json").write_text(json.dumps(recorder.document()))
    print(
        json.dumps(
            {
                "wall_s": wall_s,
                "ops": ops,
                "digest": digest,
                "problems": problems,
                "peak_rss_kb": peak_rss_kb,
                "extra": extra,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
