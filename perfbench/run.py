"""The repository benchmark: four workloads over the undervolting stack.

Run from the repository root::

    python3 perfbench/run.py --workload characterize --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``characterize`` -- a cold guardband ``run_campaign`` over 96 fresh dies
  (32 each of ZC702, KC705-A, VC707), one unit per die, store v2;
* ``study`` -- a Listing 1 ``sweep`` campaign: 12 dies x 4 temperatures x
  5 data patterns = 240 units;
* ``scale`` -- ``SyntheticFleet.draw`` plus ``simulate_policies`` (all four
  policies, event core) on 200k dies over a 720-step sparse-diurnal trace;
* ``serve`` -- ``repro-undervolt serve`` as a subprocess over a 20k-die
  synthetic v2 store, 2 closed-loop keep-alive connections sending 100k
  pre-generated requests (45% safe-vmin, 45% guardband, 7% FVM and 3% FVM
  similarity on 16 warmed dies).

The seed picks the die serials, the fleet and trace seeds and the request
sequence; the program sees only those generated inputs.  Every pass runs in
a fresh interpreter (the ``serve`` pass: a fresh server), so no die, field
or allocator state carries from one pass to the next.  Every store root is
a fresh directory under ``.perfbench_runs/``, on a tmpfs mounted there in a
mount namespace private to the run (on ext4 the kernel time of each file
create swings 10x with earlier deletes; the rename cost that tmpfs hides is
measured on the checkout's own filesystem and reported).  Where the kernel
refuses the namespace, the run stays on the checkout's filesystem and says
so.  Work runs serially on one worker.  Passes repeat until ``--seconds`` have
passed (at least three); the run reports medians.

``--trace 0`` prints the end-to-end metrics: throughput in the workload's
operation, set-up time (spawn until ready, median over passes) and the peak
RSS of the process tree.  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer split (see ``spans.py``).  Outputs are
checked on every pass; at ``DEFAULT_SEED`` their digests must also match
``pinned.json``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple
from urllib.parse import urlencode

import loadgen
import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("characterize", "study", "scale", "serve")
PLATFORMS = ("ZC702", "KC705-A", "VC707")
#: The seed whose output digests ``pinned.json`` records.
DEFAULT_SEED = 0
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150.0

SERVE_STORE = "fleet20k"
SERVE_DIES = 20_000
SERVE_REQUESTS = 100_000
SERVE_CONNECTIONS = 2
HOT_DIES = 16
ENDPOINTS = ("/v1/safe-vmin", "/v1/guardband", "/v1/fvm", "/v1/fvm-similarity")

#: The workload's operation, as named in its throughput line.
THROUGHPUT = {
    "characterize": "dies_per_s",
    "study": "units_per_s",
    "scale": "die_steps_per_s",
    "serve": "requests_per_s",
}

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "fpga.build_calls": "count",
    "fpga.build_s": "s",
    "fpga.fill_calls": "count",
    "fpga.fill_s": "s",
    "core.table_builds": "count",
    "core.table_build_s": "s",
    "core.field_s": "s",
    "core.field_hit_ratio": "ratio",
    "exec.requests": "count",
    "exec.cache_hit_ratio": "ratio",
    "exec.backend_calls": "count",
    "exec.backend_self_s": "s",
    "exec.engine_self_s": "s",
    "search.evaluations": "count",
    "search.eval_ratio": "ratio",
    "harness.discover_self_s": "s",
    "harness.sweep_self_s": "s",
    "store.open_s": "s",
    "store.save_s": "s",
    "store.cache_saves": "count",
    "store.cache_rewrites": "count",
    "store.cache_save_s": "s",
    "store.cache_load_s": "s",
    "store.bytes_written": "B",
    "store.rename_over_ms": "ms",
    "store.rename_new_ms": "ms",
    "campaign.self_s": "s",
    "runtime.bundle_load_s": "s",
    "runtime.draw_s": "s",
    "runtime.static_nominal_s": "s",
    "runtime.static_undervolt_s": "s",
    "runtime.reactive_s": "s",
    "runtime.predictive_s": "s",
    "runtime.reactive_actuations_per_s": "1/s",
    "service.ready_s": "s",
    "service.warmup_s": "s",
    "service.safe_vmin_p50_ms": "ms",
    "service.guardband_p50_ms": "ms",
    "service.fvm_p50_ms": "ms",
    "service.similarity_p50_ms": "ms",
    "service.p50_ms": "ms",
    "service.p99_ms": "ms",
    "service.p999_ms": "ms",
    "service.server_cpu_share": "ratio",
    "service.generator_cpu_share": "ratio",
    "service.backend_evaluations": "count",
    "cli.import_s": "s",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


class BenchError(RuntimeError):
    """A pass could not run; the benchmark exits without a result."""


@dataclass
class Pass:
    """What one timed pass measured."""

    wall_s: float
    ops: int
    failed: int
    setup_s: float
    peak_rss_mb: float
    digest: str
    traced: bool
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The workload's inputs, a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("characterize", "study"):
        per_platform = 32 if workload == "characterize" else 4
        return {
            "dies": {
                platform: [f"S{n:08x}" for n in rng.sample(range(1 << 32), per_platform)]
                for platform in PLATFORMS
            }
        }
    if workload == "scale":
        return {
            "n_dies": 200_000,
            "n_steps": 720,
            "fleet_seed": rng.randrange(1 << 31),
            "trace_seed": rng.randrange(1 << 31),
        }
    return {"store": SERVE_STORE, "n_dies": SERVE_DIES}


def _path(endpoint: str, **query: Any) -> str:
    return f"{endpoint}?{urlencode(query)}"


def serve_traffic(
    roster: Sequence[Sequence[str]], seed: int
) -> Tuple[List[Tuple[str, str]], List[loadgen.Request], List[str]]:
    """Hot dies, the request sequence and the probe paths for one seed."""
    rng = random.Random(f"serve:{seed}")
    hot = rng.sample([tuple(chip) for chip in roster], HOT_DIES)
    requests: List[loadgen.Request] = []
    for _ in range(SERVE_REQUESTS):
        draw = rng.random()
        if draw < 0.90:
            platform, serial = rng.choice(roster)
            if draw < 0.45:
                temperature = rng.randrange(40, 181) / 2.0
                path = _path(ENDPOINTS[0], platform=platform, serial=serial, temperature_c=temperature)
                requests.append((0, loadgen.encode(path), serial))
            else:
                path = _path(ENDPOINTS[1], platform=platform, serial=serial)
                requests.append((1, loadgen.encode(path), serial))
        elif draw < 0.97:
            platform, serial = rng.choice(hot)
            requests.append((2, loadgen.encode(_path(ENDPOINTS[2], platform=platform, serial=serial)), serial))
        else:
            (platform, first), (_, second) = rng.sample(hot, 2)
            path = _path(ENDPOINTS[3], platform=platform, serial_a=first, serial_b=second)
            requests.append((3, loadgen.encode(path), first))
    probes = []
    for platform, serial in (roster[0], roster[len(roster) // 2], roster[-1]):
        probes.append(_path(ENDPOINTS[1], platform=platform, serial=serial))
        for temperature in (25.0, 85.0):
            probes.append(
                _path(ENDPOINTS[0], platform=platform, serial=serial, temperature_c=temperature)
            )
    probes.append(_path(ENDPOINTS[2], platform=hot[0][0], serial=hot[0][1]))
    probes.append(_path(ENDPOINTS[3], platform=hot[0][0], serial_a=hot[0][1], serial_b=hot[1][1]))
    return hot, requests, probes


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def read_line(proc: subprocess.Popen, what: str) -> bytes:
    """The child's next stdout line, waiting at most ``CHILD_TIMEOUT_S``."""
    readable, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
    line = proc.stdout.readline() if readable else b""
    if not line:
        raise BenchError(f"{what} printed no ready line")
    return line


def stop(proc: subprocess.Popen) -> None:
    """Terminate a child if it still runs and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _proc_status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {key}")


def _proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process (all threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _own_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    target, best, kind = str(path.resolve()), "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


#: ``unshare``/``mount`` flags (linux/sched.h, linux/mount.h).
CLONE_NEWNS = 0x00020000
MS_REC = 0x4000
MS_PRIVATE = 0x40000
MNT_DETACH = 0x2


def _libc() -> ctypes.CDLL:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.unshare.argtypes = [ctypes.c_int]
    libc.unshare.restype = ctypes.c_int
    libc.mount.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
                           ctypes.c_ulong, ctypes.c_char_p]
    libc.mount.restype = ctypes.c_int
    libc.umount2.argtypes = [ctypes.c_char_p, ctypes.c_int]
    libc.umount2.restype = ctypes.c_int
    return libc


def mount_private_tmpfs(directory: Path) -> bool:
    """Mount a tmpfs on ``directory`` that only this process tree sees.

    The process moves into a mount namespace of its own first, with every
    mount private, so nothing outside the run sees the tmpfs and it is gone
    once the run's last process exits.  Returns whether it is mounted.
    """
    libc = _libc()
    if libc.unshare(CLONE_NEWNS) != 0:
        return False
    if libc.mount(b"none", b"/", None, MS_REC | MS_PRIVATE, None) != 0:
        return False
    return libc.mount(b"tmpfs", str(directory).encode(), b"tmpfs", 0, b"size=1g,mode=0700") == 0


def unmount(directory: Path) -> None:
    _libc().umount2(str(directory).encode(), MNT_DETACH)


def rename_costs_ms(directory: Path) -> Tuple[float, float]:
    """Median cost of a store-style rename over an existing file and to a new name."""
    target, data = directory / "rename-probe.json", b"0" * 16384
    target.write_bytes(data)
    over, new = [], []
    for index in range(3):
        for samples, destination in ((over, target), (new, directory / f"rename-new-{index}.json")):
            staged = directory / "rename-probe.json.tmp"
            staged.write_bytes(data)
            began = time.perf_counter()
            os.replace(staged, destination)
            samples.append((time.perf_counter() - began) * 1e3)
    return statistics.median(over), statistics.median(new)


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of sorted samples (0 when there are none)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))]


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """One benchmark invocation: inputs, passes, checks and the result."""

    def __init__(self, args: argparse.Namespace, checkout: Path) -> None:
        self.workload, self.seed = args.workload, args.seed
        self.seconds, self.trace = args.seconds, bool(args.trace)
        self.checkout = checkout
        self.run_dir = checkout / ".perfbench_runs" / f"{self.workload}-{os.getpid()}"
        #: Beside the tmpfs, on the checkout's own filesystem.
        self.disk_dir = self.run_dir.with_name(self.run_dir.name + "-disk")
        self.mounted = False
        self.inputs_path = self.run_dir / "inputs.json"
        path = [str(checkout / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(p for p in path if p),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.pinned = json.loads((HERE / "pinned.json").read_text())
        self.problems: List[str] = []
        self.serve_dir = self.run_dir / "serve"
        self.hot: List[Tuple[str, str]] = []
        self.requests: List[loadgen.Request] = []
        self.probes: List[str] = []

    # -- children ------------------------------------------------------
    def worker(self, task: str, pass_dir: Path, traced: bool = False) -> Tuple[float, Dict[str, Any]]:
        """Run ``worker.py``; returns (spawn-to-ready seconds, its result)."""
        argv = [sys.executable, str(HERE / "worker.py"), task, str(self.inputs_path),
                str(pass_dir), "1" if traced else "0"]
        began = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=self.checkout, env=self.env, bufsize=0)
        try:
            read_line(proc, f"worker {task}")
            setup_s = time.perf_counter() - began
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker {task} exited with status {proc.returncode}")
        return setup_s, json.loads(out.decode().splitlines()[-1])

    def cli_import_s(self) -> float:
        """Median time of ``import repro.cli`` in three fresh interpreters."""
        code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
        samples = []
        for _ in range(3):
            done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, check=True,
                                  cwd=self.checkout, env=self.env, timeout=CHILD_TIMEOUT_S)
            samples.append(float(done.stdout))
        return statistics.median(samples)

    # -- passes --------------------------------------------------------
    def batch_pass(self, index: int, traced: bool) -> Pass:
        pass_dir = self.run_dir / f"pass-{index}"
        pass_dir.mkdir()
        try:
            setup_s, result = self.worker(self.workload, pass_dir, traced)
            layers = {}
            if traced:
                document = json.loads((pass_dir / "trace.json").read_text())
                layers = spans.layer_metrics(document, result["wall_s"])
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        return Pass(
            wall_s=result["wall_s"],
            ops=result["ops"],
            failed=result["ops"] if result["problems"] else 0,
            setup_s=setup_s,
            peak_rss_mb=(_own_peak_kb() + result["peak_rss_kb"]) / 1024.0,
            digest=result["digest"],
            traced=traced,
            problems=result["problems"],
            layers=layers,
            extra=result["extra"],
        )

    def prepare_serve(self) -> None:
        """Write the store once per run and generate the traffic."""
        _, built = self.worker("serve-store", self.serve_dir)
        if not built["index_written"]:
            self.problems.append("the serve store has no index.json")
        if built["store_digest"] != self.pinned["serve_store"]:
            self.problems.append(f"serve store digest {built['store_digest']} is not the pinned one")
        self.hot, self.requests, self.probes = serve_traffic(built["roster"], self.seed)

    def serve_pass(self, index: int, traced: bool) -> Pass:
        argv = [sys.executable, "-m", "repro.cli", "serve", "--store", SERVE_STORE,
                "--root", str(self.serve_dir / "store"), "--port", "0"]
        began = time.perf_counter()
        server = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=self.checkout, env=self.env, bufsize=0)
        try:
            line = read_line(server, "serve").decode()
            ready_s = time.perf_counter() - began
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            with loadgen.Connection(port) as control:
                for platform, serial in self.hot:
                    control.get_json(_path(ENDPOINTS[2], platform=platform, serial=serial))
                setup_s = time.perf_counter() - began
                before = control.get_json("/stats")
                server_cpu, own_cpu = _proc_cpu_s(server.pid), _own_cpu_s()
                wall_s, latencies, failed = loadgen.closed_loop(port, self.requests, SERVE_CONNECTIONS)
                server_cpu = _proc_cpu_s(server.pid) - server_cpu
                own_cpu = _own_cpu_s() - own_cpu
                after = control.get_json("/stats")
                digest = hashlib.sha256()
                for path in self.probes:
                    status, body = control.exchange(loadgen.encode(path))
                    digest.update(f"{path} {status}\n".encode() + body + b"\n")
            server_peak_kb = _proc_status_kb(server.pid, "VmHWM")
        finally:
            stop(server)

        problems = self.serve_problems(before, after)
        per_kind: Dict[int, List[float]] = {kind: [] for kind in range(len(ENDPOINTS))}
        for (kind, _, _), latency in zip(self.requests, latencies):
            if latency is not None:
                per_kind[kind].append(latency * 1e3)
        ordered = sorted(ms for samples in per_kind.values() for ms in samples)
        server_share = server_cpu / wall_s
        evaluations = (after["backend"]["counters"]["n_backend_evaluations"]
                       - before["backend"]["counters"]["n_backend_evaluations"])
        layers = {
            "service.ready_s": ready_s,
            "service.warmup_s": setup_s - ready_s,
            "service.p50_ms": percentile(ordered, 0.50),
            "service.p99_ms": percentile(ordered, 0.99),
            "service.p999_ms": percentile(ordered, 0.999),
            "service.server_cpu_share": server_share,
            "service.generator_cpu_share": own_cpu / wall_s,
            "service.backend_evaluations": evaluations,
            "trace.unattributed_share": 1.0 - server_share,
        }
        for kind, name in enumerate(loadgen.KINDS):
            samples = sorted(per_kind[kind])
            layers[f"service.{name}_p50_ms"] = percentile(samples, 0.5)
        return Pass(
            wall_s=wall_s,
            ops=len(self.requests),
            failed=failed,
            setup_s=setup_s,
            peak_rss_mb=(_own_peak_kb() + server_peak_kb) / 1024.0,
            digest=digest.hexdigest(),
            traced=traced,
            problems=problems,
            layers=layers,
        )

    def serve_problems(self, before: Dict[str, Any], after: Dict[str, Any]) -> List[str]:
        """Check the server answered exactly the sent requests, error-free."""
        problems = []
        sent = [0] * len(ENDPOINTS)
        for kind, _, _ in self.requests:
            sent[kind] += 1
        for endpoint, expected in zip(ENDPOINTS, sent):
            counts = [doc["service"]["endpoints"].get(endpoint, {}) for doc in (before, after)]
            served = counts[1].get("n_requests", 0) - counts[0].get("n_requests", 0)
            errors = counts[1].get("n_errors", 0) - counts[0].get("n_errors", 0)
            if served != expected or errors:
                problems.append(f"{endpoint}: served {served} of {expected}, {errors} errors")
        return problems

    def passes(self, one_pass: Callable[[int, bool], Pass]) -> List[Pass]:
        """Repeat passes for ``--seconds`` (traced runs alternate with untraced)."""
        done: List[Pass] = []
        minimum = MIN_PASSES + 1 if self.trace else MIN_PASSES
        began = time.perf_counter()
        while len(done) < minimum or time.perf_counter() - began < self.seconds:
            traced = self.trace and len(done) % 2 == 1
            done.append(one_pass(len(done), traced))
            last = done[-1]
            print(f"pass {len(done) - 1}{' traced' if traced else ''}: wall_s={last.wall_s:.4f} "
                  f"ops={last.ops} setup_s={last.setup_s:.4f} peak_rss_mb={last.peak_rss_mb:.1f}")
        return done

    # -- the result ----------------------------------------------------
    def execute(self) -> Dict[str, Any]:
        self.run_dir.mkdir(parents=True)
        self.disk_dir.mkdir()
        self.mounted = mount_private_tmpfs(self.run_dir)
        self.inputs_path.write_text(json.dumps(make_inputs(self.workload, self.seed)))
        if self.workload == "serve":
            self.prepare_serve()
        print(f"env nproc={len(os.sched_getaffinity(0))} fs={filesystem(self.run_dir)} "
              f"checkout_fs={filesystem(self.disk_dir)} "
              f"python={sys.version.split()[0]} numpy={metadata.version('numpy')} "
              "scheduler=serial jobs=1 store_version=2 PYTHONHASHSEED=0 blas_threads=1")
        passes = self.passes(self.serve_pass if self.workload == "serve" else self.batch_pass)
        return self.result(passes)

    def result(self, passes: List[Pass]) -> Dict[str, Any]:
        problems = list(self.problems)
        for index, one in enumerate(passes):
            problems.extend(f"pass {index}: {p}" for p in one.problems)
        digests = sorted({one.digest for one in passes})
        if len(digests) > 1:
            problems.append(f"passes disagree on the output digest: {digests}")
        if self.seed == DEFAULT_SEED and digests[0] != self.pinned[self.workload]:
            problems.append(f"digest {digests[0]} is not the pinned {self.pinned[self.workload]}")
        attempted = sum(one.ops for one in passes)
        failed = attempted if problems else sum(one.failed for one in passes)
        for problem in problems:
            print(f"check failed: {problem}")
        print(f"digest {self.workload} {digests[0]}")

        untraced = [one for one in passes if not one.traced]
        values: Dict[str, float] = {
            "ops_per_s": statistics.median(one.ops / one.wall_s for one in untraced),
            "setup_s": statistics.median(one.setup_s for one in passes),
            "peak_rss_mb": max(one.peak_rss_mb for one in untraced),
        }
        print(f"{self.workload} {THROUGHPUT[self.workload]} = {values['ops_per_s']:.6g} 1/s")
        print(f"{self.workload} setup_s = {values['setup_s']:.4f} s")
        print(f"{self.workload} peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
        print(f"{self.workload} error_rate = {failed / attempted:.6g} ratio")
        if self.workload == "serve":
            for name in ("p50_ms", "p99_ms", "p999_ms"):
                value = statistics.median(one.layers[f"service.{name}"] for one in untraced)
                print(f"serve {name} = {value:.4f} ms")
        units = END_TO_END
        if self.trace:
            values = self.layer_values(passes)
            units = PER_LAYER
        return {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }

    def cleanup(self) -> None:
        """Remove every file the run wrote."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if self.mounted:
            unmount(self.run_dir)
            shutil.rmtree(self.run_dir, ignore_errors=True)
        shutil.rmtree(self.disk_dir, ignore_errors=True)

    def layer_values(self, passes: List[Pass]) -> Dict[str, float]:
        """Per-layer metrics: medians over traced passes plus run-level probes."""
        traced = [one for one in passes if one.traced]
        untraced = [one for one in passes if not one.traced]
        # A layer the workload never enters reads 0.
        measured = [{**one.extra, **one.layers} for one in traced]
        values = {name: statistics.median(m.get(name, 0.0) for m in measured) for name in PER_LAYER}
        if self.workload == "scale":
            values["runtime.reactive_actuations_per_s"] = statistics.median(
                one.extra["runtime.reactive_actuations"] / one.layers["runtime.reactive_s"]
                for one in traced
            )
        if self.workload == "serve":
            _, split = self.worker("serve-split", self.serve_dir)
            values["store.open_s"] = split["store.open_s"]
            values["runtime.bundle_load_s"] = split["runtime.bundle_load_s"]
        values["trace.overhead_share"] = (
            statistics.median(one.wall_s for one in traced)
            / statistics.median(one.wall_s for one in untraced)
            - 1.0
        )
        values["cli.import_s"] = self.cli_import_s()
        values["store.rename_over_ms"], values["store.rename_new_ms"] = rename_costs_ms(self.disk_dir)
        return values


def check_manifest(checkout: Path) -> None:
    """Fail fast when ``BENCHMARK.json`` and this script disagree on metrics."""
    manifest = json.loads((checkout / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in manifest[key]}
        if listed != table:
            raise BenchError(f"BENCHMARK.json {key} does not match perfbench/run.py")


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    run = Run(args, checkout)
    try:
        check_manifest(checkout)
        result = run.execute()
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
