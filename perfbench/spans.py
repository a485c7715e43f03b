"""In-memory span tracing for the benchmark's traced passes.

The benchmark never edits the program.  A traced pass replaces each measured
public function with a wrapper -- on the class or module that defines it and
under every name another module imported it as -- and restores the originals
afterwards.  Each call records one span row ``[name, start, end, parent]``
in memory; :meth:`Recorder.document` hands the rows out when the pass ends.
A span's self time is its duration minus the time its child spans cover,
which :func:`layer_metrics` turns into the per-layer split.
"""

from __future__ import annotations

import functools
import sys
import time
import types
import weakref
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Policies of ``simulate_policies``; each one's fleet run gets its own span.
POLICIES = ("static-nominal", "static-undervolt", "reactive", "predictive")


def _written_bytes() -> int:
    """Bytes this process has passed to write(2) so far (Linux /proc)."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class Recorder:
    """Installs the layer wrappers and keeps their spans and counters."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._open: Counter = Counter()
        self._restore: List[tuple] = []
        self._fields: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._cache_files: set = set()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(
        self,
        fn: Callable,
        name: "str | Callable[..., str]",
        hook: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``hook(args, kwargs, outer)`` runs inside the span before the call
        and may return a callback taking the call's result; ``outer`` is
        false when a span of the same name is already open.
        """
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            outer = opened[label] == 0
            opened[label] += 1
            try:
                done = hook(args, kwargs, outer) if hook else None
                result = fn(*args, **kwargs)
                if done:
                    done(result)
                return result
            finally:
                opened[label] -= 1
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, owner: type, attr: str, name: str, hook: Optional[Callable] = None) -> None:
        """Wrap a method or classmethod on the class that defines it."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(owner, attr, classmethod(self._wrap(raw.__func__, name, hook)))
        else:
            self._patch(owner, attr, self._wrap(raw, name, hook))

    def function(self, original: Callable, name: Any, hook: Optional[Callable] = None) -> None:
        """Wrap a module function under every name any module bound it to."""
        wrapper = self._wrap(original, name, hook)
        for module in list(sys.modules.values()):
            if not isinstance(module, types.ModuleType):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, most recent patch first."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Counter hooks
    # ------------------------------------------------------------------
    def _field_hook(self, args: tuple, kwargs: dict, outer: bool) -> Callable:
        def done(field: Any) -> None:
            self.counts["core.field_calls"] += 1
            if field in self._fields:
                self.counts["core.field_hits"] += 1
            else:
                self._fields.add(field)

        return done

    def _engine_hook(self, args: tuple, kwargs: dict, outer: bool) -> Optional[Callable]:
        if not outer:
            return None
        counters = args[0].counters
        before = counters.snapshot()

        def done(_result: Any) -> None:
            delta = counters.since(before)
            self.counts["exec.requests"] += delta.n_requests
            self.counts["exec.cache_hits"] += delta.n_cache_hits

        return done

    def _backend_hook(self, args: tuple, kwargs: dict, outer: bool) -> None:
        if outer:
            self.counts["exec.backend_calls"] += 1

    def _store_hook(self, args: tuple, kwargs: dict, outer: bool) -> Optional[Callable]:
        """Count the bytes the outermost open store span writes."""
        if sum(n for label, n in self._open.items() if label.startswith("store.")) > 1:
            return None
        before = _written_bytes()

        def done(_result: Any) -> None:
            self.counts["store.bytes_written"] += _written_bytes() - before

        return done

    def _cache_save_hook(self, args: tuple, kwargs: dict, outer: bool) -> Optional[Callable]:
        store, cache = args[0], args[1]
        key = (str(store.directory), cache.platform, cache.serial)
        self.counts["store.cache_saves"] += 1
        if key in self._cache_files:
            self.counts["store.cache_rewrites"] += 1
        self._cache_files.add(key)
        return self._store_hook(args, kwargs, outer)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "Recorder":
        """Wrap every measured public function whose module is imported."""
        modules = sys.modules
        if "repro.fpga.platform" in modules:
            from repro.fpga.bram import BramPool
            from repro.fpga.platform import FpgaChip

            self.method(FpgaChip, "build", "fpga.build")
            self.method(BramPool, "fill_all", "fpga.fill")
        if "repro.core.batch" in modules:
            from repro.core import batch

            self.method(batch.FlatFaultTable, "from_field", "core.table_build")
            self.function(batch.cached_fault_field, "core.field", self._field_hook)
        if "repro.exec.engine" in modules:
            from repro.exec import ExecutionEngine, SimulatedBackend

            for attr in ("evaluate", "evaluate_many"):
                self.method(ExecutionEngine, attr, "exec.engine", self._engine_hook)
            for attr in ("evaluate", "evaluate_batch"):
                self.method(SimulatedBackend, attr, "exec.backend", self._backend_hook)
        if "repro.harness.sweep" in modules:
            from repro.harness.sweep import UndervoltingExperiment as experiment

            self.method(experiment, "discover_guardband", "harness.discover")
            self.method(experiment, "discover_guardband_adaptive", "harness.discover")
            self.method(experiment, "critical_region_sweep", "harness.sweep")
        if "repro.campaign.store_v2" in modules:
            from repro.campaign import runner, store, store_v2

            self.method(store.CampaignStore, "open", "store.open", self._store_hook)
            self.method(store.CampaignStore, "save", "store.save", self._store_hook)
            self.method(store_v2.CampaignStoreV2, "save", "store.save", self._store_hook)
            self.method(
                store.CampaignStore, "save_eval_cache", "store.cache_save", self._cache_save_hook
            )
            self.method(store.CampaignStore, "load_eval_cache", "store.cache_load")
            self.function(store_v2.open_store, "store.open")
            self.function(store_v2.open_store_for_spec, "store.open", self._store_hook)
            self.function(runner.run_campaign, "campaign.run")
        if "repro.runtime.fleetscale" in modules:
            from repro.runtime import fleetscale

            self.method(fleetscale.SyntheticFleet, "draw", "runtime.draw")
            self.function(fleetscale.simulate_fleet, _policy_span)
        return self

    def document(self) -> Dict[str, Any]:
        """The recorded spans and counters as one JSON-ready document."""
        return {"spans": self.spans, "counts": dict(self.counts)}


def _policy_span(args: tuple, kwargs: dict) -> str:
    policy = kwargs.get("policy", args[2] if len(args) > 2 else "")
    return "runtime." + str(policy).replace("-", "_")


def self_times(spans: List[List[Any]]) -> Dict[str, float]:
    """Total self time per span name: duration minus child spans' time."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
    return totals


def layer_metrics(document: Dict[str, Any], wall_s: float) -> Dict[str, float]:
    """The per-layer split of one traced pass of ``wall_s`` seconds."""
    spans, counts = document["spans"], Counter(document["counts"])
    own = self_times(spans)
    calls = Counter(span[0] for span in spans)
    metrics = {
        "fpga.build_calls": calls["fpga.build"],
        "fpga.build_s": own["fpga.build"],
        "fpga.fill_calls": calls["fpga.fill"],
        "fpga.fill_s": own["fpga.fill"],
        "core.table_builds": calls["core.table_build"],
        "core.table_build_s": own["core.table_build"],
        "core.field_s": own["core.field"],
        "core.field_hit_ratio": _ratio(counts["core.field_hits"], counts["core.field_calls"]),
        "exec.requests": counts["exec.requests"],
        "exec.cache_hit_ratio": _ratio(counts["exec.cache_hits"], counts["exec.requests"]),
        "exec.backend_calls": counts["exec.backend_calls"],
        "exec.backend_self_s": own["exec.backend"],
        "exec.engine_self_s": own["exec.engine"],
        "harness.discover_self_s": own["harness.discover"],
        "harness.sweep_self_s": own["harness.sweep"],
        "store.open_s": own["store.open"],
        "store.save_s": own["store.save"],
        "store.cache_saves": counts["store.cache_saves"],
        "store.cache_rewrites": counts["store.cache_rewrites"],
        "store.cache_save_s": own["store.cache_save"],
        "store.cache_load_s": own["store.cache_load"],
        "store.bytes_written": counts["store.bytes_written"],
        "campaign.self_s": own["campaign.run"],
        "runtime.draw_s": own["runtime.draw"],
    }
    for policy in POLICIES:
        key = "runtime." + policy.replace("-", "_")
        metrics[key + "_s"] = own[key]
    metrics["trace.unattributed_share"] = 1.0 - sum(own.values()) / wall_s
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
