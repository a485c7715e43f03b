"""The execution engine: one front door for every fault-field evaluation.

:class:`ExecutionEngine` binds an :class:`~repro.exec.backends.EvalBackend`
to the machinery every evaluation caller used to re-implement for itself:

* the **evaluation cache** (:class:`~repro.search.EvalCache`) — looked up
  before the backend runs, populated after, with per-kind validity checks
  (an FVM row must actually carry a per-BRAM vector of the right width);
* **scheduling** — :meth:`evaluate_many` shards pure requests over the
  serial / thread / process substrates of
  :class:`~repro.exec.scheduler.WorkScheduler` with a bounded in-flight
  queue; ``probe`` requests (which mutate the simulated hardware) always
  run inline;
* **request deduplication** — identical in-flight requests inside one
  batch are evaluated once and fanned back out to every position;
* **telemetry** — :class:`EngineCounters` counts requests, cache hits,
  backend evaluations and deduplicated requests; drivers snapshot/delta
  the counters to build their :class:`~repro.search.SearchReport`;
* **deterministic ordering** — results always come back in request order,
  whatever order workers finish in, so scheduling can never change a
  downstream artifact.

Equivalence contract: the engine never changes *what* is computed, only
*where*.  Every request is a pure function of its operating point (see
``docs/batch_engine.md``), so serial, threaded and process execution are
bit-identical — asserted by ``tests/exec/`` and the
``bench_exec_engine.py`` acceptance benchmark.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.obs import adapters as obs_adapters
from repro.obs import trace as obs_trace
from repro.search import EvalCache, PointEvaluation, point_key

from .backends import backend_from_spec
from .request import FVM, PROBE, EvalRequest, ExecError
from .scheduler import WorkScheduler, chunked


class EvalBackend(Protocol):
    """What the engine needs from a backend (see ``docs/architecture.md``).

    ``kind`` names the implementation (``"simulated"``, ``"replay"``);
    ``platform``/``serial`` identify the die, which anchors cache keys;
    ``n_brams`` (may be ``None``) validates cached FVM rows; ``spec()``
    returns a picklable rebuild recipe or ``None`` when process scheduling
    is impossible; ``evaluate`` answers one request and ``evaluate_batch``
    answers many in one call, in request order, each result identical to
    what ``evaluate`` would return for it.
    """

    kind: str

    @property
    def platform(self) -> str: ...

    @property
    def serial(self) -> str: ...

    @property
    def n_brams(self) -> Optional[int]: ...

    def spec(self) -> Optional[Tuple]: ...

    def evaluate(self, request: EvalRequest) -> PointEvaluation: ...

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> List[PointEvaluation]: ...


@dataclass
class EngineCounters:
    """Telemetry of one engine (or the shared telemetry of a family of
    cache-variant engines over one backend).

    ``n_requests`` counts every question asked; ``n_cache_hits`` the ones
    answered from the evaluation cache; ``n_backend_evaluations`` the ones
    the backend actually computed; ``n_deduplicated`` in-flight duplicates
    collapsed inside batches; ``n_batches`` the ``evaluate_many`` calls.
    ``n_backend_calls`` counts *Python-level crossings into the backend* —
    a batched crossing answers many evaluations in one call, so
    ``n_backend_calls <= n_backend_evaluations`` measures how well batching
    amortizes per-request overhead.  It is engine telemetry only and stays
    out of :meth:`to_dict`, which the CLI golden documents pin.

    One counters object is routinely shared: cache-variant engines over one
    backend, and service deployments where every request-handler thread
    drives its own per-die engine into one fleet-wide telemetry block.  All
    increments therefore go through :meth:`add`, which holds a lock — a
    bare ``+=`` from concurrent threads is a read-modify-write race that
    silently loses updates.
    """

    n_requests: int = 0
    n_cache_hits: int = 0
    n_backend_evaluations: int = 0
    n_deduplicated: int = 0
    n_batches: int = 0
    n_backend_calls: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, int]:
        # Locks do not pickle; counters travel as their plain counts and
        # get a fresh lock on the other side.
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, int]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def add(
        self,
        requests: int = 0,
        cache_hits: int = 0,
        backend_evaluations: int = 0,
        deduplicated: int = 0,
        batches: int = 0,
        backend_calls: int = 0,
    ) -> None:
        """Atomically accumulate one engine event (thread-safe)."""
        with self._lock:
            self.n_requests += requests
            self.n_cache_hits += cache_hits
            self.n_backend_evaluations += backend_evaluations
            self.n_deduplicated += deduplicated
            self.n_batches += batches
            self.n_backend_calls += backend_calls

    def snapshot(self) -> "EngineCounters":
        """A frozen, consistent copy for later deltas."""
        with self._lock:
            return EngineCounters(
                n_requests=self.n_requests,
                n_cache_hits=self.n_cache_hits,
                n_backend_evaluations=self.n_backend_evaluations,
                n_deduplicated=self.n_deduplicated,
                n_batches=self.n_batches,
                n_backend_calls=self.n_backend_calls,
            )

    def since(self, snapshot: "EngineCounters") -> "EngineCounters":
        """Counter deltas accumulated after ``snapshot`` was taken."""
        current = self.snapshot()
        return EngineCounters(
            n_requests=current.n_requests - snapshot.n_requests,
            n_cache_hits=current.n_cache_hits - snapshot.n_cache_hits,
            n_backend_evaluations=(
                current.n_backend_evaluations - snapshot.n_backend_evaluations
            ),
            n_deduplicated=current.n_deduplicated - snapshot.n_deduplicated,
            n_batches=current.n_batches - snapshot.n_batches,
            n_backend_calls=current.n_backend_calls - snapshot.n_backend_calls,
        )

    def to_dict(self) -> Dict[str, int]:
        """JSON form carried by the CLI ``backend`` blocks."""
        with self._lock:
            return {
                "n_requests": self.n_requests,
                "n_cache_hits": self.n_cache_hits,
                "n_backend_evaluations": self.n_backend_evaluations,
                "n_deduplicated": self.n_deduplicated,
            }


#: Worker-process backend instances, keyed by spec.  Populated lazily in
#: each worker; with the fork start method workers usually inherit the
#: parent's warm chip/field caches instead and never rebuild at all.
_WORKER_BACKENDS: Dict[Tuple, Any] = {}


def _worker_backend(spec: Tuple) -> Any:
    """The worker-local backend for a spec, built on first use."""
    backend = _WORKER_BACKENDS.get(spec)
    if backend is None:
        backend = backend_from_spec(spec)
        _WORKER_BACKENDS[spec] = backend
    return backend


def _evaluate_spec_batch(
    spec: Tuple, requests: Tuple[EvalRequest, ...]
) -> List[PointEvaluation]:
    """Process-pool entry point: answer one chunk via a single batched call."""
    return _worker_backend(spec).evaluate_batch(list(requests))


def _evaluate_backend_batch(
    backend: "EvalBackend", requests: Tuple[EvalRequest, ...]
) -> List[PointEvaluation]:
    """Thread-pool entry point: answer one chunk via a single batched call."""
    return backend.evaluate_batch(list(requests))


class ExecutionEngine:
    """Schedule, deduplicate, cache and count fault-field evaluations.

    Parameters
    ----------
    backend:
        Where evaluations are computed (or replayed) — anything satisfying
        :class:`EvalBackend`.
    scheduler / jobs / queue_depth:
        The :class:`~repro.exec.scheduler.WorkScheduler` configuration used
        by :meth:`evaluate_many` for pure request batches.
    cache:
        Optional :class:`~repro.search.EvalCache` consulted before and
        populated after every backend evaluation.  Must belong to the
        backend's die.
    counters:
        Optional shared :class:`EngineCounters` — cache-variant engines
        over one backend pass the root engine's counters here so the
        telemetry of one experiment stays in one place.
    """

    def __init__(
        self,
        backend: EvalBackend,
        scheduler: str = "serial",
        jobs: int = 1,
        cache: Optional[EvalCache] = None,
        queue_depth: Optional[int] = None,
        counters: Optional[EngineCounters] = None,
    ) -> None:
        self.backend = backend
        self.work = WorkScheduler(scheduler=scheduler, jobs=jobs, queue_depth=queue_depth)
        self.cache = cache
        self.counters = counters if counters is not None else EngineCounters()
        # No-op unless a process-wide metrics registry is on (--obs-metrics);
        # idempotent per counters object, so cache-variant engines sharing
        # counters register once.
        obs_adapters.bind_engine_counters(self.counters)
        if cache is not None and (
            cache.platform != backend.platform or cache.serial != backend.serial
        ):
            raise ExecError(
                f"cache belongs to die {cache.platform}/{cache.serial}, engine "
                f"backend is {backend.platform}/{backend.serial}"
            )

    # ------------------------------------------------------------------
    @property
    def platform(self) -> str:
        return self.backend.platform

    @property
    def serial(self) -> str:
        return self.backend.serial

    @property
    def scheduler(self) -> str:
        return self.work.scheduler

    @property
    def jobs(self) -> int:
        return self.work.jobs

    def with_cache(self, cache: Optional[EvalCache]) -> "ExecutionEngine":
        """A cache-variant engine sharing this engine's backend, scheduling
        configuration and telemetry counters."""
        if cache is self.cache:
            return self
        return ExecutionEngine(
            self.backend,
            scheduler=self.work.scheduler,
            jobs=self.work.jobs,
            cache=cache,
            queue_depth=self.work.queue_depth,
            counters=self.counters,
        )

    def describe(self) -> Dict[str, Any]:
        """The ``backend`` block of the CLI ``--json`` documents."""
        return {
            "kind": self.backend.kind,
            "scheduler": self.work.scheduler,
            "jobs": self.work.jobs,
            "source": getattr(self.backend, "source", None),
            "counters": self.counters.to_dict(),
        }

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _key(self, request: EvalRequest) -> Tuple:
        return point_key(
            self.backend.platform,
            self.backend.serial,
            request.rail,
            request.voltage_v,
            request.temperature_c,
            request.pattern_text,
            request.n_runs,
        )

    def _cache_entry_valid(self, request: EvalRequest, point: PointEvaluation) -> bool:
        """Whether a cached evaluation actually answers this request kind.

        FVM requests need the per-BRAM vector (of the die's width, when the
        backend knows it); run-bearing kinds need a full count vector unless
        the recorded point was non-operational (an empty count vector is the
        honest answer below Vcrash).
        """
        if request.kind == FVM:
            if point.per_bram_counts is None:
                return False
            n_brams = self.backend.n_brams
            return n_brams is None or len(point.per_bram_counts) == n_brams
        if not point.operational:
            return request.kind == PROBE
        return len(point.counts) == request.n_runs

    def _lookup(self, request: EvalRequest) -> Optional[PointEvaluation]:
        if self.cache is None:
            return None
        found = self.cache.lookup(
            request.rail,
            request.voltage_v,
            request.temperature_c,
            request.pattern_text,
            request.n_runs,
        )
        if found is not None and not self._cache_entry_valid(request, found):
            return None
        return found

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, request: EvalRequest) -> Tuple[PointEvaluation, bool]:
        """Answer one request inline; returns ``(point, served_from_cache)``.

        This is the path the sequential searches (guardband walks and
        bisections) use: scheduling never applies to a single request, so
        hardware-mutating probes are naturally safe here.
        """
        with obs_trace.span("engine.evaluate", kind=request.kind):
            self.counters.add(requests=1)
            found = self._lookup(request)
            if found is not None:
                self.counters.add(cache_hits=1)
                return found, True
            point = self.backend.evaluate(request)
            self.counters.add(backend_evaluations=1, backend_calls=1)
            if self.cache is not None:
                self.cache.store(point)
            return point, False

    def evaluate_many(self, requests: Sequence[EvalRequest]) -> List[PointEvaluation]:
        """Answer a batch of requests; results in request order.

        Deduplicates identical in-flight requests, serves what the cache
        can, and shards the remaining *pure* requests over the configured
        scheduler.  Batches containing ``probe`` requests fall back to
        inline evaluation — probes mutate the simulated hardware, which is
        a serial protocol by nature.
        """
        with obs_trace.span("engine.evaluate_many", n=len(requests)):
            self.counters.add(batches=1, requests=len(requests))

            # In-flight deduplication: first occurrence wins, every later
            # position reuses its result.
            order: List[Tuple] = []
            unique: Dict[Tuple, EvalRequest] = {}
            for request in requests:
                key = (request.kind,) + self._key(request)
                order.append(key)
                if key not in unique:
                    unique[key] = request
            self.counters.add(deduplicated=len(requests) - len(unique))

            resolved: Dict[Tuple, PointEvaluation] = {}
            misses: List[Tuple[Tuple, EvalRequest]] = []
            n_hits = 0
            for key, request in unique.items():
                found = self._lookup(request)
                if found is not None:
                    n_hits += 1
                    resolved[key] = found
                else:
                    misses.append((key, request))
            self.counters.add(cache_hits=n_hits)

            if misses:
                points = self._evaluate_misses([request for _key, request in misses])
                for (key, _request), point in zip(misses, points):
                    resolved[key] = point
                    if self.cache is not None:
                        self.cache.store(point)
                self.counters.add(backend_evaluations=len(misses))

            return [resolved[key] for key in order]

    def _evaluate_misses(self, requests: List[EvalRequest]) -> List[PointEvaluation]:
        """Compute fresh evaluations, scheduling pure batches over workers.

        A single request, or a miss set holding a hardware-mutating probe,
        is answered request by request inline.  Any other miss set crosses
        into the backend through ``evaluate_batch``: once when serial, once
        per worker chunk otherwise.  The ``engine.batch`` span covers the
        whole batched answer and its ``n`` label counts the requests it
        settled.
        """
        if len(requests) <= 1 or any(request.kind == PROBE for request in requests):
            self.counters.add(backend_calls=len(requests))
            return [self.backend.evaluate(request) for request in requests]

        with obs_trace.span("engine.batch", n=len(requests)):
            if self.work.is_serial:
                self.counters.add(backend_calls=1)
                return self.backend.evaluate_batch(requests)

            if self.work.scheduler == "process":
                spec = self.backend.spec()
                if spec is None:
                    raise ExecError(
                        "the process scheduler needs a spec-buildable backend "
                        "(stock die, default fault field); use the thread "
                        "scheduler for customized backends"
                    )
                # Exporting the flat fault table to mmap-backed files lets
                # spawned workers attach instead of rebuilding the cell
                # population from scratch (fork workers inherit it anyway).
                share = getattr(self.backend, "share_table", None)
                if share is not None:
                    spec = share() or spec
                fn, context = _evaluate_spec_batch, spec
            else:
                fn, context = _evaluate_backend_batch, self.backend

            # Evaluate the first request inline to settle the backend's
            # lazily built caches (flat table, sorted pattern thresholds)
            # before the fan-out — threads then share them race-free, and
            # fork-context workers inherit them for free.
            first = self.backend.evaluate(requests[0])
            # One wide chunk per worker: each is a single crossing.
            chunks = chunked(requests[1:], self.work.jobs)
            chunk_results = self.work.map_tasks(
                fn, [(context, tuple(chunk)) for chunk in chunks]
            )
            self.counters.add(backend_calls=1 + len(chunks))
        return [first] + [point for chunk in chunk_results for point in chunk]


__all__ = ["EngineCounters", "EvalBackend", "ExecutionEngine"]
