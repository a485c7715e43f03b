"""Characterization-as-a-service: the fleet query surface over ``repro.exec``.

A deployment that undervolts its BRAMs needs the offline pipeline's answers
*at runtime*: what is this die's guardband, what does its governor bundle
entry look like, how similar are two dies' fault maps, and — the question a
power-management daemon asks every control period — what voltage is safe
for serial X at temperature T *right now*.  :class:`FleetService` packages
those answers behind a small HTTP/JSON API, owning a per-die pool of
:class:`~repro.exec.ExecutionEngine` instances and one open characterization
bundle (built from a campaign store via :func:`repro.campaign.open_store`,
or loaded from an emitted ``governor_bundle.json``).

Two request classes, two execution paths:

* **table lookups** (``/v1/guardband``, ``/v1/safe-vmin``, ``/v1/bundle``,
  ``/v1/dies``) are pure functions of the bundle and run inline on the
  event loop — microseconds, never blocking;
* **engine-backed queries** (``/v1/fvm``, ``/v1/fvm-similarity``) sweep a
  die's critical region through its execution engine.  These are expensive,
  so they run on a worker-thread pool and are **coalesced**: concurrent
  identical queries share one in-flight computation (an
  :class:`asyncio.Future` per key), and the per-die
  :class:`~repro.search.EvalCache` plus an FVM object cache make repeats
  free.  The engines share one thread-safe
  :class:`~repro.exec.EngineCounters`, so ``/stats`` can prove the
  coalescing worked: backend evaluations stay far below request counts
  under duplicate load.

The HTTP layer itself lives in :mod:`repro.service.http`; per-endpoint
latency/QPS accounting in :mod:`repro.service.stats`.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

import numpy as np

from repro import __version__
from repro.analysis.fleet import fvm_similarity
from repro.core.batch import voltage_ladder
from repro.core.calibration import get_calibration
from repro.core.fvm import FaultVariationMap
from repro.exec import FVM, EngineCounters, EvalRequest, ExecutionEngine, SimulatedBackend
from repro.fpga import FpgaChip
from repro.fpga.platform import platform_names
from repro.fpga.voltage import DEFAULT_STEP_V, VCCBRAM
from repro.obs import adapters as obs_adapters
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.runtime.characterization import (
    CharacterizationError,
    DieCharacterization,
    GovernorBundle,
)
from repro.runtime.governor import GovernorObservation, build_policy
from repro.search import EvalCache

from .http import (
    HttpError,
    HttpRequest,
    error_document,
    read_request,
    render_response,
    render_text_response,
)
from .stats import ServiceStats

#: Default worker threads for engine-backed queries.
DEFAULT_ENGINE_WORKERS = 4

#: Memory test pattern the service's FVM sweeps write (the paper's default).
DEFAULT_FVM_PATTERN = 0xFFFF


class ServiceError(Exception):
    """An endpoint-level failure with an HTTP status and stable error code.

    Same ``(status, code, message)`` shape as the protocol-level
    :class:`repro.service.http.HttpError`, so every error a client can see
    renders as the one structured JSON error document.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.message = str(message)

    def document(self) -> Dict[str, Any]:
        return error_document(self.status, self.code, self.message)


def _require(query: Dict[str, str], name: str) -> str:
    """A mandatory query parameter, or a 400 with a stable code."""
    value = query.get(name, "").strip()
    if not value:
        raise ServiceError(400, "missing-parameter", f"query parameter {name!r} is required")
    return value


def _float_param(query: Dict[str, str], name: str) -> float:
    """A mandatory finite float query parameter."""
    raw = _require(query, name)
    try:
        value = float(raw)
    except ValueError:
        raise ServiceError(
            400, "invalid-parameter", f"query parameter {name}={raw!r} is not a number"
        ) from None
    if not np.isfinite(value):
        raise ServiceError(400, "invalid-parameter", f"query parameter {name!r} must be finite")
    return value


class FleetService:
    """The query surface: one characterization bundle, one engine pool.

    Parameters
    ----------
    bundle:
        The fleet's :class:`~repro.runtime.characterization.GovernorBundle`.
    source:
        Where the fleet came from (campaign name or bundle path), surfaced
        in ``/stats``; defaults to the bundle's own ``source``.
    engine_workers:
        Worker threads for engine-backed queries (also the ceiling on
        concurrently computing dies).
    fvm_pattern:
        Memory test pattern the FVM sweeps write.
    """

    def __init__(
        self,
        bundle: GovernorBundle,
        source: Optional[str] = None,
        engine_workers: int = DEFAULT_ENGINE_WORKERS,
        fvm_pattern: "str | int" = DEFAULT_FVM_PATTERN,
    ) -> None:
        if engine_workers < 1:
            raise ServiceError(500, "bad-config", "engine_workers must be at least 1")
        self.bundle = bundle
        self.source = source if source is not None else bundle.source
        self.fvm_pattern = fvm_pattern
        #: One thread-safe counters object shared by every per-die engine —
        #: the fleet-wide backend telemetry ``/stats`` reports.
        self.counters = EngineCounters()
        self._policy = build_policy("predictive")
        self._engines: Dict[Tuple[str, str], ExecutionEngine] = {}
        self._fvms: Dict[Tuple[str, str], FaultVariationMap] = {}
        self._inflight: Dict[Tuple[str, ...], "asyncio.Future[Any]"] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=engine_workers, thread_name_prefix="fleet-service"
        )
        self.engine_workers = engine_workers

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_campaign(cls, name: str, root: "str | Path", **kwargs: Any) -> "FleetService":
        """Serve a completed guardband campaign's store."""
        from repro.campaign import open_store

        store = open_store(name, root)
        bundle = GovernorBundle.from_campaign(store)
        return cls(bundle, source=f"campaign:{name}", **kwargs)

    @classmethod
    def from_bundle_file(cls, path: "str | Path", **kwargs: Any) -> "FleetService":
        """Serve an emitted ``governor_bundle.json`` directly."""
        bundle = GovernorBundle.load(path)
        return cls(bundle, source=f"bundle:{path}", **kwargs)

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Die resolution
    # ------------------------------------------------------------------
    def resolve(self, platform: str, serial: str) -> DieCharacterization:
        """The characterization of one die, or a structured 404."""
        if platform not in platform_names():
            raise ServiceError(
                404,
                "unknown-platform",
                f"unknown platform {platform!r}; known: {', '.join(platform_names())}",
            )
        try:
            return self.bundle.get(platform, serial)
        except CharacterizationError as exc:
            raise ServiceError(404, "unknown-serial", str(exc)) from None

    def _engine(self, die: DieCharacterization) -> ExecutionEngine:
        """The die's lazily built engine (simulated backend + eval cache)."""
        engine = self._engines.get(die.chip_key)
        if engine is None:
            chip = FpgaChip.build(die.platform, serial=die.serial)
            engine = ExecutionEngine(
                SimulatedBackend(chip=chip),
                cache=EvalCache(platform=die.platform, serial=die.serial),
                counters=self.counters,
            )
            self._engines[die.chip_key] = engine
        return engine

    # ------------------------------------------------------------------
    # Coalescing
    # ------------------------------------------------------------------
    async def _coalesced(self, key: Tuple[str, ...], compute: Callable[[], Any]) -> Any:
        """Run ``compute`` on the worker pool, sharing one in-flight
        computation among every concurrent caller with the same key.

        The first caller (the *leader*) dispatches the computation and
        publishes the outcome on a future; every later caller that arrives
        while the key is in flight (a *follower*) just awaits that future.
        This is what keeps N identical concurrent queries at exactly one
        backend computation.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            return await existing
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self._inflight[key] = future
        try:
            result = await loop.run_in_executor(self._executor, compute)
        except BaseException as exc:
            if isinstance(exc, Exception):
                future.set_exception(exc)
                future.exception()  # consumed here even with zero followers
            else:
                future.cancel()
            raise
        else:
            future.set_result(result)
            return result
        finally:
            self._inflight.pop(key, None)

    async def fvm_for(self, platform: str, serial: str) -> FaultVariationMap:
        """The die's fault-variation map (cached after the first sweep)."""
        die = self.resolve(platform, serial)
        cached = self._fvms.get(die.chip_key)
        if cached is not None:
            return cached
        engine = self._engine(die)  # built on the loop; dict stays loop-owned
        fvm = await self._coalesced(
            ("fvm", die.platform, die.serial), lambda: self._compute_fvm(die, engine)
        )
        self._fvms[die.chip_key] = fvm
        return fvm

    def _compute_fvm(self, die: DieCharacterization, engine: ExecutionEngine) -> FaultVariationMap:
        """One full critical-region sweep through the die's engine.

        Runs on a worker thread; the coalescing key guarantees at most one
        computation per die is in flight, so the engine and its cache are
        touched from one thread at a time.
        """
        chip = engine.backend.chip
        calibration = get_calibration(chip.spec)
        voltages = voltage_ladder(
            calibration.vmin_bram_v, calibration.vcrash_bram_v, DEFAULT_STEP_V
        )
        points = engine.evaluate_many(
            [
                EvalRequest(
                    kind=FVM,
                    rail=VCCBRAM,
                    voltage_v=voltage,
                    temperature_c=die.reference_temperature_c,
                    pattern=self.fvm_pattern,
                    n_runs=0,
                )
                for voltage in voltages
            ]
        )
        matrix = np.empty((len(voltages), chip.spec.n_brams), dtype=np.int64)
        for index, point in enumerate(points):
            matrix[index, :] = point.per_bram_counts
        return FaultVariationMap.from_matrix(
            platform=chip.name,
            floorplan=chip.floorplan,
            voltages_v=list(voltages),
            counts=matrix,
            bram_bits=chip.spec.bram_rows * chip.spec.bram_cols,
        )

    # ------------------------------------------------------------------
    # Queries: table lookups (pure, inline)
    # ------------------------------------------------------------------
    def guardband(self, platform: str, serial: str) -> Dict[str, Any]:
        """The die's characterized thresholds and wasted-guardband fraction."""
        die = self.resolve(platform, serial)
        document = die.to_dict()
        document["guardband_fraction"] = die.guardband_fraction
        return document

    def bundle_document(
        self, platform: Optional[str] = None, serial: Optional[str] = None
    ) -> Dict[str, Any]:
        """The governor bundle — whole fleet, or one die's entry."""
        if platform is None and serial is None:
            return self.bundle.to_document()
        if platform is None or serial is None:
            raise ServiceError(
                400, "missing-parameter", "platform and serial must be given together"
            )
        return self.resolve(platform, serial).to_dict()

    def safe_vmin(self, platform: str, serial: str, temperature_c: float) -> Dict[str, Any]:
        """The predictive governor's setpoint for one die at one temperature.

        Exactly the arithmetic :class:`repro.runtime.governor.\
PredictiveItdPolicy` applies — ITD-compensated Vmin plus the six-sigma
        ripple margin, rounded up to the regulator resolution and clamped
        into the die's safe actuation window — so a daemon polling this
        endpoint commands the same voltages the in-process governor would.
        """
        die = self.resolve(platform, serial)
        observation = GovernorObservation(
            step=0,
            temperature_c=temperature_c,
            faults_last_step=0,
            setpoint_v=die.vnom_v,
        )
        safe_v = self._policy.target_voltage(die, observation)
        return {
            "platform": die.platform,
            "serial": die.serial,
            "temperature_c": temperature_c,
            "vnom_v": die.vnom_v,
            "vmin_v": die.vmin_v,
            "vcrash_v": die.vcrash_v,
            "compensated_vmin_v": die.compensated_vmin_v(temperature_c),
            "ripple_margin_v": die.ripple_margin_v,
            "safe_vmin_v": safe_v,
            "undervolt_fraction": (die.vnom_v - safe_v) / die.vnom_v,
        }

    def dies(self) -> Dict[str, Any]:
        """The fleet roster."""
        return {
            "n_dies": len(self.bundle),
            "dies": [
                {"platform": platform, "serial": serial}
                for platform, serial in self.bundle.chip_keys()
            ],
        }

    # ------------------------------------------------------------------
    # Queries: engine-backed (coalesced, worker pool)
    # ------------------------------------------------------------------
    async def fvm_statistics(self, platform: str, serial: str) -> Dict[str, Any]:
        """Fault-rate statistics of one die's FVM."""
        fvm = await self.fvm_for(platform, serial)
        return {
            "platform": platform,
            "serial": serial,
            "n_brams": fvm.n_brams,
            "statistics": fvm.statistics(),
        }

    async def similarity(self, platform: str, serial_a: str, serial_b: str) -> Dict[str, Any]:
        """Fig. 7-style pairwise FVM comparison of two same-platform dies."""
        if serial_a == serial_b:
            raise ServiceError(
                400, "invalid-parameter", "serial_a and serial_b must name different dies"
            )
        fvm_a, fvm_b = await asyncio.gather(
            self.fvm_for(platform, serial_a), self.fvm_for(platform, serial_b)
        )
        pair = fvm_similarity({serial_a: fvm_a, serial_b: fvm_b}, platform)[0]
        return pair.as_dict()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def backend_block(self) -> Dict[str, Any]:
        """The engine-pool telemetry block, mirroring the CLI's ``backend``
        blocks (kind/scheduler/jobs/source/counters) plus pool occupancy."""
        return {
            "kind": "simulated",
            "scheduler": "thread",
            "jobs": self.engine_workers,
            "source": self.source,
            "counters": self.counters.to_dict(),
            "n_engines": len(self._engines),
            "n_fvms_cached": len(self._fvms),
            "n_inflight": len(self._inflight),
        }


# ----------------------------------------------------------------------
# HTTP application
# ----------------------------------------------------------------------
Handler = Callable[[HttpRequest], "Awaitable[Dict[str, Any] | str]"]


class ServiceApp:
    """Routes HTTP requests onto a :class:`FleetService`."""

    def __init__(self, service: FleetService) -> None:
        self.service = service
        self.stats = ServiceStats()
        #: The app's own always-on registry behind ``/metrics`` —
        #: independent of the process-wide ``--obs-metrics`` switch, so a
        #: served fleet is always scrapable.  ``ServiceStats`` and the
        #: engine pool's shared counters stay the source of truth; the
        #: adapters mirror them in at render time, and only the latency
        #: histogram is instrumented directly (rings cannot rebuild
        #: bucketed history).
        self.registry = MetricsRegistry()
        obs_adapters.build_info(__version__, self.registry)
        obs_adapters.bind_service_stats(self.stats, self.registry)
        obs_adapters.bind_engine_counters(service.counters, self.registry)
        self._latency = self.registry.histogram(
            "repro_request_latency_seconds",
            "Request handling latency, by endpoint.",
            ("endpoint",),
        )
        self._routes: Dict[str, Handler] = {
            "/healthz": self._handle_healthz,
            "/metrics": self._handle_metrics,
            "/stats": self._handle_stats,
            "/v1/dies": self._handle_dies,
            "/v1/guardband": self._handle_guardband,
            "/v1/bundle": self._handle_bundle,
            "/v1/safe-vmin": self._handle_safe_vmin,
            "/v1/fvm": self._handle_fvm,
            "/v1/fvm-similarity": self._handle_similarity,
        }

    @property
    def routes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._routes))

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: HttpRequest) -> Dict[str, Any]:
        return {
            "status": "ok",
            "n_dies": len(self.service.bundle),
            "version": __version__,
        }

    async def _handle_metrics(self, request: HttpRequest) -> str:
        # Returns Prometheus text, not JSON; dispatch/handle_connection
        # frame string payloads with render_text_response.
        return self.registry.render()

    async def _handle_stats(self, request: HttpRequest) -> Dict[str, Any]:
        return {
            "service": self.stats.to_dict(),
            "backend": self.service.backend_block(),
            "bundle": {
                "source": self.service.bundle.source,
                "spec_hash": self.service.bundle.spec_hash,
                "n_dies": len(self.service.bundle),
            },
        }

    async def _handle_dies(self, request: HttpRequest) -> Dict[str, Any]:
        return self.service.dies()

    async def _handle_guardband(self, request: HttpRequest) -> Dict[str, Any]:
        return self.service.guardband(
            _require(request.query, "platform"), _require(request.query, "serial")
        )

    async def _handle_bundle(self, request: HttpRequest) -> Dict[str, Any]:
        platform = request.query.get("platform", "").strip() or None
        serial = request.query.get("serial", "").strip() or None
        return self.service.bundle_document(platform, serial)

    async def _handle_safe_vmin(self, request: HttpRequest) -> Dict[str, Any]:
        return self.service.safe_vmin(
            _require(request.query, "platform"),
            _require(request.query, "serial"),
            _float_param(request.query, "temperature_c"),
        )

    async def _handle_fvm(self, request: HttpRequest) -> Dict[str, Any]:
        return await self.service.fvm_statistics(
            _require(request.query, "platform"), _require(request.query, "serial")
        )

    async def _handle_similarity(self, request: HttpRequest) -> Dict[str, Any]:
        return await self.service.similarity(
            _require(request.query, "platform"),
            _require(request.query, "serial_a"),
            _require(request.query, "serial_b"),
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def dispatch(self, request: HttpRequest) -> "Tuple[int, Dict[str, Any] | str]":
        """Route one parsed request; always returns (status, document).

        The document is a JSON-serializable dict for every endpoint except
        ``/metrics``, whose handler returns the Prometheus exposition text
        as a plain string.
        """
        route = request.route.rstrip("/") or "/"
        handler = self._routes.get(route)
        endpoint = route if handler is not None else "<unknown>"
        started = time.monotonic()
        ok = False
        try:
            with obs_trace.span("service.request", endpoint=endpoint):
                if handler is None:
                    raise ServiceError(
                        404,
                        "unknown-route",
                        f"no endpoint {route!r}; available: {list(self.routes)}",
                    )
                if request.method != "GET":
                    raise ServiceError(
                        405, "method-not-allowed", f"{request.method} not allowed; use GET"
                    )
                document = await handler(request)
                ok = True
                return 200, document
        except ServiceError as exc:
            return exc.status, exc.document()
        except Exception as exc:  # the server must outlive any one request
            return 500, error_document(500, "internal-error", f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.monotonic() - started
            self.stats.record(endpoint, elapsed, ok)
            self._latency.labels(endpoint=endpoint).observe(elapsed)

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection (keep-alive loop)."""
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    # Protocol-level failure: answer once, then close — the
                    # stream position is no longer trustworthy.
                    writer.write(render_response(exc.status, exc.document(), keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                status, document = await self.dispatch(request)
                if isinstance(document, str):
                    payload = render_text_response(
                        status, document, keep_alive=request.keep_alive
                    )
                else:
                    payload = render_response(
                        status, document, keep_alive=request.keep_alive
                    )
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            return  # client went away mid-conversation; nothing to answer
        except asyncio.CancelledError:
            # Server shutdown cancels handlers parked between requests; end
            # the task cleanly so the streams machinery has no orphaned
            # exception to complain about.
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # Shutdown cancels handlers still waiting here; letting the
                # cancellation escape makes asyncio print a traceback.
                pass


async def start_service(
    app: ServiceApp, host: str = "127.0.0.1", port: int = 0
) -> "asyncio.base_events.Server":
    """Bind the app; ``port=0`` picks an ephemeral port (see the server's
    ``sockets[0].getsockname()`` for the actual one)."""
    return await asyncio.start_server(app.handle_connection, host=host, port=port)


__all__ = [
    "DEFAULT_ENGINE_WORKERS",
    "DEFAULT_FVM_PATTERN",
    "FleetService",
    "ServiceApp",
    "ServiceError",
    "start_service",
]
