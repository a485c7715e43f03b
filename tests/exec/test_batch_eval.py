"""Property tests for batched evaluation: one kernel crossing, same answers.

``evaluate_batch`` must be observationally indistinguishable from
request-by-request ``evaluate``.  Asserted over randomized batches:

* **backend equivalence** — ``SimulatedBackend.evaluate_batch`` returns the
  exact evaluation list of a per-request loop for any mix of kinds
  (probes included: they fall back to the inline probe path);
* **engine equivalence** — ``ExecutionEngine.evaluate_many`` returns what
  request-by-request ``backend.evaluate`` returns, with consistent
  cache/dedup telemetry, over cold and pre-warmed caches, duplicate-heavy
  batches and the serial/thread/process schedulers;
* **replay equivalence** — a :class:`~repro.exec.ReplayBackend` answers
  batches with the same points its per-request path serves, and misses
  raise the same error instead of silently recomputing;
* **telemetry** — batching only ever *reduces* ``n_backend_calls``; the
  golden-pinned counters (requests, hits, evaluations, dedup) count
  requests, not crossings.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.exec import (
    FVM,
    PROBE,
    REGION,
    EvalRequest,
    ExecError,
    ExecutionEngine,
    ReplayBackend,
    SimulatedBackend,
)
from repro.fpga import FpgaChip
from repro.fpga.voltage import VCCBRAM
from repro.search import EvalCache

_BACKEND = None


def backend() -> SimulatedBackend:
    global _BACKEND
    if _BACKEND is None:
        _BACKEND = SimulatedBackend(chip=FpgaChip.build("ZC702"))
    return _BACKEND


def _request(kind, v, t, p, r):
    return EvalRequest(
        kind=kind, rail=VCCBRAM, voltage_v=v, temperature_c=t, pattern=p, n_runs=r
    )


def mixed_requests(min_size=1, max_size=12, voltages=None):
    """Random batches mixing region, FVM and probe requests."""
    voltage = st.sampled_from(voltages or [round(0.53 + 0.01 * i, 2) for i in range(10)])
    temperature = st.sampled_from([50.0, 60.0, 80.0])
    pattern = st.sampled_from([0xFFFF, 0xAAAA, "FFFF"])
    runs = st.integers(min_value=1, max_value=4)
    region = st.builds(lambda v, t, p, r: _request(REGION, v, t, p, r),
                       voltage, temperature, pattern, runs)
    fvm = st.builds(lambda v, t, p: _request(FVM, v, t, p, 0),
                    voltage, temperature, pattern)
    probe = st.builds(lambda v, t, p, r: _request(PROBE, v, t, p, r),
                      voltage, temperature, pattern, runs)
    return st.lists(st.one_of(region, fvm, probe), min_size=min_size, max_size=max_size)


class TestBackendBatchEquivalence:
    @given(requests=mixed_requests())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batch_matches_sequential_loop(self, requests):
        sequential = [backend().evaluate(request) for request in requests]
        batched = backend().evaluate_batch(list(requests))
        assert batched == sequential
        for a, b in zip(batched, sequential):
            assert a.counts == b.counts
            assert a.per_bram_counts == b.per_bram_counts

    @given(requests=mixed_requests(min_size=2))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batch_is_one_kernel_call_per_pure_group_set(self, requests):
        before = backend().n_kernel_batches
        backend().evaluate_batch(list(requests))
        assert backend().n_kernel_batches == before + 1


def _identity(request):
    return (request.kind, request.rail, request.voltage_v, request.temperature_c,
            request.pattern_text, request.n_runs)


class TestEngineBatchFlagInvariance:
    @given(
        requests=mixed_requests(),
        scheduler=st.sampled_from(["serial", "thread"]),
        jobs=st.integers(min_value=1, max_value=4),
        warm=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batch_flag_changes_nothing_observable(self, requests, scheduler, jobs, warm):
        """Batched engine answers equal request-by-request ``evaluate``,
        whatever the cache held before the batch."""
        reference = [backend().evaluate(request) for request in requests]

        cache = EvalCache(platform=backend().platform, serial=backend().serial)
        # Pre-warm: the first `warm` requests are evaluated (and stored)
        # before the measured batch.  A point cached by one kind answers
        # another kind at the same operating point, and does so with the
        # same counts a fresh evaluation would give.
        warm_engine = ExecutionEngine(backend(), cache=cache)
        for request in requests[:warm]:
            warm_engine.evaluate(request)
        unique = {_identity(request): request for request in requests}
        expected_hits = sum(
            cache.lookup(r.rail, r.voltage_v, r.temperature_c, r.pattern_text, r.n_runs)
            is not None
            for r in unique.values()
        )

        engine = ExecutionEngine(backend(), scheduler=scheduler, jobs=jobs, cache=cache)
        before = engine.counters.snapshot()
        assert engine.evaluate_many(requests) == reference
        delta = engine.counters.since(before)
        # The golden-pinned counters count requests, never crossings ...
        assert delta.n_requests == len(requests)
        assert delta.n_deduplicated == len(requests) - len(unique)
        assert delta.n_cache_hits == expected_hits
        assert delta.n_backend_evaluations == len(unique) - expected_hits
        # ... and batching can only reduce the Python-level crossings.
        assert delta.n_backend_calls <= delta.n_backend_evaluations

    @given(
        requests=mixed_requests(max_size=16, voltages=[0.55, 0.56, 0.57]),
        scheduler=st.sampled_from(["serial", "thread"]),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dedup_collisions_survive_batching(self, requests, scheduler):
        """Duplicate-heavy batches (3 voltages, up to 16 requests) dedup
        before the batched crossing and fan the answers back out."""
        reference = [backend().evaluate(request) for request in requests]
        engine = ExecutionEngine(backend(), scheduler=scheduler, jobs=3)
        before = engine.counters.snapshot()
        assert engine.evaluate_many(requests) == reference
        delta = engine.counters.since(before)
        unique = {_identity(request) for request in requests}
        assert delta.n_deduplicated == len(requests) - len(unique)
        assert delta.n_backend_evaluations == len(unique)


class TestReplayBatchEquivalence:
    @given(requests=mixed_requests())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_replay_batches_serve_the_recording(self, requests):
        # Probes run at the board temperature, the only one the guardband
        # drivers ever send — pin probe requests there.
        board_t = backend().chip.board_temperature_c
        requests = [
            request if request.kind != PROBE
            else _request(PROBE, request.voltage_v, board_t,
                          request.pattern, request.n_runs)
            for request in requests
        ]
        cache = EvalCache(platform=backend().platform, serial=backend().serial)
        recorded = ExecutionEngine(backend(), cache=cache).evaluate_many(requests)

        replay = ReplayBackend.from_cache(cache)
        assert replay.evaluate_batch(list(requests)) == recorded
        assert [replay.evaluate(request) for request in requests] == recorded
        replayed = ExecutionEngine(replay).evaluate_many(requests)
        assert replayed == recorded

    def test_replay_batch_misses_raise_not_recompute(self):
        cache = EvalCache(platform=backend().platform, serial=backend().serial)
        recorded_request = _request(REGION, 0.56, 50.0, 0xFFFF, 2)
        ExecutionEngine(backend(), cache=cache).evaluate_many([recorded_request])
        replay = ReplayBackend.from_cache(cache)
        served_before = replay.n_served
        with pytest.raises(ExecError):
            replay.evaluate_batch(
                [recorded_request, _request(REGION, 0.61, 50.0, 0xFFFF, 2)]
            )
        assert replay.n_served == served_before


@pytest.mark.parametrize("scheduler,jobs", [("serial", 1), ("thread", 4), ("process", 2)])
def test_batch_flag_invariant_under_every_scheduler(scheduler, jobs):
    """A full pure ladder answers as request-by-request evaluation does on
    every scheduling substrate (process workers attach the shared mmap
    table)."""
    ladder = [round(0.62 - 0.005 * i, 4) for i in range(20)]
    requests = [_request(REGION, v, 50.0, 0xFFFF, 3) for v in ladder] + [
        _request(FVM, v, 50.0, 0xFFFF, 0) for v in ladder[:6]
    ]
    reference = [backend().evaluate(request) for request in requests]
    engine = ExecutionEngine(
        SimulatedBackend(chip=FpgaChip.build("ZC702")), scheduler=scheduler, jobs=jobs
    )
    assert engine.evaluate_many(requests) == reference


def test_batching_collapses_backend_calls():
    """Serial batched evaluation of n distinct pure misses is ONE crossing."""
    requests = [_request(REGION, round(0.62 - 0.005 * i, 4), 50.0, 0xFFFF, 2)
                for i in range(24)]
    engine = ExecutionEngine(SimulatedBackend(chip=FpgaChip.build("ZC702")))
    assert engine.evaluate_many(requests) == [
        backend().evaluate(request) for request in requests
    ]
    assert engine.counters.n_backend_calls == 1
    assert engine.counters.n_backend_evaluations == 24
    # The golden-facing JSON form never carries the crossing telemetry.
    assert set(engine.counters.to_dict()) == {
        "n_requests", "n_cache_hits", "n_backend_evaluations", "n_deduplicated"
    }
