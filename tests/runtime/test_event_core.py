"""Property and edge-case suite for the discrete-event simulation core.

The event core's contract is *bit-identity*: for any fleet, trace and
policy, its telemetry document — voltages, temperatures, faults, serving
splits, energy, crashes — equals the stepped reference loop's exactly
(same digest), while doing work proportional to events instead of steps.
Hypothesis drives randomized traces (piecewise-constant and per-step
ambient, bursty and zero-request loads) through all four policies against
the stepped oracle, on both a healthy fleet and a doctored one whose
characterized Vmin sits *below* the true crash voltage, so crash/recovery
cycles interleave with every other event type.  The explicit edge cases
pin the couplings that property search finds rarely: recovery completing
exactly on a heat-chamber transient crossing, windows with every chip
crashed, zero-request epochs, and ambient programs the chamber's ramp
limit can never settle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.runtime import summarize_telemetry
from repro.core.calibration import get_calibration
from repro.runtime import (
    POLICY_NAMES,
    FleetSimulator,
    GovernorBundle,
    WorkloadTrace,
    sparse_diurnal_trace,
)
from repro.runtime.characterization import DieCharacterization
from repro.runtime.event_core import (
    chamber_temperature_path,
    die_timelines,
    merge_timelines,
    transient_steps,
)
from repro.runtime.governor import build_policy

def _trace(requests, ambient_c, step_seconds=60.0):
    return WorkloadTrace(
        kind="synthetic",
        seed=0,
        step_seconds=step_seconds,
        requests=np.asarray(requests, dtype=np.int64),
        ambient_c=np.asarray(ambient_c, dtype=float),
    )


@pytest.fixture(scope="module")
def simulator(small_bundle, small_network):
    """Healthy 2-die fleet on a short sparse-diurnal base trace."""
    return FleetSimulator(
        small_bundle,
        small_network,
        sparse_diurnal_trace(n_steps=48, epoch_steps=8, seed=3),
    )


@pytest.fixture(scope="module")
def crashy_simulator(small_bundle, small_network):
    """Fleet doctored so undervolting policies cross the true crash line.

    Each die's characterization is rewritten with ``Vmin`` slightly below
    the calibration's true crash voltage (and ``Vcrash`` far enough down
    that the clamp floor does not save it), so static-undervolt and
    reactive reboot-thrash and predictive crashes through cold windows —
    the crash/recovery interleavings the identity proof must cover.
    """
    bundle = GovernorBundle(source="doctored")
    for die in small_bundle:
        true_crash = get_calibration(die.platform).vcrash_bram_v
        bundle.add(DieCharacterization(
            platform=die.platform,
            serial=die.serial,
            vnom_v=die.vnom_v,
            vmin_v=round(true_crash - 0.005, 6),
            vcrash_v=round(true_crash - 0.040, 6),
            itd_v_per_degc=die.itd_v_per_degc,
            ripple_margin_v=die.ripple_margin_v,
        ))
    return FleetSimulator(
        bundle,
        small_network,
        sparse_diurnal_trace(n_steps=48, epoch_steps=8, seed=3),
    )


def assert_identity(simulator, trace, policy):
    """Digest and summary of the event core must equal the stepped oracle."""
    sim = simulator.with_trace(trace)
    event_log = sim.run_event(policy)
    stepped_log = sim.run_stepped(policy)
    assert event_log.digest() == stepped_log.digest(), (
        f"{policy}: event core diverged from the stepped reference"
    )
    event_summary = summarize_telemetry(event_log).to_dict()
    stepped_summary = summarize_telemetry(stepped_log).to_dict()
    assert event_summary == stepped_summary
    return event_log


# ----------------------------------------------------------------------
# Hypothesis: randomized traces against the stepped oracle
# ----------------------------------------------------------------------
@st.composite
def traces(draw):
    """Random workload traces: epoch ambient plateaus, spiky/zero loads."""
    n_steps = draw(st.integers(min_value=8, max_value=72))
    epoch = draw(st.integers(min_value=1, max_value=16))
    n_epochs = -(-n_steps // epoch)
    levels = draw(st.lists(
        st.integers(min_value=25, max_value=95),
        min_size=n_epochs, max_size=n_epochs,
    ))
    ambient = np.repeat(np.asarray(levels, dtype=float), epoch)[:n_steps]
    requests = np.asarray(draw(st.lists(
        st.sampled_from([0, 0, 40, 400, 9000, 60000]),
        min_size=n_steps, max_size=n_steps,
    )), dtype=np.int64)
    step_seconds = draw(st.sampled_from([30.0, 60.0, 120.0]))
    return _trace(requests, ambient, step_seconds)


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(trace=traces(), policy=st.sampled_from(POLICY_NAMES))
def test_event_core_matches_stepped_on_random_traces(
    simulator, trace, policy
):
    assert_identity(simulator, trace, policy)


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(trace=traces(), policy=st.sampled_from(POLICY_NAMES))
def test_event_core_matches_stepped_through_crash_cycles(
    crashy_simulator, trace, policy
):
    assert_identity(crashy_simulator, trace, policy)


# ----------------------------------------------------------------------
# Edge cases the property search finds rarely
# ----------------------------------------------------------------------
def test_zero_request_epochs(simulator):
    requests = np.zeros(36, dtype=np.int64)
    requests[12:24] = 50_000
    trace = _trace(requests, np.full(36, 50.0))
    for policy in POLICY_NAMES:
        log = assert_identity(simulator, trace, policy)
        summary = summarize_telemetry(log)
        assert summary.served <= int(requests.sum())


def test_all_chips_crashed_windows(crashy_simulator):
    trace = _trace(np.full(40, 5_000), np.full(40, 50.0))
    log = assert_identity(crashy_simulator, trace, "static-undervolt")
    summary = summarize_telemetry(log)
    # Both dies reboot-thrash through the whole trace: every step of every
    # chip is a crash step and nothing is served.
    assert summary.crash_steps == 2 * trace.n_steps
    assert summary.served == 0


def test_recovery_completing_exactly_on_transient_crossing(crashy_simulator):
    # Crash at step 0 spans steps 0..3 (recovery 3); the governor's next
    # evaluation lands on step 4 — exactly when the ambient program jumps,
    # so the recovery event and the transient crossing coincide and must
    # drain as one evaluation, not two.
    assert crashy_simulator.crash_recovery_steps == 3
    ambient = np.full(24, 50.0)
    ambient[4:] = 80.0
    trace = _trace(np.full(24, 2_000), ambient)
    for policy in POLICY_NAMES:
        assert_identity(crashy_simulator, trace, policy)


def test_ramp_limited_never_reached_setpoints(simulator):
    # Ambient alternates across the chamber's full span faster than its
    # 5 degC/step ramp can follow: the board temperature moves every step
    # and never reaches either setpoint, so the "sparse transient" model
    # degenerates to a dense one — the event core must stay exact.
    ambient = np.where(np.arange(30) % 2 == 0, 20.0, 110.0)
    trace = _trace(np.full(30, 10_000), ambient)
    temps = chamber_temperature_path(trace)
    assert transient_steps(temps).size == trace.n_steps - 1
    for policy in ("predictive", "reactive"):
        assert_identity(simulator, trace, policy)


# ----------------------------------------------------------------------
# Sharding and merge-order invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler,jobs", [("thread", 3), ("process", 2)])
def test_sharded_digest_identical(crashy_simulator, scheduler, jobs):
    for policy in ("static-undervolt", "reactive"):
        serial_log = crashy_simulator.run_event(policy)
        sharded_log = crashy_simulator.run_event(
            policy, scheduler=scheduler, jobs=jobs
        )
        assert sharded_log.digest() == serial_log.digest()


def test_merge_is_submission_order_independent(simulator):
    policy = build_policy("reactive")
    policy.reset()
    timelines, temps = die_timelines(simulator, policy)
    reference = merge_timelines(simulator, policy, timelines, temps=temps)
    shuffled = merge_timelines(
        simulator, policy, list(reversed(timelines)), temps=temps
    )
    assert shuffled.digest() == reference.digest()


def test_merge_rejects_incomplete_or_duplicate_timelines(simulator):
    policy = build_policy("predictive")
    policy.reset()
    timelines, temps = die_timelines(simulator, policy)
    with pytest.raises(ValueError):
        merge_timelines(simulator, policy, timelines[:-1], temps=temps)
    with pytest.raises(ValueError):
        merge_timelines(
            simulator, policy, [timelines[0], timelines[0]], temps=temps
        )
