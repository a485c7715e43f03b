"""Fleet-scale campaign tests (marker ``slow``: opt-in locally, always in CI).

These run the full 16-chip ``fleet16`` preset — the same workload as the
acceptance benchmark — inside the test suite, so CI exercises the adaptive
fleet path end to end on every push.  Locally they are skipped unless
``--run-slow`` is given (each run characterizes 16 dies twice).

Every comparison here is *cross-store-version*: one side of each pair runs
against the v1 per-unit layout and the other against the v2 segmented
columnar layout, so the equivalence claims (adaptive == exhaustive,
parallel == serial) simultaneously prove the two layouts interchangeable
at fleet scale without doubling the number of campaign runs.
"""

import dataclasses
import time

import pytest

from repro.campaign import build_report, open_store, preset_spec, run_campaign

pytestmark = pytest.mark.slow


class TestFleet16AdaptivePath:
    @pytest.mark.parametrize(
        "adaptive_version,exhaustive_version", [(1, 2), (2, 1)]
    )
    def test_adaptive_fleet_matches_exhaustive_and_saves_5x(
        self, tmp_path, adaptive_version, exhaustive_version
    ):
        adaptive_spec = preset_spec("fleet16")
        exhaustive_spec = dataclasses.replace(
            adaptive_spec, name="fleet16-ex", search="exhaustive"
        )
        adaptive = run_campaign(
            adaptive_spec, root=tmp_path, max_workers=2,
            store_version=adaptive_version,
        )
        exhaustive = run_campaign(
            exhaustive_spec, root=tmp_path, max_workers=2,
            store_version=exhaustive_version,
        )
        assert adaptive.store_version == adaptive_version
        assert exhaustive.store_version == exhaustive_version

        adaptive_rails = {
            r.unit.chip_key: r.summary["rails"]
            for r in open_store(adaptive_spec.name, tmp_path).results(
                adaptive_spec, with_arrays=False
            )
        }
        exhaustive_rails = {
            r.unit.chip_key: r.summary["rails"]
            for r in open_store(exhaustive_spec.name, tmp_path).results(
                exhaustive_spec, with_arrays=False
            )
        }
        assert adaptive_rails == exhaustive_rails
        speedup = (
            exhaustive.evaluations["n_evaluations"]
            / adaptive.evaluations["n_evaluations"]
        )
        assert speedup >= 5.0

    @pytest.mark.parametrize(
        "parallel_version,serial_version", [(1, 2), (2, 1)]
    )
    def test_parallel_and_serial_adaptive_runs_agree(
        self, tmp_path, parallel_version, serial_version
    ):
        """Scalars AND persisted arrays are independent of scheduling.

        The probed-point *set* of an adaptive search depends on warm-start
        state, which differs between serial and process-parallel execution;
        the stored payload keeps only the certificate-decisive points, so
        the on-disk results must be bit-identical regardless — whichever
        store layout each run lands in.
        """
        import numpy as np

        parallel_spec = preset_spec("fleet16")
        serial_spec = dataclasses.replace(parallel_spec, name="fleet16-serial")
        run_campaign(
            parallel_spec, root=tmp_path, max_workers=4,
            store_version=parallel_version,
        )
        run_campaign(
            serial_spec, root=tmp_path, scheduler="serial",
            store_version=serial_version,
        )
        parallel = {
            r.unit.chip_key: r
            for r in open_store(parallel_spec.name, tmp_path).results(parallel_spec)
        }
        serial = {
            r.unit.chip_key: r
            for r in open_store(serial_spec.name, tmp_path).results(serial_spec)
        }
        assert set(parallel) == set(serial)
        for chip_key, parallel_result in parallel.items():
            serial_result = serial[chip_key]
            assert parallel_result.summary["rails"] == serial_result.summary["rails"]
            assert set(parallel_result.arrays) == set(serial_result.arrays)
            for name, array in parallel_result.arrays.items():
                assert np.array_equal(
                    array, serial_result.arrays[name], equal_nan=True
                ), (chip_key, name)


class TestStreamingReportScale:
    def test_streaming_report_over_10k_synthetic_dies(self, tmp_path, monkeypatch):
        """The v2 report path aggregates 10k dies without per-die objects.

        Synthetic (schema-correct, fabricated) results isolate store-layer
        cost from the fault model.  Materialization is policed directly: a
        poisoned ``UnitResult`` constructor fails the test if the streaming
        path ever builds one.
        """
        from repro.campaign import store_v2 as store_v2_module
        from repro.campaign.store_v2 import CampaignStoreV2
        from repro.campaign.synthetic import (
            synthetic_fleet_spec,
            synthetic_result_batches,
        )

        spec = synthetic_fleet_spec(10_000, "stream10k")
        store = CampaignStoreV2.open(spec, tmp_path)
        for batch in synthetic_result_batches(spec, batch_rows=4_000):
            store.save_many(batch)
        store.compact()

        def poisoned(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError(
                "streaming report materialized a per-die UnitResult"
            )

        monkeypatch.setattr(store_v2_module, "UnitResult", poisoned)
        fresh = open_store(spec.name, tmp_path)
        start = time.perf_counter()
        report = build_report(fresh, spec)
        elapsed = time.perf_counter() - start

        assert report.n_completed == 10_000
        assert report.store["version"] == 2
        assert report.fleet["vccbram_vmin_v"].as_dict()["n"] == 10_000
        # Sub-second at 10x this scale is the bench target; at 10k dies the
        # streaming path has two orders of magnitude of headroom, so even a
        # loaded CI worker holds a generous bound.
        assert elapsed < 5.0
        # Rows stream out of the ordered columns on demand — spot-check the
        # first row is the first unit of the expansion without iterating all.
        assert report.units[0]["unit_id"] == spec.expand()[0].unit_id
