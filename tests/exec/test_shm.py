"""Zero-copy fault-table sharing: export, attach, compute, release.

The mmap export must be lossless (attached columns equal the built arrays
bit for bit), produce identical kernel results through an attached table,
and integrate with the backend's ``share_table`` worker-spec path so
process-scheduled batches answer without rebuilding cell populations.
"""

import numpy as np
import pytest

from repro.core.batch import cached_fault_field
from repro.exec import ExecutionEngine, REGION, EvalRequest, SimulatedBackend
from repro.exec.shm import SharedTableSpec, attach_table, export_table, release
from repro.fpga import FpgaChip
from repro.fpga.voltage import VCCBRAM


@pytest.fixture(scope="module")
def built():
    chip = FpgaChip.build("ZC702")
    field = cached_fault_field(chip)
    return chip, field, field.batch.table


def test_export_attach_roundtrip_is_lossless(built):
    _chip, _field, table = built
    spec = export_table(table)
    try:
        attached = attach_table(spec)
        assert attached.n_brams == table.n_brams
        assert attached.n_cells == table.n_cells
        for column in ("bram_ids", "cols", "thresholds_v", "one_to_zero"):
            original = np.asarray(getattr(table, column))
            mapped = np.asarray(getattr(attached, column))
            assert mapped.dtype == original.dtype
            assert np.array_equal(mapped, original)
    finally:
        release(spec)


def test_attached_table_answers_kernels_identically(built):
    _chip, field, table = built
    spec = export_table(table)
    try:
        attached = attach_table(spec)
        # An adopted mmap table must reproduce the in-memory kernel exactly.
        reference = field.batch.sorted_observable_thresholds(0xFFFF).copy()
        chip = FpgaChip.build("ZC702")
        other = cached_fault_field(chip)
        other.batch.adopt_table(attached)
        assert np.array_equal(
            other.batch.sorted_observable_thresholds(0xFFFF), reference
        )
    finally:
        release(spec)


def test_attach_rejects_wrong_cell_count(built):
    _chip, _field, table = built
    spec = export_table(table)
    try:
        corrupted = SharedTableSpec(
            directory=spec.directory, n_brams=spec.n_brams,
            n_cells=spec.n_cells + 1,
        )
        with pytest.raises(ValueError, match="cells"):
            attach_table(corrupted)
    finally:
        release(spec)


def test_release_removes_the_export(built):
    import pathlib

    _chip, _field, table = built
    spec = export_table(table)
    assert pathlib.Path(spec.directory).exists()
    release(spec)
    assert not pathlib.Path(spec.directory).exists()
    # Idempotent: releasing twice is harmless.
    release(spec)


def test_share_table_spec_travels_and_workers_answer_batches(built):
    """The full path process workers take: spec + shared table -> batch."""
    from repro.exec.engine import _evaluate_spec_batch

    backend = SimulatedBackend(chip=FpgaChip.build("ZC702"))
    requests = [
        EvalRequest(kind=REGION, rail=VCCBRAM, voltage_v=round(0.60 - 0.005 * i, 4),
                    temperature_c=50.0, pattern=0xFFFF, n_runs=2)
        for i in range(6)
    ]
    reference = [backend.evaluate(request) for request in requests]

    shared_spec = backend.share_table()
    assert shared_spec is not None
    assert any(isinstance(part, SharedTableSpec) for part in shared_spec)
    # Memoized: a second call exports nothing new.
    assert backend.share_table() == shared_spec
    # Simulate a worker: rebuild from the spec (attaching, not rebuilding
    # the cell population) and answer the whole batch in one crossing.
    assert _evaluate_spec_batch(shared_spec, tuple(requests)) == reference


def test_process_scheduled_batches_match_serial(built):
    requests = [
        EvalRequest(kind=REGION, rail=VCCBRAM, voltage_v=round(0.60 - 0.005 * i, 4),
                    temperature_c=50.0, pattern=0xFFFF, n_runs=2)
        for i in range(10)
    ]
    backend = SimulatedBackend(chip=FpgaChip.build("ZC702"))
    reference = [backend.evaluate(request) for request in requests]
    engine = ExecutionEngine(
        SimulatedBackend(chip=FpgaChip.build("ZC702")), scheduler="process", jobs=2
    )
    assert engine.evaluate_many(requests) == reference
