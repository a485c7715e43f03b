"""Shared fixtures for the test suite.

Heavy objects (chips, fault fields, trained networks) are session-scoped so
the suite stays fast; every fixture is fully deterministic (seeded), so tests
can assert on concrete numbers where the paper publishes them.

Two suite-level switches live here as well:

* ``--run-slow`` opts into the fleet-scale tests (marker ``slow``) locally;
  CI always runs them (the ``CI`` environment variable is set on GitHub
  Actions runners);
* ``--update-goldens`` rewrites the committed golden snapshots under
  ``tests/golden/`` instead of comparing against them (see
  ``tests/test_goldens.py``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core import FaultField
from repro.fpga import FpgaChip
from repro.nn import (
    QuantizedNetwork,
    TrainingConfig,
    synthetic_forest,
    synthetic_mnist,
    train_network,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run the fleet-scale tests marked 'slow' (CI always runs them)",
    )
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json snapshots instead of asserting them",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow") or os.environ.get("CI"):
        return
    skip_slow = pytest.mark.skip(
        reason="fleet-scale test; opt in with --run-slow (CI always runs it)"
    )
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture()
def golden(request):
    """Compare-or-update access to one committed golden JSON snapshot.

    Usage: ``golden("name", payload)`` — with ``--update-goldens`` the
    payload is written to ``tests/golden/name.json``; otherwise it is
    compared (to 9 significant digits for floats, exactly for everything
    else) against the committed snapshot.
    """
    update = request.config.getoption("--update-goldens")

    def check(name: str, payload):
        path = GOLDEN_DIR / f"{name}.json"
        normalized = json.loads(json.dumps(payload))
        if update:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(normalized, indent=2, sort_keys=True) + "\n")
            return
        assert path.exists(), (
            f"golden snapshot {path.name} missing; create it with "
            f"`pytest {request.node.nodeid} --update-goldens`"
        )
        expected = json.loads(path.read_text())
        _assert_close(expected, normalized, name)

    def _assert_close(expected, actual, where):
        if isinstance(expected, dict):
            assert isinstance(actual, dict) and set(expected) == set(actual), (
                f"{where}: key mismatch {sorted(expected)} vs "
                f"{sorted(actual) if isinstance(actual, dict) else type(actual)}"
            )
            for key in expected:
                _assert_close(expected[key], actual[key], f"{where}.{key}")
        elif isinstance(expected, list):
            assert isinstance(actual, list) and len(expected) == len(actual), (
                f"{where}: length mismatch"
            )
            for i, (e, a) in enumerate(zip(expected, actual)):
                _assert_close(e, a, f"{where}[{i}]")
        elif isinstance(expected, float) and not isinstance(expected, bool):
            assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), (
                f"{where}: {actual} != golden {expected}; if the change is "
                "intentional, refresh with --update-goldens"
            )
        else:
            assert expected == actual, f"{where}: {actual!r} != golden {expected!r}"

    return check


@pytest.fixture(scope="session")
def zc702_chip() -> FpgaChip:
    """The smallest studied board (280 BRAMs) — the default test chip."""
    return FpgaChip.build("ZC702")


@pytest.fixture(scope="session")
def zc702_field(zc702_chip: FpgaChip) -> FaultField:
    """Calibrated fault field of the ZC702 test chip."""
    return FaultField(zc702_chip)


@pytest.fixture(scope="session")
def vc707_chip() -> FpgaChip:
    """The performance-optimized board used for most of the paper's figures."""
    return FpgaChip.build("VC707")


@pytest.fixture(scope="session")
def vc707_field(vc707_chip: FpgaChip) -> FaultField:
    """Calibrated fault field of the VC707."""
    return FaultField(vc707_chip)


@pytest.fixture(scope="session")
def small_dataset():
    """A small Forest-like dataset: 54 features, 7 classes, quick to train on."""
    return synthetic_forest(n_train=1200, n_test=400, seed=5)


@pytest.fixture(scope="session")
def mnist_dataset():
    """A reduced MNIST-like dataset used by the accelerator tests."""
    return synthetic_mnist(n_train=1500, n_test=500, seed=9)


@pytest.fixture(scope="session")
def trained_small_network(small_dataset):
    """A trained float network on the small dataset (4 weight layers)."""
    result = train_network(
        small_dataset,
        topology=(54, 32, 24, 16, 7),
        config=TrainingConfig(epochs=10, seed=2, learning_rate=0.3),
    )
    return result


@pytest.fixture(scope="session")
def quantized_small_network(trained_small_network) -> QuantizedNetwork:
    """The quantized (16-bit fixed-point) version of the small trained network."""
    return QuantizedNetwork.from_network(trained_small_network.network)
