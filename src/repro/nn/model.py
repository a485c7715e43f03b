"""Fully-connected neural-network container.

Table III describes the paper's network: a fully-connected classifier with
six layers of 784, 1024, 512, 256, 128 and 10 neurons, logarithmic-sigmoid
activations in the hidden layers and a softmax at the output, for roughly
1.5 million weights.  This module holds the network structure and parameters;
training lives in :mod:`repro.nn.train` and the (float and fixed-point)
forward passes in :mod:`repro.nn.inference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: The topology of Table III (one input, four hidden, one output layer).
PAPER_TOPOLOGY: Tuple[int, ...] = (784, 1024, 512, 256, 128, 10)

#: Width-scaled variant of the paper topology (hidden layers divided by four,
#: same depth and same layer-size ordering).  The experiments default to this
#: so that training and the voltage/accuracy sweeps finish in seconds; the
#: full :data:`PAPER_TOPOLOGY` remains available for the Table III benchmark.
SCALED_TOPOLOGY: Tuple[int, ...] = (784, 256, 128, 64, 32, 10)


class ModelError(ValueError):
    """Raised for inconsistent network definitions."""


def logsig(x: np.ndarray) -> np.ndarray:
    """Logarithmic sigmoid activation, numerically stabilized."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def logsig_derivative(activated: np.ndarray) -> np.ndarray:
    """Derivative of the sigmoid expressed in terms of its output."""
    return activated * (1.0 - activated)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax used by the output layer."""
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass
class DenseLayer:
    """One fully-connected weight set (``Layer_j`` between ``L_j`` and ``L_j+1``)."""

    index: int
    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2:
            raise ModelError("layer weights must be a 2-D matrix")
        if self.biases.shape != (self.weights.shape[1],):
            raise ModelError("bias vector length must match the layer's output width")

    @property
    def n_inputs(self) -> int:
        """Number of neurons feeding this weight set."""
        return int(self.weights.shape[0])

    @property
    def n_outputs(self) -> int:
        """Number of neurons this weight set drives."""
        return int(self.weights.shape[1])

    @property
    def n_weights(self) -> int:
        """Number of weight parameters (biases excluded)."""
        return int(self.weights.size)

    def weight_range(self) -> Tuple[float, float]:
        """Minimum and maximum trained weight, used to size the digit bits."""
        return float(self.weights.min()), float(self.weights.max())


@dataclass
class FullyConnectedNetwork:
    """A fully-connected classifier with sigmoid hidden layers and softmax output."""

    topology: Tuple[int, ...]
    layers: List[DenseLayer] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.topology = tuple(int(n) for n in self.topology)
        if len(self.topology) < 2:
            raise ModelError("a network needs at least an input and an output layer")
        if any(width <= 0 for width in self.topology):
            raise ModelError("all layer widths must be positive")
        if self.layers:
            self._validate_layers()

    def _validate_layers(self) -> None:
        if len(self.layers) != self.n_weight_layers:
            raise ModelError(
                f"expected {self.n_weight_layers} weight layers, got {len(self.layers)}"
            )
        for j, layer in enumerate(self.layers):
            expected = (self.topology[j], self.topology[j + 1])
            if layer.weights.shape != expected:
                raise ModelError(
                    f"layer {j} weights shaped {layer.weights.shape}, expected {expected}"
                )

    # ------------------------------------------------------------------
    @classmethod
    def initialize(
        cls, topology: Sequence[int] = PAPER_TOPOLOGY, seed: int = 0
    ) -> "FullyConnectedNetwork":
        """Random (Xavier-style) initialization of a network with this topology."""
        topology = tuple(int(n) for n in topology)
        rng = np.random.default_rng(seed)
        layers: List[DenseLayer] = []
        for j in range(len(topology) - 1):
            fan_in, fan_out = topology[j], topology[j + 1]
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            weights = rng.normal(0.0, scale, size=(fan_in, fan_out))
            biases = np.zeros(fan_out)
            layers.append(DenseLayer(index=j, weights=weights, biases=biases))
        return cls(topology=topology, layers=layers)

    # ------------------------------------------------------------------
    @property
    def n_weight_layers(self) -> int:
        """Number of weight sets (``Layer_0 .. Layer_4`` for the paper topology)."""
        return len(self.topology) - 1

    @property
    def n_weights(self) -> int:
        """Total number of weight parameters (paper: ~1.5 million)."""
        return sum(layer.n_weights for layer in self.layers)

    @property
    def n_neurons(self) -> int:
        """Total number of neurons across all layers (paper: 2714)."""
        return sum(self.topology)

    def layer(self, index: int) -> DenseLayer:
        """Weight set ``Layer_index``."""
        if not 0 <= index < self.n_weight_layers:
            raise ModelError(f"layer index {index} out of range")
        return self.layers[index]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Float forward pass returning softmax class probabilities."""
        activations = np.asarray(inputs, dtype=float)
        if activations.ndim == 1:
            activations = activations[None, :]
        if activations.shape[1] != self.topology[0]:
            raise ModelError(
                f"input width {activations.shape[1]} does not match topology input "
                f"{self.topology[0]}"
            )
        for j, layer in enumerate(self.layers):
            pre = activations @ layer.weights + layer.biases
            if j == self.n_weight_layers - 1:
                activations = softmax(pre)
            else:
                activations = logsig(pre)
        return activations

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predicted class index per input row."""
        return self.forward(inputs).argmax(axis=1)

    def copy(self) -> "FullyConnectedNetwork":
        """Deep copy (used before fault injection so the clean model survives)."""
        layers = [
            DenseLayer(
                index=layer.index, weights=layer.weights.copy(), biases=layer.biases.copy()
            )
            for layer in self.layers
        ]
        return FullyConnectedNetwork(topology=self.topology, layers=layers)

    def summary(self) -> Dict[str, object]:
        """Table III-style description of the network."""
        return {
            "type": "Fully-Connected Classifier",
            "topology": self.topology,
            "n_layers": len(self.topology),
            "n_neurons": self.n_neurons,
            "n_weights": self.n_weights,
            "activation": "Logarithmic Sigmoid (logsig)",
            "output": "softmax",
        }
