"""Inference engines: float reference and bit-accurate fixed-point.

The FPGA accelerator performs the classification (inference) phase only: the
weights are quantized offline, loaded into BRAMs, and the matrix
multiplications and sigmoid activations run on DSPs and LUTs in a streaming
fashion.  For the undervolting study the essential property is that inference
consumes the *encoded 16-bit weight words stored in BRAMs*, so a bit flip in
a stored word is exactly a bit flip in the weight the datapath sees.

:class:`QuantizedNetwork` holds those encoded words (per layer, with the
per-layer minimum-precision formats of Fig. 9) and decodes them on the fly
during the forward pass.  The accelerator package swaps words in and out of
the simulated BRAMs and re-runs inference to measure the accuracy impact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .fixedpoint import DEFAULT_TOTAL_BITS, FixedPointFormat, per_layer_formats, zero_bit_fraction
from .model import FullyConnectedNetwork, logsig, softmax


class InferenceError(ValueError):
    """Raised for malformed quantized networks or inputs."""


@dataclass
class QuantizedLayer:
    """One layer's weights encoded as fixed-point words.

    Attributes
    ----------
    index:
        Layer index (``Layer_j`` of the paper).
    fmt:
        The per-layer minimum-precision format.
    weight_words:
        Encoded weight words, shaped like the float weight matrix
        ``(n_inputs, n_outputs)``.
    biases:
        Float biases; the accelerator keeps biases in flip-flops, outside the
        undervolted BRAMs, so they are not subject to fault injection.
    """

    index: int
    fmt: FixedPointFormat
    weight_words: np.ndarray
    biases: np.ndarray

    def __post_init__(self) -> None:
        self.weight_words = np.asarray(self.weight_words, dtype=np.uint32)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weight_words.ndim != 2:
            raise InferenceError("weight words must form a 2-D matrix")
        if self.biases.shape != (self.weight_words.shape[1],):
            raise InferenceError("bias vector length must match the layer output width")

    @property
    def n_weights(self) -> int:
        """Number of weight words in this layer."""
        return int(self.weight_words.size)

    def decoded_weights(self) -> np.ndarray:
        """Float weight matrix as the datapath sees it."""
        return self.fmt.decode_array(self.weight_words)

    def flat_words(self) -> np.ndarray:
        """Weight words flattened in row-major order (the BRAM storage order)."""
        return self.weight_words.reshape(-1)

    def set_flat_words(self, words: Sequence[int]) -> None:
        """Replace the layer's words from flat storage order (after fault injection)."""
        words = np.asarray(words, dtype=np.uint32)
        if words.size != self.weight_words.size:
            raise InferenceError(
                f"layer {self.index} expects {self.weight_words.size} words, got {words.size}"
            )
        self.weight_words = words.reshape(self.weight_words.shape)

    def zero_bit_fraction(self) -> float:
        """Fraction of zero bits among this layer's stored weight bits."""
        return zero_bit_fraction(self.weight_words, total_bits=self.fmt.total_bits)


@dataclass
class QuantizedNetwork:
    """A fully-connected classifier with BRAM-resident fixed-point weights."""

    topology: Tuple[int, ...]
    layers: List[QuantizedLayer] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_network(
        cls,
        network: FullyConnectedNetwork,
        total_bits: int = DEFAULT_TOTAL_BITS,
    ) -> "QuantizedNetwork":
        """Quantize a trained float network with per-layer minimum precision."""
        formats = per_layer_formats(network, total_bits)
        layers = [
            QuantizedLayer(
                index=j,
                fmt=formats[j],
                weight_words=formats[j].encode_array(layer.weights),
                biases=layer.biases.copy(),
            )
            for j, layer in enumerate(network.layers)
        ]
        return cls(topology=network.topology, layers=layers)

    # ------------------------------------------------------------------
    @property
    def n_weight_layers(self) -> int:
        """Number of weight sets."""
        return len(self.layers)

    @property
    def n_weights(self) -> int:
        """Total number of stored weight words."""
        return sum(layer.n_weights for layer in self.layers)

    def layer(self, index: int) -> QuantizedLayer:
        """Quantized weight set ``Layer_index``."""
        if not 0 <= index < len(self.layers):
            raise InferenceError(f"layer index {index} out of range")
        return self.layers[index]

    def copy(self) -> "QuantizedNetwork":
        """Deep copy, used to keep a pristine reference next to a faulty instance."""
        layers = [
            QuantizedLayer(
                index=layer.index,
                fmt=layer.fmt,
                weight_words=layer.weight_words.copy(),
                biases=layer.biases.copy(),
            )
            for layer in self.layers
        ]
        return QuantizedNetwork(topology=self.topology, layers=layers)

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Forward pass decoding the stored words, returning class probabilities."""
        activations = np.asarray(inputs, dtype=float)
        if activations.ndim == 1:
            activations = activations[None, :]
        if activations.shape[1] != self.topology[0]:
            raise InferenceError(
                f"input width {activations.shape[1]} does not match topology input "
                f"{self.topology[0]}"
            )
        last = len(self.layers) - 1
        for j, layer in enumerate(self.layers):
            weights = layer.decoded_weights()
            pre = activations @ weights + layer.biases
            activations = softmax(pre) if j == last else logsig(pre)
        return activations

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predicted class per input row."""
        return self.forward(inputs).argmax(axis=1)

    def classification_error(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Fraction of misclassified samples."""
        predictions = self.predict(inputs)
        return float(np.mean(predictions != np.asarray(labels)))

    # ------------------------------------------------------------------
    # Bit-level statistics
    # ------------------------------------------------------------------
    def zero_bit_fraction(self) -> float:
        """Fraction of zero bits over every stored weight word (paper: 76.3 %)."""
        total_bits = 0
        zero_bits = 0.0
        for layer in self.layers:
            bits = layer.weight_words.size * layer.fmt.total_bits
            zero_bits += layer.zero_bit_fraction() * bits
            total_bits += bits
        if total_bits == 0:
            return 1.0
        return zero_bits / total_bits

    def precision_summary(self) -> List[Dict[str, int]]:
        """Per-layer sign/digit/fraction widths (Fig. 9)."""
        return [
            {
                "layer": layer.index,
                "sign_bits": layer.fmt.sign_bits,
                "digit_bits": layer.fmt.digit_bits,
                "fraction_bits": layer.fmt.fraction_bits,
            }
            for layer in self.layers
        ]
