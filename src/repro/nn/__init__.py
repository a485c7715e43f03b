"""Neural-network substrate: datasets, training, quantization, inference.

Implements the workload side of the paper's case study (Section III): the
fully-connected classifier of Table III, its offline training, the 16-bit
per-layer minimum-precision fixed-point representation of Fig. 9, and the
bit-accurate quantized inference engine whose weight words live in BRAMs.
"""

from .datasets import (
    BENCHMARKS,
    Dataset,
    DatasetError,
    load_benchmark,
    one_hot_labels,
    synthetic_forest,
    synthetic_mnist,
    synthetic_reuters,
)
from .fixedpoint import (
    DEFAULT_TOTAL_BITS,
    FixedPointError,
    FixedPointFormat,
    minimum_digit_bits,
    minimum_format_for,
    per_layer_formats,
    precision_table,
    zero_bit_fraction,
)
from .inference import InferenceError, QuantizedLayer, QuantizedNetwork
from .model import (
    DenseLayer,
    FullyConnectedNetwork,
    ModelError,
    PAPER_TOPOLOGY,
    SCALED_TOPOLOGY,
    logsig,
    logsig_derivative,
    softmax,
)
from .train import TrainingConfig, TrainingError, TrainingResult, train_network

__all__ = [
    "BENCHMARKS",
    "DEFAULT_TOTAL_BITS",
    "Dataset",
    "DatasetError",
    "DenseLayer",
    "FixedPointError",
    "FixedPointFormat",
    "FullyConnectedNetwork",
    "InferenceError",
    "ModelError",
    "PAPER_TOPOLOGY",
    "SCALED_TOPOLOGY",
    "QuantizedLayer",
    "QuantizedNetwork",
    "TrainingConfig",
    "TrainingError",
    "TrainingResult",
    "load_benchmark",
    "logsig",
    "logsig_derivative",
    "minimum_digit_bits",
    "minimum_format_for",
    "one_hot_labels",
    "per_layer_formats",
    "precision_table",
    "softmax",
    "synthetic_forest",
    "synthetic_mnist",
    "synthetic_reuters",
    "train_network",
    "zero_bit_fraction",
]
