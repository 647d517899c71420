"""Per-epoch, per-layer training trace: the input to the diagnostics.

Each epoch records, per layer: L2 norms of the weights, of the last batch's
gradient, and of the weight change since the previous epoch end, plus 32-bin
histograms of weight and gradient values. Train and validation metric rows
(loss, accuracy, sensitivity, specificity) complete the record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataValidationError
from ..jsonio import from_json, read_json, write_json


@dataclass
class HistogramRecord:
    counts: list[int]
    lo: float
    hi: float


@dataclass
class LayerEpochRecord:
    weight_l2: float
    grad_l2: float
    delta_l2: float
    weight_hist: HistogramRecord
    grad_hist: HistogramRecord


@dataclass
class MetricRecord:
    loss: float
    accuracy: float
    sensitivity: float
    specificity: float


@dataclass
class EpochRecord:
    layers: dict[str, LayerEpochRecord]
    train: MetricRecord
    validation: MetricRecord


@dataclass
class TrainTrace:
    layer_names: list[str]
    epochs: list[EpochRecord] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    def series(self, layer: str, attribute: str) -> np.ndarray:
        """Per-epoch series of one layer statistic (weight_l2/grad_l2/delta_l2)."""
        if layer not in self.layer_names:
            raise DataValidationError(f"unknown layer {layer!r}")
        return np.array([getattr(e.layers[layer], attribute) for e in self.epochs])

    def metric_series(self, attribute: str) -> np.ndarray:
        """Per-epoch series of one validation metric (loss/accuracy/sensitivity/specificity)."""
        return np.array([getattr(e.validation, attribute) for e in self.epochs])


def save_trace(tr: TrainTrace, path) -> None:
    write_json(tr, path)


def load_trace(path) -> TrainTrace:
    tr = from_json(TrainTrace, read_json(path), "training trace")
    for i, epoch in enumerate(tr.epochs):  # order-free: keys are sorted on disk
        if sorted(epoch.layers) != sorted(tr.layer_names):
            raise DataValidationError(
                f"malformed training trace: epochs[{i}].layers must have the keys "
                f"{tr.layer_names} of layer_names, got {sorted(epoch.layers)}")
    return tr
