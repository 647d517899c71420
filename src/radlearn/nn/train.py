"""Mini-batch training loop with freeze support, and the gradient check.

Training runs in float32 with seeded batch shuffling, so a fixed
(net seed, train seed, data) triple pins the whole trace bit-exactly. The
parameters live in one flat float32 buffer in checkpoint order, ``net.flat``,
and each backward pass writes the batch's gradients into ``net.grad``, a
buffer of the same layout; each batch makes one optimizer step of the one on
the other. Frozen layers' slices of ``net.flat`` are copied once before the
first step and written back after every step, so they stay bit-for-bit
unmoved while the trace records their real gradients. The trace snapshot per
epoch uses the last batch's gradients, mirroring per-epoch histogram plots.
The first conv block's columns (``Network.columns``) of the training and
validation images are built once; steps and metric passes read them. A
non-finite loss, weight or gradient ends training with NumericFailure.

gradient_check builds its own float64 copy of the network and compares the
analytic gradients against central finite differences on sampled parameters;
it exists so every gradient-flow diagnosis downstream rests on verified math.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataValidationError, NumericFailure
from ..histogram import histogram
from ..metrics import confusion, metrics
from .checkpoint import Checkpoint, apply_checkpoint
from .config import NetConfig, TrainConfig
from .losses import LOSSES
from .network import Network
from .optim import OPTIMIZERS
from .trace import (
    EpochRecord,
    HistogramRecord,
    LayerEpochRecord,
    MetricRecord,
    TrainTrace,
)

GRADIENT_CHECK_MAX_PARAMS = 5000


def _l2(arr: np.ndarray) -> float:
    return float(np.sqrt(np.sum(arr.astype(np.float64) ** 2)))


def _hist_record(values: np.ndarray) -> HistogramRecord:
    counts, lo, hi = histogram(values, 32)
    return HistogramRecord(counts=counts.tolist(), lo=lo, hi=hi)


def _metric_record(net: Network, cols, labels, loss_name) -> MetricRecord:
    logits = net.forward(cols)
    loss_vec, _ = LOSSES[loss_name](logits, labels.astype(np.float64))
    preds = (logits >= 0).astype(int)
    m = metrics(confusion(preds, labels))
    return MetricRecord(loss=float(loss_vec.mean()), accuracy=m["accuracy"],
                        sensitivity=m["sensitivity"], specificity=m["specificity"])


def _checked(images, labels, which: str):
    """(float32 images, int64 labels) of a data set, or DataValidationError."""
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, reported below
        images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels).ravel()
    if images.ndim != 3 or images.shape[0] != labels.size:
        raise DataValidationError(f"expected (n, h, w) {which}images aligned with labels")
    if not ((labels == 0) | (labels == 1)).all():
        raise DataValidationError(f"{which}labels must each be 0 or 1")
    if not np.isfinite(images).all():
        raise DataValidationError(f"{which}images must be finite as float32")
    return images, labels.astype(np.int64)


def train(images, labels, net_cfg: NetConfig, train_cfg: TrainConfig,
          init: Checkpoint | None = None, val_images=None, val_labels=None):
    """Train a network and return (network, trace).

    images: (n, h, w) array; labels: (n,) of 0/1. A validation set is given
    as both ``val_images`` and ``val_labels`` or not at all; without one the
    validation metric rows duplicate the training rows.
    """
    images, labels = _checked(images, labels, "")
    if not ((labels == 0).any() and (labels == 1).any()):
        raise DataValidationError("training needs at least 1 sample of each class")
    has_val = val_images is not None
    if has_val != (val_labels is not None):
        raise DataValidationError("a validation set needs both val_images and val_labels")
    if has_val:
        val_images, val_labels = _checked(val_images, val_labels, "validation ")

    net = Network(net_cfg, dtype=np.float32)
    if init is not None:
        apply_checkpoint(net, init)
    unknown = [n for n in train_cfg.freeze_layers if n not in net.layer_names]
    if unknown:
        raise DataValidationError(f"freeze_layers name unknown layers: {unknown}")
    frozen = [(net.slices[name], net.flat[net.slices[name]].copy())
              for name in train_cfg.freeze_layers]

    optimizer = OPTIMIZERS[train_cfg.optimizer](train_cfg.learning_rate)
    rng = np.random.default_rng(train_cfg.seed)
    n = labels.size
    trace = TrainTrace(layer_names=list(net.layer_names))
    prev = net.flat.copy()  # the weights each epoch's delta_l2 is measured from
    # the first layer's input is the same every epoch: build it once per set
    cols = net.columns(images)
    val_cols = net.columns(val_images) if has_val else None

    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness checks report divergence
        for epoch in range(train_cfg.epochs):
            order = rng.permutation(n)
            for b, start in enumerate(range(0, n, train_cfg.batch_size)):
                batch = order[start:start + train_cfg.batch_size]
                loss, _, _ = net.loss_and_grads(cols[batch], labels[batch],
                                                train_cfg.loss)
                if not math.isfinite(loss):
                    raise NumericFailure(
                        f"non-finite loss at epoch {epoch}, batch {b}",
                        epoch=epoch, batch=b)
                optimizer.update(net.flat, net.grad)
                for span, weights in frozen:
                    net.flat[span] = weights

            # the epoch's last step may have left them non-finite, and no
            # histogram bins those
            for which, values in (("weights", net.flat), ("gradients", net.grad)):
                if not np.isfinite(values).all():
                    raise NumericFailure(f"non-finite {which} at epoch {epoch}", epoch=epoch)
            layer_records = {}
            for name, span in net.slices.items():
                weights, gradient = net.flat[span], net.grad[span]
                layer_records[name] = LayerEpochRecord(
                    weight_l2=_l2(weights),
                    grad_l2=_l2(gradient),
                    delta_l2=_l2(weights - prev[span]),
                    weight_hist=_hist_record(weights),
                    grad_hist=_hist_record(gradient),
                )
            prev = net.flat.copy()
            train_metrics = _metric_record(net, cols, labels, train_cfg.loss)
            if has_val:
                val_metrics = _metric_record(net, val_cols, val_labels, train_cfg.loss)
            else:
                val_metrics = MetricRecord(**vars(train_metrics))
            for which, record in (("train", train_metrics), ("validation", val_metrics)):
                if not math.isfinite(record.loss):
                    raise NumericFailure(f"non-finite {which} loss at epoch {epoch}", epoch=epoch)
            trace.epochs.append(EpochRecord(layers=layer_records, train=train_metrics,
                                            validation=val_metrics))
    # the columns go with this frame; the workspaces go here, so that neither
    # overlaps what the caller does next
    net.release_workspaces()
    return net, trace


def gradient_check(net_cfg: NetConfig, images, labels, loss: str = "bce_logit",
                   n_probe: int = 200, h: float = 1e-4, probe_seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs in float64 on a fresh network built from the config. The relative
    error is |a - n| / max(1e-8, |a| + |n|) over >= n_probe sampled
    parameters (all parameters when the network is smaller).
    """
    net = Network(net_cfg, dtype=np.float64)
    if net.n_params > GRADIENT_CHECK_MAX_PARAMS:
        raise DataValidationError(
            f"gradient check limited to {GRADIENT_CHECK_MAX_PARAMS} parameters, "
            f"network has {net.n_params}")
    images = net.columns(np.asarray(images, dtype=np.float64))
    labels = np.asarray(labels).ravel()

    net.loss_and_grads(images, labels, loss)
    analytic = net.grad.copy()  # each probe below overwrites net.grad

    probes = range(net.n_params)
    if net.n_params > n_probe:
        rng = np.random.default_rng(probe_seed)
        probes = rng.choice(net.n_params, size=n_probe, replace=False)

    worst = 0.0
    for i in probes:
        original = net.flat[i]
        net.flat[i] = original + h
        loss_plus, _, _ = net.loss_and_grads(images, labels, loss)
        net.flat[i] = original - h
        loss_minus, _, _ = net.loss_and_grads(images, labels, loss)
        net.flat[i] = original
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        rel = abs(analytic[i] - numeric) / max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, rel)
    return worst
