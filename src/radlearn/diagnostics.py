"""Learnability diagnostics over a training trace.

Three detectors formalize the "unlearnable model" signatures: layers whose
weights never move (static weights), layers whose gradients are numerically
zero almost every epoch (dead gradients), and complementary sensitivity/
specificity oscillation (class flipping, the model alternately favoring one
class). The verdict rule is fixed:

    unlearnable  <=>  (>= 50% of layers static) or class flipping
    learnable    <=>  no static layer and no flipping
    inconclusive otherwise

Every threshold is a DiagnosticThresholds knob, defaulting to the documented
reference value. The detectors are one formalization of qualitatively
described phenomena, and the report labels them so.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataValidationError
from .jsonio import check, write_json
from .metrics import correlations
from .nn.trace import TrainTrace


@dataclass
class DiagnosticThresholds:
    """Also the ``diagnose`` config section."""

    static_rel_tol: float = 1e-4
    dead_abs_tol: float = 1e-10
    dead_epoch_quorum: float = 0.9
    flip_corr_thresh: float = -0.5
    flip_amp_thresh: float = 0.3
    static_layer_quorum: float = 0.5

    def __post_init__(self):
        check("diagnose", self, [])


_DEFAULTS = DiagnosticThresholds()


@dataclass
class LayerDiagnosis:
    layer: str
    static_weights: bool
    dead_gradient: bool
    mean_delta_l2: float
    mean_grad_l2: float


@dataclass
class DiagnosisReport:
    layers: list[LayerDiagnosis]
    class_flipping: bool
    sens_spec_correlation: float
    verdict: str  # learnable | unlearnable | inconclusive
    thresholds: DiagnosticThresholds = field(default_factory=DiagnosticThresholds)


def detect_static_layers(tr: TrainTrace, th: DiagnosticThresholds = _DEFAULTS) -> dict[str, bool]:
    """Layer is static when every epoch's weight delta is negligible
    relative to the weight norm (``th.static_rel_tol``)."""
    if tr.n_epochs < 2 or not tr.layer_names:
        raise DataValidationError("static-layer detection needs at least 2 epochs and a layer")
    flags = {}
    for name in tr.layer_names:
        deltas = tr.series(name, "delta_l2")
        norms = tr.series(name, "weight_l2")
        flags[name] = bool(np.all(deltas <= th.static_rel_tol * (norms + 1e-12)))
    return flags


def detect_dead_gradients(tr: TrainTrace, th: DiagnosticThresholds = _DEFAULTS) -> dict[str, bool]:
    """Layer is dead when its gradient L2 is at most ``th.dead_abs_tol`` in at
    least a ``th.dead_epoch_quorum`` share of epochs."""
    if tr.n_epochs < 1:
        raise DataValidationError("dead-gradient detection needs at least 1 epoch")
    flags = {}
    for name in tr.layer_names:
        grads = tr.series(name, "grad_l2")
        flags[name] = bool(np.mean(grads <= th.dead_abs_tol) >= th.dead_epoch_quorum)
    return flags


def detect_class_flipping(sens, spec, th: DiagnosticThresholds = _DEFAULTS) -> tuple[bool, float]:
    """Flag sens/spec series correlated below ``th.flip_corr_thresh`` whose
    ranges both exceed ``th.flip_amp_thresh``.

    A stuck predictor (both series constant) is NOT flipping; its
    correlation is defined as 0 and the static-layer detector owns that case.
    """
    sens = np.asarray(sens, dtype=np.float64).ravel()
    spec = np.asarray(spec, dtype=np.float64).ravel()
    if sens.size != spec.size:
        raise DataValidationError("sensitivity and specificity series must align")
    if sens.size < 4:
        raise DataValidationError("flip detection needs series of length >= 4")
    corr = float(correlations([sens, spec])[0, 1])
    amp_ok = bool((sens.max() - sens.min() > th.flip_amp_thresh)
                  and (spec.max() - spec.min() > th.flip_amp_thresh))
    return bool(corr < th.flip_corr_thresh) and amp_ok, corr


def diagnose(tr: TrainTrace, thresholds: DiagnosticThresholds | None = None) -> DiagnosisReport:
    """Combine the three detectors into a verdict over one trace.

    Flip detection reads the validation metric series (identical to the train
    series when training ran without a held-out set).
    """
    th = thresholds or DiagnosticThresholds()
    static = detect_static_layers(tr, th)
    dead = detect_dead_gradients(tr, th)
    layers = [
        LayerDiagnosis(
            layer=name,
            static_weights=static[name],
            dead_gradient=dead[name],
            mean_delta_l2=float(tr.series(name, "delta_l2").mean()),
            mean_grad_l2=float(tr.series(name, "grad_l2").mean()),
        )
        for name in tr.layer_names
    ]
    sens = tr.metric_series("sensitivity")
    spec = tr.metric_series("specificity")
    if sens.size >= 4:
        flipping, corr = detect_class_flipping(sens, spec, th)
    else:
        flipping, corr = False, 0.0

    static_share = sum(static.values()) / len(static)
    if static_share >= th.static_layer_quorum or flipping:
        verdict = "unlearnable"
    elif static_share == 0 and not flipping:
        verdict = "learnable"
    else:
        verdict = "inconclusive"
    return DiagnosisReport(layers=layers, class_flipping=flipping,
                           sens_spec_correlation=corr, verdict=verdict,
                           thresholds=th)


def report_to_json(report: DiagnosisReport) -> dict:
    return {**asdict(report), "note": "detector thresholds are one formalization of qualitative "
            "training pathologies; tune via the diagnose config section"}


def save_report(report: DiagnosisReport, path) -> None:
    write_json(report_to_json(report), path)
