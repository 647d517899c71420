import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pearson_oracle

from radlearn.diagnostics import (
    DiagnosticThresholds,
    detect_class_flipping,
    detect_dead_gradients,
    detect_static_layers,
    diagnose,
    report_to_json,
)
from radlearn.errors import DataValidationError
from radlearn.histogram import histogram
from radlearn.metrics import correlations
from radlearn.nn import NetConfig, TrainConfig, train
from radlearn.nn.trace import (
    EpochRecord,
    HistogramRecord,
    LayerEpochRecord,
    MetricRecord,
    TrainTrace,
)
from radlearn.volume import PhantomSpec, generate_phantom, roi_slice_index


def _phantom_images(n_per_class=20, seed=5):
    spec = PhantomSpec(n_samples_per_class=n_per_class, dims=(16, 16, 16),
                       texture_amplitude=2.0, noise_sigma=0.1, seed=seed)
    samples = generate_phantom(spec)
    images = np.stack([v.as_zyx()[roi_slice_index(m)] for v, m, _ in samples])
    labels = np.array([lab for _, _, lab in samples])
    return images, labels


NET = NetConfig(input_dims=(16, 16), conv_blocks=[4], hidden_dense=[16], seed=3)


def _synthetic_trace(layer_stats, sens=None, spec=None):
    """Build a trace from {layer: [(weight_l2, grad_l2, delta_l2), ...]}."""
    names = list(layer_stats)
    n_epochs = len(next(iter(layer_stats.values())))
    sens = sens if sens is not None else [0.8] * n_epochs
    spec = spec if spec is not None else [0.8] * n_epochs
    hist = HistogramRecord(counts=[0] * 32, lo=0.0, hi=1.0)
    epochs = []
    for e in range(n_epochs):
        layers = {
            name: LayerEpochRecord(
                weight_l2=layer_stats[name][e][0],
                grad_l2=layer_stats[name][e][1],
                delta_l2=layer_stats[name][e][2],
                weight_hist=hist, grad_hist=hist)
            for name in names
        }
        m = MetricRecord(loss=0.5, accuracy=0.7, sensitivity=sens[e], specificity=spec[e])
        epochs.append(EpochRecord(layers=layers, train=m,
                                  validation=MetricRecord(**vars(m))))
    return TrainTrace(layer_names=names, epochs=epochs)


# --- histogram ---


def test_histogram_basic_binning():
    assert histogram([0.0, 0.5, 1.0], 2)[0].tolist() == [1, 2]


def test_histogram_constant_all_first_bin():
    counts = histogram([3.0] * 7, 32)[0]
    assert counts[0] == 7
    assert counts[1:].sum() == 0


def test_histogram_uniform_grid():
    counts = histogram(np.linspace(0, 1, 64), 32)[0]
    assert counts.tolist() == [2] * 32


def test_histogram_empty_rejected():
    with pytest.raises(DataValidationError):
        histogram([], 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_histogram_rejects_non_finite_values(bad):
    with pytest.raises(DataValidationError, match="non-finite"):
        histogram([0.0, bad, 1.0], 4)


@st.composite
def _histogram_inputs(draw):
    """(values, n_bins): float32-derived values, values on or an ulp off the
    bins' own linspace edges, spans of a few float64 or float32 ulps, or constants,
    as given or negated, at sizes around numpy's 65,536-value block."""
    n_bins = draw(st.sampled_from([1, 2, 7, 32]))
    size = draw(st.sampled_from([1, 2, 3, 17, 4112, 65535, 65536, 65537, 140000]))
    lo = draw(st.floats(-1e6, 1e6, width=32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["float32", "edges", "ulps", "ulps32", "constant"]))
    if kind == "float32":
        width = draw(st.floats(2.0**-10, 2.0**20, width=32))
        values = (lo + width * rng.random(size)).astype(np.float32).astype(np.float64)
    elif kind == "edges":
        hi = lo + draw(st.floats(1e-6, 1e6))
        values = rng.choice(np.linspace(lo, hi, n_bins + 1), size)
        # on an edge or an ulp either side, where the truncated index can miss
        values = np.clip(np.nextafter(values, values + rng.integers(-1, 2, size)), lo, hi)
        values[0], values[-1] = lo, hi  # so the edges are the histogram's own
    elif kind == "ulps":
        steps = rng.integers(0, draw(st.integers(1, 80)), size, endpoint=True)
        values = (np.float64(lo).view(np.int64) + steps).view(np.float64)
    elif kind == "ulps32":
        steps = rng.integers(0, draw(st.integers(1, 8)), size, endpoint=True)
        values = (np.float32(lo).view(np.int32) + steps.astype(np.int32)).view(
            np.float32).astype(np.float64)
    else:
        values = np.full(size, lo)
    return (-values if draw(st.booleans()) else values), n_bins


@settings(max_examples=150, deadline=None)
@given(_histogram_inputs())
# an ulp below edge 6, -1.21875, whose truncated index is 6 all the same
@example((np.array([-6.0, np.nextafter(-1.21875, -np.inf), 19.5]), 32))
def test_histogram_counts_are_numpys(case):
    values, n_bins = case
    counts, lo, hi = histogram(values, n_bins)
    assert (lo, hi) == (values.min(), values.max())
    assert counts.dtype == np.int64 and counts.sum() == values.size
    if lo == hi:
        assert counts[0] == values.size
        return
    try:
        expected = np.histogram(values, n_bins, range=(lo, hi))[0]
    except ValueError:  # too narrow for n_bins distinct edges: numpy refuses it
        return
    assert counts.tolist() == expected.tolist()


# --- static / dead detectors ---


def test_static_layers_zero_lr_run():
    images, labels = _phantom_images(6)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=0.0, batch_size=4, epochs=3, seed=1))
    flags = detect_static_layers(tr)
    assert all(flags.values())


def test_healthy_run_few_static_layers():
    images, labels = _phantom_images(20)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=1e-3, batch_size=4, epochs=8, seed=2))
    flags = detect_static_layers(tr)
    assert sum(flags.values()) / len(flags) < 0.2


def test_frozen_layers_are_exactly_the_static_ones():
    images, labels = _phantom_images(10)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=1e-3, batch_size=4, epochs=4,
                              freeze_layers=["conv1"], seed=3))
    flags = detect_static_layers(tr)
    assert flags == {"conv1": True, "fc1": False, "fc_out": False}


def test_static_detection_needs_two_epochs():
    tr = _synthetic_trace({"l1": [(1.0, 1.0, 0.0)]})
    with pytest.raises(DataValidationError):
        detect_static_layers(tr)


def test_static_detector_scale_invariant():
    stats = [(10.0, 1.0, 10.0 * 5e-5), (10.0, 1.0, 10.0 * 5e-5)]
    tr1 = _synthetic_trace({"l1": stats})
    scaled = [(w * 1000, g, d * 1000) for w, g, d in stats]
    tr2 = _synthetic_trace({"l1": scaled})
    assert detect_static_layers(tr1) == detect_static_layers(tr2) == {"l1": True}


def test_dead_gradient_detection():
    dead = [(1.0, 0.0, 0.1)] * 10
    alive = [(1.0, 0.5, 0.1)] * 10
    tr = _synthetic_trace({"dead": dead, "alive": alive})
    flags = detect_dead_gradients(tr)
    assert flags == {"dead": True, "alive": False}


def test_dead_gradient_quorum():
    # gradient vanishes in 9 of 10 epochs -> dead at the 90% quorum
    stats = [(1.0, 0.0, 0.1)] * 9 + [(1.0, 0.5, 0.1)]
    tr = _synthetic_trace({"l1": stats})
    assert detect_dead_gradients(tr) == {"l1": True}
    # 8 of 10 is below quorum
    stats = [(1.0, 0.0, 0.1)] * 8 + [(1.0, 0.5, 0.1)] * 2
    tr = _synthetic_trace({"l1": stats})
    assert detect_dead_gradients(tr) == {"l1": False}


def test_healthy_run_no_dead_layers():
    images, labels = _phantom_images(10)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=1e-3, batch_size=4, epochs=5, seed=5))
    assert not any(detect_dead_gradients(tr).values())


def test_detached_layers_are_dead():
    # zero the frozen output weights: nothing upstream receives gradient
    from radlearn.nn import Network, checkpoint_from_network

    images, labels = _phantom_images(6)
    net = Network(NET)
    net.params["fc_out"]["W"][:] = 0.0
    net.params["fc_out"]["b"][:] = 0.0
    ckpt = checkpoint_from_network(net)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=1e-3, batch_size=4, epochs=4,
                              freeze_layers=["fc_out"], seed=7),
                  init=ckpt)
    flags = detect_dead_gradients(tr)
    assert flags["conv1"] and flags["fc1"]
    assert not flags["fc_out"]  # its own gradient is nonzero, just never applied


def test_single_epoch_nonzero_grads_not_dead():
    tr = _synthetic_trace({"l1": [(1.0, 0.5, 0.1)]})
    assert detect_dead_gradients(tr) == {"l1": False}


# --- class flipping ---


def test_flipping_alternating_series():
    sens = [0.9, 0.1, 0.9, 0.1]
    spec = [0.1, 0.9, 0.1, 0.9]
    flag, corr = detect_class_flipping(sens, spec)
    assert flag
    assert corr == pytest.approx(-1.0)
    assert corr == pytest.approx(pearson_oracle(sens, spec))


def test_no_flip_when_amplitude_small():
    series = [0.7, 0.72, 0.71, 0.73]
    flag, _ = detect_class_flipping(series, series)
    assert not flag


def test_stuck_predictor_is_not_flipping():
    flag, corr = detect_class_flipping([1.0] * 6, [0.0] * 6)
    assert not flag
    assert corr == 0.0


def test_flip_detection_length_requirements():
    with pytest.raises(DataValidationError):
        detect_class_flipping([0.5] * 3, [0.5] * 3)
    with pytest.raises(DataValidationError):
        detect_class_flipping([0.5] * 4, [0.5] * 5)


def test_pearson_matches_oracle():
    rng = np.random.default_rng(8)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    assert correlations([a, b])[0, 1] == pytest.approx(pearson_oracle(a.tolist(), b.tolist()),
                                                       abs=1e-12)


# --- verdicts ---


def test_verdict_unlearnable_zero_lr():
    images, labels = _phantom_images(6)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=0.0, batch_size=4, epochs=4, seed=1))
    report = diagnose(tr)
    assert report.verdict == "unlearnable"
    assert all(l.static_weights for l in report.layers)


def test_verdict_learnable_healthy_run():
    images, labels = _phantom_images(20)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=1e-3, batch_size=4, epochs=8, seed=2))
    report = diagnose(tr)
    assert report.verdict == "learnable"
    assert not report.class_flipping


def test_verdict_unlearnable_via_injected_flipping():
    healthy = [(1.0, 0.5, 0.1)] * 6
    sens = [0.9, 0.1, 0.9, 0.1, 0.9, 0.1]
    spec = [0.1, 0.9, 0.1, 0.9, 0.1, 0.9]
    tr = _synthetic_trace({"l1": healthy, "l2": healthy}, sens=sens, spec=spec)
    report = diagnose(tr)
    assert report.verdict == "unlearnable"
    assert report.class_flipping
    assert report.sens_spec_correlation <= -0.9


def test_verdict_inconclusive_partial_static():
    static = [(1.0, 0.5, 0.0)] * 6
    moving = [(1.0, 0.5, 0.1)] * 6
    tr = _synthetic_trace({"a": static, "b": moving, "c": moving})
    report = diagnose(tr)
    assert report.verdict == "inconclusive"


def test_verdict_rule_half_static_is_unlearnable():
    static = [(1.0, 0.5, 0.0)] * 6
    moving = [(1.0, 0.5, 0.1)] * 6
    tr = _synthetic_trace({"a": static, "b": moving})
    assert diagnose(tr).verdict == "unlearnable"  # 50% quorum inclusive


def test_diagnose_is_pure():
    healthy = [(1.0, 0.5, 0.1)] * 6
    tr = _synthetic_trace({"l1": healthy})
    r1 = report_to_json(diagnose(tr))
    r2 = report_to_json(diagnose(tr))
    assert r1 == r2


def test_thresholds_are_knobs():
    barely_moving = [(1.0, 0.5, 5e-5)] * 4
    tr = _synthetic_trace({"l1": barely_moving})
    assert diagnose(tr).verdict == "unlearnable"  # default 1e-4 tolerance
    loose = DiagnosticThresholds(static_rel_tol=1e-6)
    assert diagnose(tr, loose).verdict == "learnable"
