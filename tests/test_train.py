import dataclasses
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radlearn.errors import DataValidationError, NumericFailure
from radlearn.nn import (
    NetConfig,
    Network,
    TrainConfig,
    checkpoint_from_network,
    load_checkpoint,
    save_checkpoint,
    train,
)
from radlearn.volume import PhantomSpec, generate_phantom, roi_slice_index

from oracles import NetworkOracle, train_oracle


def _phantom_images(n_per_class=20, seed=5, amplitude=2.0):
    spec = PhantomSpec(n_samples_per_class=n_per_class, dims=(16, 16, 16),
                       texture_amplitude=amplitude, noise_sigma=0.1, seed=seed)
    samples = generate_phantom(spec)
    images = np.stack([v.as_zyx()[roi_slice_index(m)] for v, m, _ in samples])
    labels = np.array([lab for _, _, lab in samples])
    return images, labels


NET = NetConfig(input_dims=(16, 16), conv_blocks=[4], hidden_dense=[16], seed=3)


def test_zero_learning_rate_freezes_everything():
    images, labels = _phantom_images(8)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=0.0, batch_size=4, epochs=3, seed=1))
    for name in tr.layer_names:
        assert np.all(tr.series(name, "delta_l2") == 0.0)
        assert np.all(tr.series(name, "grad_l2") > 0.0)  # gradients still recorded


def test_freeze_conv_bitwise_stable_head_moves():
    images, labels = _phantom_images(10)
    net, tr = train(images, labels, NET,
                    TrainConfig(learning_rate=1e-3, batch_size=4, epochs=4,
                                freeze_layers=["conv1"], seed=2))
    assert np.all(tr.series("conv1", "delta_l2") == 0.0)
    assert np.all(tr.series("fc1", "delta_l2") > 0.0)
    assert np.all(tr.series("fc_out", "delta_l2") > 0.0)
    # conv weights equal the seeded init bit for bit
    from radlearn.nn import Network
    init = Network(NET)
    assert np.array_equal(net.params["conv1"]["W"], init.params["conv1"]["W"])


def test_unknown_freeze_layer_rejected():
    images, labels = _phantom_images(4)
    with pytest.raises(DataValidationError, match="freeze"):
        train(images, labels, NET,
              TrainConfig(epochs=1, freeze_layers=["convX"], seed=0))


def test_separable_data_reaches_high_accuracy():
    images, labels = _phantom_images(20)
    _, tr = train(images, labels, NET,
                  TrainConfig(loss="bce_logit", optimizer="adam", learning_rate=1e-3,
                              batch_size=4, epochs=10, seed=4))
    assert tr.epochs[-1].train.accuracy >= 0.95


def test_loss_decreases_over_first_epochs():
    images, labels = _phantom_images(20, seed=9)
    _, tr = train(images, labels, NET,
                  TrainConfig(loss="bce_logit", optimizer="adam", learning_rate=1e-3,
                              batch_size=4, epochs=5, seed=5))
    losses = [e.train.loss for e in tr.epochs]
    assert losses[-1] < losses[0]


def test_full_determinism_of_trace():
    images, labels = _phantom_images(8, seed=11)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=3, seed=6)
    _, tr1 = train(images, labels, NET, cfg)
    _, tr2 = train(images, labels, NET, cfg)
    assert dataclasses.asdict(tr1) == dataclasses.asdict(tr2)
    _, tr3 = train(images, labels, NET,
                   TrainConfig(learning_rate=1e-3, batch_size=4, epochs=3, seed=7))
    assert dataclasses.asdict(tr1) != dataclasses.asdict(tr3)


def test_trace_covers_all_layers_and_epochs():
    images, labels = _phantom_images(6)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=1e-4, batch_size=4, epochs=4, seed=0))
    assert tr.n_epochs == 4
    for epoch in tr.epochs:
        assert set(epoch.layers) == set(tr.layer_names)
        for rec in epoch.layers.values():
            assert len(rec.weight_hist.counts) == 32
            assert len(rec.grad_hist.counts) == 32


def test_rmsprop_and_hinge_paths_run():
    images, labels = _phantom_images(8, seed=13)
    _, tr = train(images, labels, NET,
                  TrainConfig(loss="hinge", optimizer="rmsprop", learning_rate=1e-3,
                              batch_size=4, epochs=3, seed=3))
    assert tr.n_epochs == 3


def test_validation_series_from_held_out_set():
    images, labels = _phantom_images(12, seed=15)
    val_images, val_labels = _phantom_images(4, seed=16)
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=1e-3, batch_size=4, epochs=3, seed=8),
                  val_images=val_images, val_labels=val_labels)
    assert tr.n_epochs == 3
    # without a validation set the rows duplicate the training rows
    _, tr2 = train(images, labels, NET,
                   TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=8))
    for epoch in tr2.epochs:
        assert vars(epoch.validation) == vars(epoch.train)


def test_single_class_rejected():
    images, _ = _phantom_images(4)
    with pytest.raises(DataValidationError):
        train(images, np.zeros(len(images), dtype=int), NET, TrainConfig(epochs=1, seed=0))


def test_labels_other_than_0_and_1_rejected():
    images, labels = _phantom_images(4)
    labels = labels.astype(float)
    labels[2] = 0.7  # neither class
    with pytest.raises(DataValidationError, match="labels must each be 0 or 1"):
        train(images, labels, NET, TrainConfig(epochs=1, seed=0))


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e39])  # 1e39 overflows float32
def test_non_finite_images_rejected(value):
    images, labels = _phantom_images(4)
    images = images.astype(np.float64)
    images[1, 3, 3] = value
    with pytest.raises(DataValidationError, match="images must be finite"):
        train(images, labels, NET, TrainConfig(epochs=1, seed=0))


def test_bad_validation_set_rejected():
    images, labels = _phantom_images(4)
    with pytest.raises(DataValidationError, match="validation images aligned"):
        train(images, labels, NET, TrainConfig(epochs=1, seed=0),
              val_images=images, val_labels=labels[:-1])
    with pytest.raises(DataValidationError, match="validation labels"):
        train(images, labels, NET, TrainConfig(epochs=1, seed=0),
              val_images=images, val_labels=labels + 1)


def test_half_a_validation_set_rejected():
    images, labels = _phantom_images(4)
    for half in ({"val_images": images}, {"val_labels": labels}):
        with pytest.raises(DataValidationError, match="needs both val_images and val_labels"):
            train(images, labels, NET, TrainConfig(epochs=1, seed=0), **half)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_loss_aborts_with_location():
    images, labels = _phantom_images(6, seed=17)
    # absurd learning rate forces overflow to inf/nan within a few steps
    with pytest.raises(NumericFailure) as err:
        train(images * 1e30, labels, NET,
              TrainConfig(learning_rate=1e30, batch_size=4, epochs=5, seed=1))
    assert err.value.epoch is not None
    assert err.value.batch is not None


def test_checkpoint_round_trip_bit_exact(tmp_path):
    images, labels = _phantom_images(6, seed=19)
    net, _ = train(images, labels, NET,
                   TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=9))
    ckpt = checkpoint_from_network(net)
    save_checkpoint(ckpt, tmp_path / "model")
    loaded = load_checkpoint(tmp_path / "model")
    for name in ckpt.layer_order:
        for pname in ("W", "b"):
            assert np.array_equal(loaded.layers[name][pname], ckpt.layers[name][pname])


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    images, labels = _phantom_images(6, seed=19)
    net, _ = train(images, labels, NET,
                   TrainConfig(learning_rate=1e-3, batch_size=4, epochs=1, seed=9))
    save_checkpoint(checkpoint_from_network(net), tmp_path / "model")
    wider = NetConfig(input_dims=(16, 16), conv_blocks=[8], hidden_dense=[16], seed=3)
    with pytest.raises(DataValidationError, match="mismatch|match"):
        train(images, labels, wider, TrainConfig(epochs=1, seed=0),
              init=load_checkpoint(tmp_path / "model"))


def test_fine_tune_from_checkpoint_continues_weights(tmp_path):
    images, labels = _phantom_images(6, seed=21)
    net, _ = train(images, labels, NET,
                   TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=10))
    ckpt = checkpoint_from_network(net)
    save_checkpoint(ckpt, tmp_path / "warm")
    warm = load_checkpoint(tmp_path / "warm")
    # epoch-0 weight norms with lr=0 equal the checkpoint's norms
    _, tr = train(images, labels, NET,
                  TrainConfig(learning_rate=0.0, batch_size=4, epochs=2, seed=11),
                  init=warm)
    for name in tr.layer_names:
        stored = np.concatenate([warm.layers[name][p].ravel() for p in ("W", "b")])
        expected = float(np.sqrt(np.sum(stored.astype(np.float64) ** 2)))
        assert tr.epochs[0].layers[name].weight_l2 == pytest.approx(expected, rel=1e-7)


@st.composite
def _training_cases(draw):
    dims = draw(st.sampled_from([(9, 11), (15, 15), (8, 8), (12, 7)]))
    conv = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2))
    dense = draw(st.lists(st.integers(1, 5), min_size=0, max_size=2))
    net_cfg = NetConfig(input_dims=dims, conv_blocks=conv, hidden_dense=dense,
                        seed=draw(st.integers(0, 99)))
    freeze = draw(st.sampled_from([[], ["conv1", "fc_out"], ["fc_out"], ["fc1"]]))
    layers = [f"conv{i}" for i in range(1, len(conv) + 1)] + \
        [f"fc{i}" for i in range(1, len(dense) + 1)] + ["fc_out"]
    train_cfg = TrainConfig(
        loss=draw(st.sampled_from(["bce_logit", "hinge"])),
        optimizer=draw(st.sampled_from(["adam", "rmsprop"])),
        learning_rate=draw(st.sampled_from([0.0, 1e-3, 1e-2])),
        batch_size=draw(st.integers(1, 4)), epochs=draw(st.integers(1, 3)),
        freeze_layers=[name for name in freeze if name in layers],
        seed=draw(st.integers(0, 99)))
    n = draw(st.integers(4, 9))
    return (net_cfg, train_cfg, n, draw(st.integers(0, 2 ** 31)),
            draw(st.booleans()), draw(st.booleans()))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_training_cases())
def test_flat_trainer_matches_per_parameter_oracle(case):
    net_cfg, train_cfg, n, data_seed, with_init, with_val = case
    rng = np.random.default_rng(data_seed)
    images = rng.normal(size=(n,) + net_cfg.input_dims)
    labels = rng.permutation(np.arange(n) % 2)
    init = None
    if with_init:
        init = checkpoint_from_network(
            NetworkOracle(dataclasses.replace(net_cfg, seed=net_cfg.seed + 1)))
    val = {}
    if with_val:
        val = {"val_images": rng.normal(size=(5,) + net_cfg.input_dims),
               "val_labels": np.array([0, 1, 1, 0, 1])}

    net, tr = train(images, labels, net_cfg, train_cfg, init=init, **val)
    oracle, tr_oracle = train_oracle(images, labels, net_cfg, train_cfg, init=init, **val)

    assert json.dumps(dataclasses.asdict(tr)) == json.dumps(dataclasses.asdict(tr_oracle))
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(checkpoint_from_network(net), os.path.join(tmp, "new"))
        save_checkpoint(checkpoint_from_network(oracle), os.path.join(tmp, "old"))
        for ext in (".ckpt.json", ".ckpt.raw"):
            with open(os.path.join(tmp, "new" + ext), "rb") as fh:
                new = fh.read()
            with open(os.path.join(tmp, "old" + ext), "rb") as fh:
                old = fh.read()
            assert new == old


@pytest.mark.parametrize("header", [
    b"{not json", b"\xff", b"[]",
    b'{"dtype": "f32le"}',
    b'{"dtype": "f32le", "layers": 5}',
    b'{"dtype": "f32le", "layers": [{"name": "fc", "params": [{"name": "W", "shape": "ab"}]}]}',
    b'{"dtype": "f32le", "layers": [{"name": "fc", "params": [{"name": "W", "shape": [-1]}]}]}',
])
def test_malformed_checkpoint_header_rejected(tmp_path, header):
    (tmp_path / "m.ckpt.json").write_bytes(header)
    (tmp_path / "m.ckpt.raw").write_bytes(b"")
    with pytest.raises(DataValidationError, match="malformed"):
        load_checkpoint(tmp_path / "m")


def test_long_checkpoint_blob_rejected_before_it_is_read(tmp_path):
    header = {"dtype": "f32le",
              "layers": [{"name": "fc", "params": [{"name": "W", "shape": [3]}]}]}
    (tmp_path / "m.ckpt.json").write_text(json.dumps(header))
    with open(tmp_path / "m.ckpt.raw", "wb") as fh:
        fh.truncate(64 << 20)  # 64 MiB, sparse
    tracemalloc.start()
    try:
        with pytest.raises(DataValidationError) as err:
            load_checkpoint(tmp_path / "m")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "checkpoint blob longer than header describes"
    assert peak < 1 << 20, f"load_checkpoint peaked at {peak} B"


def test_loaded_checkpoint_parameters_share_one_array(tmp_path):
    ckpt = checkpoint_from_network(Network(NET))
    save_checkpoint(ckpt, tmp_path / "model")
    loaded = load_checkpoint(tmp_path / "model")
    arrays = [loaded.layers[name][p] for name in loaded.layer_order for p in ("W", "b")]
    assert arrays[0].base is not None
    assert all(arr.base is arrays[0].base for arr in arrays)
    assert all(arr.dtype == np.dtype("<f4") for arr in arrays)


@pytest.mark.parametrize("twice, doubled", [("fc_out", "layer"), ("fc_out.W", "param")])
def test_checkpoint_header_listing_a_name_twice_rejected(tmp_path, twice, doubled):
    # one layer, so the doubled entry has the same shapes and the padded blob the right length
    net = Network(NetConfig(input_dims=(4, 4), conv_blocks=[], hidden_dense=[], seed=3))
    save_checkpoint(checkpoint_from_network(net), tmp_path / "m")
    header = json.loads((tmp_path / "m.ckpt.json").read_text())
    (layer,) = header["layers"]
    if doubled == "layer":
        header["layers"].append(layer)
        pad = sum(np.prod(p["shape"]) for p in layer["params"])
    else:
        layer["params"].append(layer["params"][0])
        pad = np.prod(layer["params"][0]["shape"])
    (tmp_path / "m.ckpt.json").write_text(json.dumps(header))
    with open(tmp_path / "m.ckpt.raw", "ab") as fh:
        fh.write(np.zeros(pad, dtype="<f4").tobytes())
    with pytest.raises(DataValidationError) as err:
        load_checkpoint(tmp_path / "m")
    assert str(err.value) == f"malformed checkpoint header: {twice} is listed twice"
