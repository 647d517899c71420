import dataclasses
import gc
import itertools
import weakref
from unittest import mock

import numpy as np
import pytest

from radlearn.errors import ConfigError, DataValidationError
from radlearn.nn import (
    NetConfig,
    Network,
    TrainConfig,
    checkpoint_from_network,
    gradient_check,
    train,
)
from radlearn.nn.checkpoint import apply_checkpoint
from radlearn.nn.train import _metric_record

from oracles import NetworkOracle, gradient_check_oracle


def test_same_seed_identical_weights():
    cfg = NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[4], seed=7)
    a, b = Network(cfg), Network(cfg)
    for name in a.layer_names:
        assert np.array_equal(a.params[name]["W"], b.params[name]["W"])
        assert np.array_equal(a.params[name]["b"], b.params[name]["b"])


def test_different_seed_different_weights():
    a = Network(NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[4], seed=7))
    b = Network(NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[4], seed=8))
    assert not np.array_equal(a.params["conv1"]["W"], b.params["conv1"]["W"])


def test_dense_only_network_structure():
    net = Network(NetConfig(input_dims=(4, 4), conv_blocks=[], hidden_dense=[], seed=0))
    assert net.layer_names == ["fc_out"]
    assert net.params["fc_out"]["W"].shape == (1, 16)


def test_he_init_statistics():
    # fan_in = 256 for the first dense layer on a 16x16 dense-only net
    cfg = NetConfig(input_dims=(16, 16), conv_blocks=[], hidden_dense=[64], seed=5)
    net = Network(cfg)
    w = net.params["fc1"]["W"]
    expected = np.sqrt(2.0 / 256)
    assert abs(w.std() - expected) / expected < 0.2


def test_too_many_pools_rejected():
    with pytest.raises(ConfigError):
        NetConfig(input_dims=(4, 4), conv_blocks=[2, 2, 2], hidden_dense=[])


def test_forward_shapes_and_input_validation():
    cfg = NetConfig(input_dims=(8, 8), conv_blocks=[3], hidden_dense=[5], seed=2)
    net = Network(cfg)
    logits = net.forward(np.zeros((6, 8, 8)))
    assert logits.shape == (6,)
    with pytest.raises(DataValidationError):
        net.forward(np.zeros((6, 9, 8)))


def test_images_shaped_like_columns_are_rejected():
    # (n, 9, h*w) is the shape of the first block's columns, but only the
    # Columns that columns() builds are read as such
    net = Network(NetConfig(input_dims=(16, 16), conv_blocks=[2], hidden_dense=[3]))
    x = np.zeros((4, 9, 256))
    for call in (net.forward, net.columns,
                 lambda v: net.loss_and_grads(v, np.zeros(4), "bce_logit")):
        with pytest.raises(DataValidationError, match=r"expected images of shape \(n, 16, 16\)"):
            call(x)


def test_gradient_check_bce_small_net():
    cfg = NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[8], seed=1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 8, 8))
    y = np.array([0, 1, 1, 0])
    assert gradient_check(cfg, x, y, loss="bce_logit", n_probe=250) <= 1e-4


def test_gradient_check_hinge_off_kink():
    cfg = NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[8], seed=3)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 8, 8))
    net = Network(cfg, dtype=np.float64)
    logits = net.forward(x)
    # choose labels keeping every sample active and away from the hinge kink
    y = (logits < 0.5).astype(float)
    margins = 1.0 - (2 * y - 1) * logits
    assert np.all(np.abs(margins) > 0.1)
    assert gradient_check(cfg, x, y, loss="hinge", n_probe=250) <= 1e-4


def test_gradient_check_rejects_big_network():
    cfg = NetConfig(input_dims=(32, 32), conv_blocks=[8], hidden_dense=[64], seed=0)
    with pytest.raises(DataValidationError):
        gradient_check(cfg, np.zeros((2, 32, 32)), np.array([0, 1]))


def test_zero_input_dense_net_input_layer_gradient_zero():
    cfg = NetConfig(input_dims=(4, 4), conv_blocks=[], hidden_dense=[6], seed=4)
    net = Network(cfg, dtype=np.float64)
    x = np.zeros((3, 4, 4))
    y = np.array([1, 0, 1])
    _, grads, _ = net.loss_and_grads(x, y, "bce_logit")
    assert np.all(grads["fc1"]["W"] == 0.0)  # dW = dz @ x with x = 0
    assert np.any(grads["fc_out"]["b"] != 0.0)  # loss gradient still flows


def _views_of_flat(net):
    return [np.shares_memory(net.params[name][p], net.flat)
            for name in net.layer_names for p in ("W", "b")]


def test_params_are_views_in_checkpoint_order():
    net = Network(NetConfig(input_dims=(9, 11), conv_blocks=[2, 3], hidden_dense=[4], seed=6))
    assert all(_views_of_flat(net))
    assert np.array_equal(net.flat, np.concatenate(
        [net.params[name][p].ravel() for name in net.layer_names for p in ("W", "b")]))
    assert net.n_params == net.flat.size


def test_grads_are_views_in_checkpoint_order():
    net = Network(NetConfig(input_dims=(9, 11), conv_blocks=[2, 3], hidden_dense=[4], seed=6))
    assert net.grad.dtype == net.flat.dtype and net.grad.shape == net.flat.shape
    assert all(np.shares_memory(net.grads[name][p], net.grad)
               for name in net.layer_names for p in ("W", "b"))
    net.grad[...] = np.arange(net.grad.size)
    assert np.array_equal(net.grad, np.concatenate(
        [net.grads[name][p].ravel() for name in net.layer_names for p in ("W", "b")]))
    for name in net.layer_names:
        for p in ("W", "b"):
            assert net.grads[name][p].shape == net.params[name][p].shape


def test_backward_overwrites_every_gradient():
    cfg = NetConfig(input_dims=(9, 11), conv_blocks=[2, 3], hidden_dense=[4], seed=6)
    rng = np.random.default_rng(2)
    xa, xb = rng.normal(size=(2, 5, 9, 11))
    ya, yb = np.array([1, 0, 1, 1, 0]), np.array([0, 1, 0, 0, 1])
    net = Network(cfg)
    net.loss_and_grads(xa, ya, "bce_logit")
    net.loss_and_grads(xb, yb, "bce_logit")
    fresh = Network(cfg)
    fresh.loss_and_grads(xb, yb, "bce_logit")
    assert net.grad.tobytes() == fresh.grad.tobytes()


def test_apply_checkpoint_writes_into_the_flat_buffer():
    cfg = NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[4], seed=1)
    ckpt = checkpoint_from_network(Network(dataclasses.replace(cfg, seed=2)))
    net = Network(cfg)
    flat = net.flat
    apply_checkpoint(net, ckpt)
    assert net.flat is flat and all(_views_of_flat(net))
    for name in net.layer_names:
        for p in ("W", "b"):
            assert np.array_equal(net.params[name][p], ckpt.layers[name][p])


def test_train_from_checkpoint_keeps_params_as_views():
    cfg = NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[4], seed=1)
    rng = np.random.default_rng(3)
    images, labels = rng.normal(size=(6, 8, 8)), np.array([0, 1] * 3)
    init = checkpoint_from_network(Network(dataclasses.replace(cfg, seed=2)))
    net, _ = train(images, labels, cfg,
                   TrainConfig(learning_rate=1e-2, epochs=2, freeze_layers=["fc1"]),
                   init=init)
    assert all(_views_of_flat(net))
    assert np.array_equal(net.params["fc1"]["W"], init.layers["fc1"]["W"])
    assert not np.array_equal(net.params["conv1"]["W"], init.layers["conv1"]["W"])


@pytest.mark.parametrize("n_probe", [50, 10_000])
def test_gradient_check_equals_per_slot_oracle(n_probe):
    cfg = NetConfig(input_dims=(7, 9), conv_blocks=[2], hidden_dense=[3], seed=4)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 7, 9))
    y = np.array([1, 0, 1])
    assert gradient_check(cfg, x, y, n_probe=n_probe, probe_seed=5) == \
        gradient_check_oracle(cfg, x, y, n_probe=n_probe, probe_seed=5)


def _pass_through_net(dims):
    """A one-block net, and its oracle twin, whose conv passes each pixel
    through, so relu leaves x > 0 as x, x < 0 as -0.0 and x == 0 as 0.0."""
    cfg = NetConfig(input_dims=dims, conv_blocks=[1], hidden_dense=[3], seed=4)
    net, oracle = Network(cfg), NetworkOracle(cfg)
    net.params["conv1"]["W"][...] = 0.0
    net.params["conv1"]["W"][0, 0, 1, 1] = 1.0
    for name in net.layer_names:
        for p in ("W", "b"):
            oracle.params[name][p] = net.params[name][p].copy()
    return net, oracle


def _every_window(values):
    """A square image whose 2x2 windows hold every arrangement of values."""
    cells = np.array(list(itertools.product(values, repeat=4)))
    side = int(round(np.sqrt(len(cells))))
    return cells.reshape(side, side, 2, 2).transpose(0, 2, 1, 3).reshape(2 * side, 2 * side)


def _assert_pool_is_argmax(net, oracle, x):
    """Pooled values and the cells gradients route to, bit for bit, against
    the oracle's argmax over each window."""
    _, (conv_tape, dense_tape) = net._forward(net._prepare_input(x), train=True)
    _, caches = oracle._forward(np.asarray(x, dtype=np.float32)[:, None])
    assert dense_tape[0][0].tobytes() == caches[2]["x"].tobytes()  # fc1's input
    amax = caches[0]["amax"]  # (n, 1, h//2, w//2) cell index in each window
    n, _, qh, qw = amax.shape
    h, w = x.shape[1:]
    wy, wx = np.meshgrid(np.arange(qh), np.arange(qw), indexing="ij")
    routed = np.arange(n)[:, None, None, None] * (h * w) + \
        (2 * wy + amax // 2) * w + 2 * wx + amax % 2
    assert np.array_equal(conv_tape[0][-1].reshape(routed.shape), routed)


def test_pool_first_maximum_as_argmax_on_every_window():
    # 256 windows of -0.0, 0.0, 1 and 2: all equal (relu zeros included),
    # 0.0 against -0.0 either way round, and a maximum repeated at any cells
    image = _every_window([-1.0, 0.0, 1.0, 2.0])
    x = np.stack([image, image[::-1, ::-1], -image])
    net, oracle = _pass_through_net(image.shape)
    _assert_pool_is_argmax(net, oracle, x)
    y = np.array([1, 0, 1])
    _, grads, logits = net.loss_and_grads(x, y, "bce_logit")
    _, oracle_grads, oracle_logits = oracle.loss_and_grads(x, y, "bce_logit")
    assert logits.tobytes() == oracle_logits.tobytes()
    for name in net.layer_names:
        for p in ("W", "b"):
            assert grads[name][p].tobytes() == oracle_grads[name][p].tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pool_first_nan_wins_as_argmax():
    image = _every_window([0.0, 1.0, np.nan])
    net, oracle = _pass_through_net(image.shape)
    _assert_pool_is_argmax(net, oracle, np.stack([image, image.T]))


def test_pool_odd_dims_two_blocks_match_oracle():
    cfg = NetConfig(input_dims=(9, 11), conv_blocks=[2, 3], hidden_dense=[4], seed=6)
    net, oracle = Network(cfg), NetworkOracle(cfg)
    rng = np.random.default_rng(5)
    x = rng.integers(-1, 2, size=(5, 9, 11)).astype(float)  # ties and relu zeros
    y = np.array([0, 1, 1, 0, 1])
    for loss in ("bce_logit", "hinge"):
        _, grads, logits = net.loss_and_grads(x, y, loss)
        _, oracle_grads, oracle_logits = oracle.loss_and_grads(x, y, loss)
        assert logits.tobytes() == oracle_logits.tobytes()
        for name in net.layer_names:
            for p in ("W", "b"):
                assert grads[name][p].tobytes() == oracle_grads[name][p].tobytes()


@pytest.mark.parametrize("loss", ["bce_logit", "hinge"])
@pytest.mark.parametrize("conv_blocks, hidden_dense", [([2], []), ([], [3, 2])])
def test_dense_stack_ends_match_oracle(conv_blocks, hidden_dense, loss):
    # fc_out straight after a conv block, and two hidden layers after the images
    cfg = NetConfig(input_dims=(6, 8), conv_blocks=conv_blocks, hidden_dense=hidden_dense,
                    seed=3)
    net, oracle = Network(cfg), NetworkOracle(cfg)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 6, 8))
    y = np.array([0, 1, 1, 0, 1])
    _, grads, logits = net.loss_and_grads(x, y, loss)
    _, oracle_grads, oracle_logits = oracle.loss_and_grads(x, y, loss)
    assert logits.tobytes() == oracle_logits.tobytes()
    assert net.forward(x).tobytes() == logits.tobytes()
    for name in net.layer_names:
        for p in ("W", "b"):
            assert grads[name][p].tobytes() == oracle_grads[name][p].tobytes()


@pytest.mark.parametrize("n", [1, 3, 100])
def test_forward_equals_training_logits(n):
    rng = np.random.default_rng(n)
    net, _ = _pass_through_net((32, 32))
    x = rng.choice([-1.0, 0.0, 1.0, 2.0], size=(n, 32, 32))
    y = rng.integers(0, 2, n)
    assert net.forward(x).tobytes() == net.loss_and_grads(x, y, "bce_logit")[2].tobytes()
    two = Network(NetConfig(input_dims=(9, 11), conv_blocks=[2, 3], hidden_dense=[4], seed=6))
    x = rng.normal(size=(n, 9, 11))
    assert two.forward(x).tobytes() == two.loss_and_grads(x, y, "hinge")[2].tobytes()


def test_kept_workspaces_match_a_fresh_network():
    # forwards of the same and of changing sizes around a training step of
    # another size, each against a network that has never run a pass: a stale
    # padded border or a buffer of the wrong shape would show in the logits
    cfg = NetConfig(input_dims=(9, 11), conv_blocks=[2, 3], hidden_dense=[4], seed=6)
    net = Network(cfg)
    rng = np.random.default_rng(8)
    five, three, seven = (rng.normal(size=(n, 9, 11)) for n in (5, 3, 7))

    def fresh_logits(x):
        other = Network(cfg)
        other.flat[...] = net.flat
        return other.forward(x).tobytes()

    first = net.forward(five).tobytes()
    assert first == fresh_logits(five)
    net.loss_and_grads(three, np.array([0, 1, 1]), "bce_logit")
    net.flat -= 0.1 * net.grad
    for x in (five, seven, five):
        assert net.forward(x).tobytes() == fresh_logits(x)
    assert net.forward(five).tobytes() != first  # the step moved the weights

    # first-block columns a caller built once, whole or gathered by a batch
    # index as train does, give the bytes of columns built per call
    for n in (1, 3, 4, 100):
        x = rng.normal(size=(n, 9, 11))
        y = rng.integers(0, 2, n)
        cols = net.columns(x)
        assert cols.array.shape == (n, 9, 99) and cols.array.flags.c_contiguous
        assert net.forward(cols).tobytes() == net.forward(x).tobytes() == fresh_logits(x)
        batch = rng.permutation(n)[:4]
        _, _, logits = net.loss_and_grads(x[batch], y[batch], "bce_logit")
        per_call = logits.tobytes(), net.grad.tobytes()
        _, _, logits = net.loss_and_grads(cols[batch], y[batch], "bce_logit")
        assert (logits.tobytes(), net.grad.tobytes()) == per_call


def test_trained_network_holds_no_workspace():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 8, 8))
    y = np.array([0, 1, 0, 1, 0, 1])
    net, _ = train(x, y, NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[3]),
                   TrainConfig(epochs=2, batch_size=4))
    assert net._workspaces == {}

    # nor do the columns train builds for its training and validation sets
    built, columns = [], Network.columns

    def recorded(self, images):
        cols = columns(self, images)
        built.append(weakref.ref(cols.array))
        return cols

    with mock.patch.object(Network, "columns", recorded):
        net, _ = train(x, y, NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[3]),
                       TrainConfig(epochs=2, batch_size=4), val_images=x[:3], val_labels=y[:3])
    gc.collect()
    assert built and all(ref() is None for ref in built)
    assert net._workspaces == {}


def test_validation_rows_match_per_call_forwards():
    # each epoch's rows, from columns built once per training, against a
    # forward of the network trained that far, with columns built per call
    rng = np.random.default_rng(4)
    x, val_x = rng.normal(size=(7, 9, 11)), rng.normal(size=(5, 9, 11))
    y, val_y = np.array([0, 1, 0, 1, 1, 0, 1]), np.array([1, 0, 0, 1, 1])
    cfg = NetConfig(input_dims=(9, 11), conv_blocks=[2, 3], hidden_dense=[4], seed=6)

    def trained(epochs):
        return train(x, y, cfg, TrainConfig(learning_rate=1e-2, batch_size=3, epochs=epochs,
                                            seed=2), val_images=val_x, val_labels=val_y)

    _, trace = trained(3)
    for epoch, record in enumerate(trace.epochs):
        net, _ = trained(epoch + 1)
        assert record.validation == _metric_record(net, val_x, val_y, "bce_logit")
        assert record.train == _metric_record(net, x, y, "bce_logit")
    assert trace.epochs[0].validation != trace.epochs[-1].validation
