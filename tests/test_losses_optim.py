import math

import numpy as np
import pytest

from oracles import AdamOracle, RmsPropOracle

from radlearn.nn import (
    AdamOptimizer,
    RmsPropOptimizer,
    loss_bce_logit,
    loss_hinge,
)


def test_bce_at_zero_logit():
    loss, grad = loss_bce_logit(np.array([0.0]), np.array([1.0]))
    assert loss[0] == pytest.approx(math.log(2), abs=1e-12)
    assert grad[0] == pytest.approx(-0.5, abs=1e-12)


def test_bce_large_logit_no_overflow():
    loss, grad = loss_bce_logit(np.array([40.0]), np.array([1.0]))
    assert loss[0] == pytest.approx(0.0, abs=1e-15)
    assert np.isfinite(loss[0]) and np.isfinite(grad[0])
    loss_neg, _ = loss_bce_logit(np.array([-40.0]), np.array([0.0]))
    assert np.isfinite(loss_neg[0])


def test_bce_hand_value():
    loss, grad = loss_bce_logit(np.array([2.0]), np.array([0.0]))
    assert loss[0] == pytest.approx(math.log(1 + math.e ** 2), abs=1e-12)
    assert grad[0] == pytest.approx(1 / (1 + math.exp(-2)), abs=1e-12)


def test_bce_gradient_matches_finite_difference():
    rng = np.random.default_rng(4)
    for z in rng.normal(0, 3, 20):
        for y in (0.0, 1.0):
            h = 1e-6
            lp, _ = loss_bce_logit(np.array([z + h]), np.array([y]))
            lm, _ = loss_bce_logit(np.array([z - h]), np.array([y]))
            _, g = loss_bce_logit(np.array([z]), np.array([y]))
            assert g[0] == pytest.approx((lp[0] - lm[0]) / (2 * h), abs=1e-6)


def test_hinge_values_and_subgradient():
    loss, grad = loss_hinge(np.array([2.0]), np.array([1.0]))
    assert loss[0] == 0.0 and grad[0] == 0.0
    loss, grad = loss_hinge(np.array([0.0]), np.array([1.0]))
    assert loss[0] == 1.0 and grad[0] == -1.0
    loss, grad = loss_hinge(np.array([-0.5]), np.array([0.0]))
    assert loss[0] == 0.5 and grad[0] == 1.0
    # subgradient 0 at the kink itself
    loss, grad = loss_hinge(np.array([1.0]), np.array([1.0]))
    assert loss[0] == 0.0 and grad[0] == 0.0


def _adam_step(theta, grad, lr):
    """(theta', m', v') after one step of a fresh AdamOptimizer."""
    opt = AdamOptimizer(lr)
    theta = opt.update(np.array(theta, dtype=np.float64), np.asarray(grad, dtype=np.float64))
    return theta, opt._state[0], opt._state[1]


def _rmsprop_step(theta, grad, lr):
    """(theta', v') after one step of a fresh RmsPropOptimizer."""
    opt = RmsPropOptimizer(lr)
    theta = opt.update(np.array(theta, dtype=np.float64), np.asarray(grad, dtype=np.float64))
    return theta, opt._state[0]


def test_adam_hand_step():
    theta1, m1, v1 = _adam_step([0.0], [0.5], lr=1e-3)
    assert theta1[0] == pytest.approx(-9.99999980e-4, rel=1e-8)
    assert m1[0] == pytest.approx(0.05)
    assert v1[0] == pytest.approx(0.00025)


def test_adam_zero_gradient_no_move():
    theta1, _, _ = _adam_step([1.5], np.zeros(1), lr=0.1)
    assert theta1[0] == 1.5


def test_adam_identical_tensors_identical_updates():
    theta1, _, _ = _adam_step([0.3, 0.3], [0.2, 0.2], lr=0.01)
    assert theta1[0] == theta1[1]


def test_rmsprop_hand_step():
    theta1, v1 = _rmsprop_step([0.0], [1.0], lr=0.01)
    assert v1[0] == pytest.approx(0.1)
    assert theta1[0] == pytest.approx(-0.0316227766, rel=1e-6)


def test_rmsprop_zero_gradient_no_move():
    theta1, _ = _rmsprop_step([2.0], np.zeros(1), lr=0.01)
    assert theta1[0] == 2.0


def test_rmsprop_sign_flip_symmetric():
    up, _ = _rmsprop_step(np.zeros(1), [0.7], lr=0.05)
    down, _ = _rmsprop_step(np.zeros(1), [-0.7], lr=0.05)
    assert up[0] == pytest.approx(-down[0], abs=1e-15)


@pytest.mark.parametrize("lr", [0.0, 1e-3, 0.1])
def test_optimizer_classes_chain_the_pure_steps(lr):
    rng = np.random.default_rng(9)
    theta0 = rng.normal(size=37).astype(np.float32)
    grads = rng.normal(size=(50, 37)).astype(np.float32)
    grads[::7, :5] = 0.0
    adam, rms = AdamOptimizer(lr), RmsPropOptimizer(lr)
    adam_oracle, rms_oracle = AdamOracle(lr), RmsPropOracle(lr)
    in_adam, in_rms = theta0.copy(), theta0.copy()
    theta, theta_r = theta0, theta0
    for g in grads:
        adam.update(in_adam, g)
        rms.update(in_rms, g)
        theta = adam_oracle.update("p", theta, g)
        theta_r = rms_oracle.update("p", theta_r, g)
        assert in_adam.tobytes() == theta.tobytes()
        assert in_rms.tobytes() == theta_r.tobytes()


@pytest.mark.parametrize("lr", [-1e-3, float("nan"), float("inf"), 1e39])
def test_train_config_rejects_learning_rates_float32_cannot_hold(lr):
    from radlearn.errors import ConfigError
    from radlearn.nn import TrainConfig

    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=lr)
    assert TrainConfig(learning_rate=3.4e38).learning_rate == 3.4e38


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lr", [0.0, 1e-3, 3.4e38])
def test_optimizers_equal_their_oracles_over_long_runs(dtype, lr):
    # 1,200 steps: Adam's bias corrections 1 - beta ** t pass through every
    # float32 rounding of their range, and lr 3.4e38 overflows float32 steps
    rng = np.random.default_rng(4)
    theta0 = rng.normal(size=23).astype(dtype)
    grads = (rng.normal(size=(1200, 23)) * 10.0 ** rng.integers(-6, 3, size=(1200, 1)))
    grads = grads.astype(dtype)
    grads[::5, :4] = 0.0
    for opt_cls, oracle_cls in ((AdamOptimizer, AdamOracle), (RmsPropOptimizer, RmsPropOracle)):
        opt, oracle = opt_cls(lr), oracle_cls(lr)
        theta, want = theta0.copy(), theta0
        with np.errstate(over="ignore", invalid="ignore"):
            for g in grads:
                opt.update(theta, g)
                want = oracle.update("p", want, g)
                assert theta.dtype == want.dtype == dtype
                assert theta.tobytes() == want.tobytes()
