import math

import numpy as np
import pytest

from radlearn.nn import loss_bce_logit, loss_hinge, step_adam, step_rmsprop


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


def test_adam_hand_step():
    theta = np.array([0.0])
    grad = np.array([0.5])
    m = np.zeros(1)
    v = np.zeros(1)
    theta1, m1, v1 = step_adam(theta, grad, m, v, t=1, lr=1e-3)
    assert theta1[0] == pytest.approx(-9.99999980e-4, rel=1e-8)
    assert m1[0] == pytest.approx(0.05)
    assert v1[0] == pytest.approx(0.00025)


def test_adam_zero_gradient_no_move():
    theta = np.array([1.5])
    theta1, _, _ = step_adam(theta, np.zeros(1), np.zeros(1), np.zeros(1), t=1, lr=0.1)
    assert theta1[0] == 1.5


def test_adam_identical_tensors_identical_updates():
    theta = np.array([0.3, 0.3])
    grad = np.array([0.2, 0.2])
    theta1, _, _ = step_adam(theta, grad, np.zeros(2), np.zeros(2), t=1, lr=0.01)
    assert theta1[0] == theta1[1]


def test_rmsprop_hand_step():
    theta = np.array([0.0])
    theta1, v1 = step_rmsprop(theta, np.array([1.0]), np.zeros(1), lr=0.01)
    assert v1[0] == pytest.approx(0.1)
    assert theta1[0] == pytest.approx(-0.0316227766, rel=1e-6)


def test_rmsprop_zero_gradient_no_move():
    theta = np.array([2.0])
    theta1, _ = step_rmsprop(theta, np.zeros(1), np.zeros(1), lr=0.01)
    assert theta1[0] == 2.0


def test_rmsprop_sign_flip_symmetric():
    theta = np.zeros(1)
    up, _ = step_rmsprop(theta, np.array([0.7]), np.zeros(1), lr=0.05)
    down, _ = step_rmsprop(theta, np.array([-0.7]), np.zeros(1), lr=0.05)
    assert up[0] == pytest.approx(-down[0], abs=1e-15)


def test_steps_do_not_mutate_inputs():
    theta = np.array([1.0])
    grad = np.array([0.5])
    m = np.array([0.1])
    v = np.array([0.2])
    step_adam(theta, grad, m, v, t=3, lr=0.01)
    assert theta[0] == 1.0 and m[0] == 0.1 and v[0] == 0.2
    step_rmsprop(theta, grad, v, lr=0.01)
    assert theta[0] == 1.0 and v[0] == 0.2


@pytest.mark.parametrize("lr", [-1e-3, float("nan"), float("inf"), 1e39])
def test_train_config_rejects_learning_rates_float32_cannot_hold(lr):
    from radlearn.errors import ConfigError
    from radlearn.nn import TrainConfig

    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=lr)
    assert TrainConfig(learning_rate=3.4e38).learning_rate == 3.4e38
