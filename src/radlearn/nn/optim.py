"""Adam and RMSProp parameter updates.

The step functions are pure array transforms; the optimizer classes step one
flat parameter vector in place and keep its state as flat arrays of the same
layout, plus the step count for Adam's bias correction.
"""

from __future__ import annotations

import numpy as np


def step_adam(theta, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam step; t is the 1-based step count.

    Returns (theta', m', v') without mutating the inputs.
    """
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad ** 2
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta, m, v


def step_rmsprop(theta, grad, v, lr, decay=0.9, eps=1e-8):
    """v <- decay*v + (1-decay)*g^2; theta <- theta - lr*g/(sqrt(v)+eps)."""
    v = decay * v + (1.0 - decay) * grad ** 2
    theta = theta - lr * grad / (np.sqrt(v) + eps)
    return theta, v


class AdamOptimizer:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = None
        self._v = None
        self._t = 0

    def update(self, theta, grad):
        """One step of theta in place; the state starts at zero on the first call."""
        if self._m is None:
            self._m, self._v = np.zeros_like(theta), np.zeros_like(theta)
        self._t += 1
        theta[...], self._m, self._v = step_adam(
            theta, grad, self._m, self._v, self._t, self.lr, self.beta1, self.beta2,
            self.eps)
        return theta


class RmsPropOptimizer:
    def __init__(self, lr, decay=0.9, eps=1e-8):
        self.lr = lr
        self.decay = decay
        self.eps = eps
        self._v = None

    def update(self, theta, grad):
        """One step of theta in place; the state starts at zero on the first call."""
        if self._v is None:
            self._v = np.zeros_like(theta)
        theta[...], self._v = step_rmsprop(theta, grad, self._v, self.lr, self.decay,
                                           self.eps)
        return theta


def make_optimizer(name: str, lr: float):
    if name == "adam":
        return AdamOptimizer(lr)
    return RmsPropOptimizer(lr)
