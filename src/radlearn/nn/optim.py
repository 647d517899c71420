"""Adam and RMSProp parameter updates.

Each rule is one routine that steps theta and its state in place, with two
scratch arrays. The optimizer classes run it on one flat parameter vector and
keep the state and scratch as flat arrays of the same layout, plus the step
count for Adam's bias correction; step_adam and step_rmsprop run it on copies.
"""

from __future__ import annotations

import numpy as np


def _adam(theta, grad, m, v, s1, s2, t, lr, beta1, beta2, eps):
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=s1)
    v *= beta2
    v += np.multiply(np.square(grad, out=s1), 1.0 - beta2, out=s1)
    np.divide(m, 1.0 - beta1 ** t, out=s1)  # m_hat
    np.sqrt(np.divide(v, 1.0 - beta2 ** t, out=s2), out=s2)  # sqrt(v_hat)
    s2 += eps
    s1 *= lr
    theta -= np.divide(s1, s2, out=s1)


def _rmsprop(theta, grad, v, s1, s2, lr, decay, eps):
    v *= decay
    v += np.multiply(np.square(grad, out=s1), 1.0 - decay, out=s1)
    np.sqrt(v, out=s2)
    s2 += eps
    theta -= np.divide(np.multiply(grad, lr, out=s1), s2, out=s1)


def step_adam(theta, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam step; t is the 1-based step count.

    Returns (theta', m', v') without mutating the inputs.
    """
    theta, m, v = (np.array(a, dtype=np.result_type(a, 0.0)) for a in (theta, m, v))
    _adam(theta, grad, m, v, np.empty_like(theta), np.empty_like(theta), t, lr, beta1, beta2, eps)
    return theta, m, v


def step_rmsprop(theta, grad, v, lr, decay=0.9, eps=1e-8):
    """v <- decay*v + (1-decay)*g^2; theta <- theta - lr*g/(sqrt(v)+eps)."""
    theta, v = (np.array(a, dtype=np.result_type(a, 0.0)) for a in (theta, v))
    _rmsprop(theta, grad, v, np.empty_like(theta), np.empty_like(theta), lr, decay, eps)
    return theta, v


class AdamOptimizer:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state = None  # m, v and two scratch arrays
        self._t = 0

    def update(self, theta, grad):
        """One step of theta in place; the state starts at zero on the first call."""
        if self._state is None:
            self._state = [np.zeros_like(theta) for _ in range(4)]
        self._t += 1
        _adam(theta, grad, *self._state, self._t, self.lr, self.beta1, self.beta2, self.eps)
        return theta


class RmsPropOptimizer:
    def __init__(self, lr, decay=0.9, eps=1e-8):
        self.lr = lr
        self.decay = decay
        self.eps = eps
        self._state = None  # v and two scratch arrays

    def update(self, theta, grad):
        """One step of theta in place; the state starts at zero on the first call."""
        if self._state is None:
            self._state = [np.zeros_like(theta) for _ in range(3)]
        _rmsprop(theta, grad, *self._state, self.lr, self.decay, self.eps)
        return theta


def make_optimizer(name: str, lr: float):
    if name == "adam":
        return AdamOptimizer(lr)
    return RmsPropOptimizer(lr)
