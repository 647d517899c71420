"""Adam and RMSProp parameter updates.

Each rule is one routine that steps theta and its state in place, with two
scratch arrays, on one flat parameter vector. Its constants are taken in
Python floats and cast once to 0-d arrays of theta's dtype, as a ufunc
would cast them on every call.
"""

from __future__ import annotations

import numpy as np


def _adam(theta, grad, m, v, s1, s2, lr, beta1, beta2, one_minus_beta1, one_minus_beta2, eps,
          correction1, correction2):
    m *= beta1
    m += np.multiply(grad, one_minus_beta1, out=s1)
    v *= beta2
    v += np.multiply(np.square(grad, out=s1), one_minus_beta2, out=s1)
    np.divide(m, correction1, out=s1)  # m_hat
    np.sqrt(np.divide(v, correction2, out=s2), out=s2)  # sqrt(v_hat)
    s2 += eps
    s1 *= lr
    theta -= np.divide(s1, s2, out=s1)


def _rmsprop(theta, grad, v, s1, s2, lr, decay, one_minus_decay, eps):
    v *= decay
    v += np.multiply(np.square(grad, out=s1), one_minus_decay, out=s1)
    np.sqrt(v, out=s2)
    s2 += eps
    theta -= np.divide(np.multiply(grad, lr, out=s1), s2, out=s1)


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
            # the last two are 1 - beta ** t, set per step
            self._constants = [np.array(c, theta.dtype) for c in (
                self.lr, self.beta1, self.beta2, 1.0 - self.beta1, 1.0 - self.beta2,
                self.eps, 0.0, 0.0)]
        self._t += 1
        correction1, correction2 = self._constants[-2:]
        correction1[()] = 1.0 - self.beta1 ** self._t
        correction2[()] = 1.0 - self.beta2 ** self._t
        _adam(theta, grad, *self._state, *self._constants)
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
            self._constants = [np.array(c, theta.dtype) for c in (
                self.lr, self.decay, 1.0 - self.decay, self.eps)]
        _rmsprop(theta, grad, *self._state, *self._constants)
        return theta


OPTIMIZERS = {"adam": AdamOptimizer, "rmsprop": RmsPropOptimizer}
