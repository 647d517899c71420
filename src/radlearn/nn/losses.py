"""Per-sample classification losses on a single logit.

Both functions are vectorized: given logits z and labels y of equal shape
they return (loss, dloss/dz) elementwise.
"""

from __future__ import annotations

import numpy as np


def loss_bce_logit(z, y):
    """Binary cross-entropy on logits, stable branch form.

    loss = max(z, 0) - z*y + log(1 + exp(-|z|)); gradient = sigmoid(z) - y,
    where sigmoid's two branches share e = exp(-|z|): 1/(1+e) for z >= 0,
    e/(1+e) below.
    """
    z = np.asarray(z, dtype=np.float64) if np.isscalar(z) else np.asarray(z)
    y = np.asarray(y, dtype=z.dtype)
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))  # exp(-|z|), a NaN z keeping its sign bit
    loss = np.maximum(z, 0.0) - z * y + np.log1p(e)
    one_e = 1.0 + e
    grad = np.where(pos, 1.0, e) / one_e - y
    return loss, grad


def loss_hinge(z, y):
    """Hinge loss with labels mapped {0,1} -> {-1,+1}.

    loss = max(0, 1 - s*z); gradient = -s on the active side, 0 at and past
    the kink (subgradient 0 at the kink itself).
    """
    z = np.asarray(z, dtype=np.float64) if np.isscalar(z) else np.asarray(z)
    y = np.asarray(y, dtype=z.dtype)
    s = 2.0 * y - 1.0
    margin = 1.0 - s * z
    loss = np.maximum(margin, 0.0)
    grad = np.where(margin > 0, -s, 0.0)
    return loss, grad


LOSSES = {
    "bce_logit": loss_bce_logit,
    "hinge": loss_hinge,
}
