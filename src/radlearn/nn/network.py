"""Plain conv/dense network with hand-written forward and backward passes.

Architecture per NetConfig: repeated [conv3x3 (pad 1) -> relu -> maxpool2x2]
blocks, flatten, dense hidden layers with relu, and a single-logit dense
output. Weights are He-initialized from the config seed. The same code runs
in float32 (training, bit-exact checkpoints) or float64 (gradient checking).

Layer names are ``NetConfig.layer_names``: "conv1"..., "fc1"..., and
"fc_out"; each layer holds a "W" and a "b" array. All parameters live in one
flat buffer, ``flat``, laid out in checkpoint order (conv1.W, conv1.b, ...,
fc_out.b); ``params[name][p]`` are reshaped views into it, so they are
written with ``[...] =`` and never rebound. The gradients live the same way in
``grad``, a buffer of the same dtype and layout with views ``grads[name][p]``;
each backward pass overwrites every one of them, and ``slices[name]`` is a
layer's span in both buffers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DataValidationError
from .config import NetConfig
from .losses import LOSSES


@lru_cache(maxsize=64)
def _conv_taps(h: int, w: int) -> np.ndarray:
    """(9, h*w) flat positions, in an (h+2, w+2) padded plane, of the 3x3
    taps of each output pixel; taps in (di, dj) row-major order."""
    y, x = np.divmod(np.arange(h * w), w)
    taps = np.stack([(y + di) * (w + 2) + x + dj for di in range(3) for dj in range(3)])
    taps.flags.writeable = False  # cached, so shared by every caller
    return taps


@lru_cache(maxsize=64)
def _pool_windows(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions, in an h x w plane, of the 4 cells of each 2x2 pool
    window (windows row-major, cells row-major, an odd edge cropped), and
    the offset of each window's first cell in that (windows, 4) table."""
    py, px = np.divmod(np.arange((h // 2) * (w // 2)), w // 2)
    corner = 2 * py * w + 2 * px
    cells = np.stack([corner, corner + 1, corner + w, corner + w + 1], axis=1)
    first = 4 * np.arange(corner.size)
    cells.flags.writeable = first.flags.writeable = False  # cached, so shared
    return cells, first


class Network:
    def __init__(self, cfg: NetConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(cfg.seed)

        layers = []  # (W, b) in checkpoint order
        h, w = cfg.input_dims
        in_c = 1
        for out_c in cfg.conv_blocks:
            fan_in = in_c * 9
            wgt = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_c, in_c, 3, 3))
            layers.append((wgt, np.zeros(out_c)))
            in_c = out_c
            h, w = h // 2, w // 2
        in_features = in_c * h * w
        for width in cfg.hidden_dense + [1]:  # the hidden layers, then fc_out
            wgt = rng.normal(0.0, np.sqrt(2.0 / in_features), size=(width, in_features))
            layers.append((wgt, np.zeros(width)))
            in_features = width

        self.layer_names = cfg.layer_names
        self.flat = np.concatenate(
            [a.ravel() for wgt, b in layers for a in (wgt, b)]).astype(self.dtype)
        self.grad = np.zeros_like(self.flat)
        self.params: dict[str, dict[str, np.ndarray]] = {}
        self.grads: dict[str, dict[str, np.ndarray]] = {}
        self.slices: dict[str, slice] = {}  # layer name -> its W and b in flat and grad
        offset = 0
        for name, (wgt, b) in zip(self.layer_names, layers):
            start = offset
            self.params[name], self.grads[name] = {}, {}
            for pname, shape in (("W", wgt.shape), ("b", b.shape)):
                span = slice(offset, offset + int(np.prod(shape)))
                self.params[name][pname] = self.flat[span].reshape(shape)
                self.grads[name][pname] = self.grad[span].reshape(shape)
                offset = span.stop
            self.slices[name] = slice(start, offset)

    @property
    def n_params(self) -> int:
        return self.flat.size

    # -- forward / backward -------------------------------------------------

    def _prepare_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 3:
            x = x[:, None, :, :]
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != self.cfg.input_dims:
            raise DataValidationError(
                f"expected images of shape (n, {self.cfg.input_dims[0]}, "
                f"{self.cfg.input_dims[1]}), got {x.shape}")
        return x

    def _forward(self, x: np.ndarray):
        caches = []
        out = x
        for i in range(1, len(self.cfg.conv_blocks) + 1):
            name = f"conv{i}"
            wgt, b = self.params[name]["W"], self.params[name]["b"]
            n, in_c, hh, ww = out.shape
            out_c = wgt.shape[0]
            xp = np.zeros((n, in_c, hh + 2, ww + 2), dtype=self.dtype)
            xp[:, :, 1:-1, 1:-1] = out
            # np.take keeps cols C-contiguous; c_einsum's float32 sums depend on it
            cols = np.take(xp.reshape(n, in_c, -1), _conv_taps(hh, ww),
                           axis=2).reshape(n, in_c * 9, hh * ww)
            conv = np.einsum("of,nfp->nop", wgt.reshape(out_c, -1), cols) + b[None, :, None]
            relu_mask = conv > 0
            act = conv * relu_mask
            # 2x2 max pool, stride 2, odd edge cropped; first max wins ties
            cells, first = _pool_windows(hh, ww)
            planes = act.reshape(n * out_c, hh * ww)
            amax = np.take(planes, cells, axis=1).argmax(axis=-1)
            pos = np.take(cells, amax + first)  # argmax positions within each plane
            pos += (np.arange(n * out_c) * (hh * ww))[:, None]
            pos = pos.reshape(n, out_c, hh // 2, ww // 2)
            caches.append({"name": name, "kind": "conv", "cols": cols,
                           "in_shape": out.shape, "relu_mask": relu_mask, "pos": pos})
            out = planes.ravel()[pos]
        flat_shape = out.shape
        out = out.reshape(out.shape[0], -1)
        caches.append({"kind": "flatten", "shape": flat_shape})
        for i in range(1, len(self.cfg.hidden_dense) + 1):
            name = f"fc{i}"
            wgt, b = self.params[name]["W"], self.params[name]["b"]
            z = out @ wgt.T + b
            relu_mask = z > 0
            caches.append({"name": name, "kind": "dense", "x": out,
                           "relu_mask": relu_mask})
            out = z * relu_mask
        wgt, b = self.params["fc_out"]["W"], self.params["fc_out"]["b"]
        caches.append({"name": "fc_out", "kind": "dense", "x": out, "relu_mask": None})
        logits = (out @ wgt.T + b)[:, 0]
        return logits, caches

    def forward(self, x) -> np.ndarray:
        """Logits for a batch of images."""
        logits, _ = self._forward(self._prepare_input(x))
        return logits

    def _backward(self, caches, dlogits: np.ndarray) -> None:
        """Write every parameter gradient into its view of ``grad``."""
        d = dlogits[:, None].astype(self.dtype)
        # the input gradient of the first layer with weights is never used
        first = 0 if self.cfg.conv_blocks else 1
        for i in range(len(caches) - 1, -1, -1):
            cache = caches[i]
            if cache["kind"] == "dense":
                name = cache["name"]
                if cache["relu_mask"] is not None:
                    d = d * cache["relu_mask"]  # relu follows the affine op
                grad = self.grads[name]
                grad["W"][...] = d.T @ cache["x"]
                grad["b"][...] = d.sum(axis=0)
                if i == first:
                    break
                d = d @ self.params[name]["W"]
            elif cache["kind"] == "flatten":
                d = d.reshape(cache["shape"])
            else:  # conv block: unpool -> relu -> conv
                name = cache["name"]
                wgt = self.params[name]["W"]
                relu_mask = cache["relu_mask"]
                dact = np.zeros(relu_mask.size, dtype=self.dtype)
                dact[cache["pos"]] = d
                dconv2d = dact.reshape(relu_mask.shape) * relu_mask
                out_c = dconv2d.shape[1]
                grad = self.grads[name]
                grad["W"][...] = np.einsum("nop,nfp->of", dconv2d,
                                           cache["cols"]).reshape(wgt.shape)
                grad["b"][...] = dconv2d.sum(axis=(0, 2))
                if i == first:
                    break
                dcols = np.einsum("of,nop->nfp", wgt.reshape(out_c, -1), dconv2d)
                in_n, in_c, in_h, in_w = cache["in_shape"]
                dxp = np.zeros((in_n, in_c, in_h + 2, in_w + 2), dtype=self.dtype)
                dcols6 = dcols.reshape(in_n, in_c, 3, 3, in_h, in_w)
                for di in range(3):
                    for dj in range(3):
                        dxp[:, :, di:di + in_h, dj:dj + in_w] += dcols6[:, :, di, dj]
                d = dxp[:, :, 1:-1, 1:-1]

    def loss_and_grads(self, x, y, loss_name: str):
        """(mean loss, per-layer grads, logits) on a batch.

        The grads are ``self.grads``, views into ``grad``: the next call
        overwrites them."""
        x = self._prepare_input(x)
        y = np.asarray(y, dtype=self.dtype).ravel()
        if y.size != x.shape[0]:
            raise DataValidationError("images and labels must align")
        logits, caches = self._forward(x)
        loss_vec, dz = LOSSES[loss_name](logits, y)
        # mean reduction: spread the 1/n over per-sample gradients
        dlogits = dz / y.size
        self._backward(caches, dlogits)
        return float(loss_vec.mean()), self.grads, logits
