"""Plain conv/dense network with hand-written forward and backward passes.

Architecture per NetConfig: [conv3x3 (pad 1) -> relu -> maxpool2x2] blocks,
flatten, dense hidden layers with relu and a single-logit output, He-initialized
from the config seed, in float32 (training, bit-exact checkpoints) or float64
(gradient checking).

Layers are ``NetConfig.layer_names`` ("conv1"..., "fc1"..., "fc_out"), each
with a "W" and a "b". All parameters live in one flat buffer, ``flat``, in
checkpoint order; ``params[name][p]`` are reshaped views into it, written with
``[...] =`` and never rebound. ``grad`` and ``grads[name][p]`` hold the
gradients the same way, each backward pass overwriting all of them;
``slices[name]`` is a layer's span in both. Training steps and inference each
run in buffers kept for their last batch size until ``release_workspaces``.

``forward`` and ``loss_and_grads`` take images, or the ``Columns`` that
``columns`` built from them once: the first block's im2col columns. A
training step gathers each pool window's cells at its corner's flat index
plus 0, 1, w and w + 1 and takes the value and the position at their
``argmax``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DataValidationError
from .config import NetConfig
from .losses import LOSSES


def _im2col_buffers(n: int, c: int, h: int, w: int, dtype) -> tuple:
    """(padded input, its 3x3 taps, columns) for (n, c, h, w): the taps,
    (n, c, 3, 3, h, w), are views of the padded input, read as the columns,
    (n, c*9, h*w)."""
    xp = np.zeros((n, c, h + 2, w + 2), dtype)
    taps = sliding_window_view(xp, (3, 3), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    return xp, taps, np.empty((n, c * 9, h * w), dtype)


def _im2col(x: np.ndarray, xp: np.ndarray, taps: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cols filled with the im2col columns of x; xp's zero border is never
    written. cols stays C-contiguous: c_einsum's float32 sums depend on it."""
    xp[:, :, 1:-1, 1:-1] = x
    np.copyto(cols.reshape(taps.shape), taps)
    return cols


class Columns:
    """A batch's first-layer input: the first conv block's C-contiguous
    im2col columns, (n, 9, h*w), or (n, 1, h, w) images for a net without
    conv blocks. Indexing selects samples (``cols[batch]``)."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __getitem__(self, index) -> Columns:
        return Columns(np.ascontiguousarray(self.array[index]))


class Network:
    def __init__(self, cfg: NetConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(cfg.seed)

        layers = []  # (W, b) in checkpoint order
        in_c, (h, w) = 1, cfg.input_dims
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
        # per layer: (W, b, W's gradient, b's gradient), a conv block's W and
        # its gradient as (out, in*9) and its b as a column
        self._layers = []
        for k, name in enumerate(self.layer_names):
            (wgt, b), (grad_w, grad_b) = self.params[name].values(), self.grads[name].values()
            if k < len(cfg.conv_blocks):
                wgt, b, grad_w = wgt.reshape(b.size, -1), b[:, None], grad_w.reshape(b.size, -1)
            self._layers.append((wgt, b, grad_w, grad_b))
        # per kind of pass (train or not): (its last batch size, its buffers)
        self._workspaces: dict[bool, tuple[int, list]] = {}

    @property
    def n_params(self) -> int:
        return self.flat.size

    def _prepare_input(self, x) -> np.ndarray:
        """A ``Columns`` array for images of (n, h, w) or (n, 1, h, w)."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 3:
            x = x[:, None, :, :]
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != self.cfg.input_dims:
            raise DataValidationError(
                f"expected images of shape (n, {self.cfg.input_dims[0]}, "
                f"{self.cfg.input_dims[1]}), got {x.shape}")
        if not self.cfg.conv_blocks:
            return x
        return _im2col(x, *_im2col_buffers(*x.shape, self.dtype))

    def columns(self, images) -> Columns:
        """The ``Columns`` of images, to build once and pass, whole or
        indexed, to each pass; ``Columns`` are returned as given."""
        return images if isinstance(images, Columns) else Columns(self._prepare_input(images))

    def _buffers(self, n: int, train: bool) -> list:
        """Scratch buffers for a batch of n, kept for training steps and for
        inference apart, so neither evicts the other's; the padded inputs'
        zero borders persist. Block 1 reads its ``Columns`` as given."""
        kept = self._workspaces.get(train)
        if kept is not None and kept[0] == n:
            return kept[1]
        self._workspaces.pop(train, None)  # freed before the new size's are built
        c, (h, w) = 1, self.cfg.input_dims
        ws = []
        for k, o in enumerate(self.cfg.conv_blocks):
            im2col = _im2col_buffers(n, c, h, w, self.dtype) if k else (None, None, None)
            at = first = None
            if train:  # the pool cells' flat positions, (n, windows, 4), and
                # where each window's first cell is in that array
                corner = np.arange(n * o * h * w).reshape(n, o, h, w)[:, :, :h - 1:2, :w - 1:2]
                at = np.stack([corner, corner + 1, corner + w, corner + w + 1], axis=-1)
                at = at.reshape(n, -1, 4)
                first = np.arange(0, at.size, 4).reshape(at.shape[:2])
            ws.append((*im2col, np.empty((n, o, h * w), self.dtype),  # conv, then relu
                       np.empty((n, o, h * w), bool), at, first))  # relu mask
            c, h, w = o, h // 2, w // 2
        self._workspaces[train] = (n, ws)
        return ws

    def release_workspaces(self) -> None:
        """Drop the kept scratch buffers; the next pass builds them again."""
        self._workspaces.clear()

    def _forward(self, x: np.ndarray, train: bool = False):
        """(logits, tape) of a ``Columns`` array. Only ``train`` fills the
        tape: per conv block (input shape, cols, relu mask, activations,
        argmax positions), per dense layer (input, relu mask)."""
        conv_tape, dense_tape = [], []
        out = cols = x
        n = out.shape[0]
        c, (h, w) = 1, self.cfg.input_dims
        for (xp, taps, im2col, act, mask, at, first), (wgt, b, _, _) in zip(
                self._buffers(n, train), self._layers):
            if xp is not None:
                cols = _im2col(out, xp, taps, im2col)
            np.einsum("of,nfp->nop", wgt, cols, out=act)
            act += b
            np.greater(act, 0, out=mask)
            act *= mask
            # 2x2 max pool, stride 2, odd edge cropped, with argmax's values and
            # cells: the first maximum, and the first NaN, of each window
            if train:
                cells = act.reshape(-1).take(at, mode="clip")
                k = cells.argmax(axis=2)
                k += first
                out = cells.reshape(-1).take(k)
                conv_tape.append(((n, c, h, w), cols, mask, act, at.reshape(-1).take(k)))
            else:  # strided views; np.maximum keeps the first NaN, and a
                # window whose max is 0 holds only +-0.0: argmax keeps the first
                a = act.reshape(n, b.size, h, w)
                c0, c1, c2, c3 = (a[:, :, i:h - 1 + i:2, j:w - 1 + j:2]
                                  for i in (0, 1) for j in (0, 1))
                top = np.maximum(np.maximum(c0, c1), np.maximum(c2, c3))
                out = np.where(top == 0, c0, top)
            c, h, w = b.size, h // 2, w // 2
            out = out.reshape(n, c, h, w)
        out = out.reshape(n, -1)
        n_conv = len(self.cfg.conv_blocks)
        for name, (wgt, b, _, _) in zip(self.layer_names[n_conv:], self._layers[n_conv:]):
            z = out @ wgt.T + b
            mask = None if name == "fc_out" else z > 0
            dense_tape.append((out, mask))
            out = z if mask is None else z * mask
        return out[:, 0], (conv_tape, dense_tape)

    def forward(self, x) -> np.ndarray:
        """Logits for a batch of images, or of their ``Columns``."""
        logits, _ = self._forward(self.columns(x).array)
        return logits

    def _backward(self, tape, dlogits: np.ndarray) -> None:
        """Write every parameter gradient into its view of ``grad``."""
        conv_tape, dense_tape = tape
        d = np.asarray(dlogits, dtype=self.dtype)[:, None]
        # walk the layers back to the first, whose input gradient is never used
        for i in range(len(self._layers) - 1, -1, -1):
            wgt, _, grad_w, grad_b = self._layers[i]
            if i >= len(conv_tape):
                x, mask = dense_tape[i - len(conv_tape)]
                if mask is not None:
                    d *= mask  # relu follows the affine op
                np.matmul(d.T, x, out=grad_w)
                np.add.reduce(d, axis=0, out=grad_b)
                if i == 0:
                    break
                d = d @ wgt
                continue
            # conv block: unpool -> relu -> conv, in the activations' buffer
            in_shape, cols, mask, dconv, pos = conv_tape[i]
            dconv.fill(0)
            dconv.reshape(-1)[pos] = d.reshape(pos.shape)
            dconv *= mask
            np.einsum("nop,nfp->of", dconv, cols, out=grad_w)
            np.add.reduce(dconv, axis=(0, 2), out=grad_b)
            if i == 0:
                break
            dcols = np.einsum("of,nop->nfp", wgt, dconv)
            in_n, in_c, in_h, in_w = in_shape
            dxp = np.zeros((in_n, in_c, in_h + 2, in_w + 2), dtype=self.dtype)
            dcols6 = dcols.reshape(in_n, in_c, 3, 3, in_h, in_w)
            for di in range(3):
                for dj in range(3):
                    dxp[:, :, di:di + in_h, dj:dj + in_w] += dcols6[:, :, di, dj]
            d = dxp[:, :, 1:-1, 1:-1]

    def loss_and_grads(self, x, y, loss_name: str):
        """(mean loss, per-layer grads, logits) on a batch of images, or of
        their ``Columns``. The grads are ``self.grads``: the next call
        overwrites them."""
        x = self.columns(x).array
        y = np.asarray(y, dtype=self.dtype).ravel()
        if y.size != x.shape[0]:
            raise DataValidationError("images and labels must align")
        logits, tape = self._forward(x, train=True)
        loss_vec, dz = LOSSES[loss_name](logits, y)
        # mean reduction: spread the 1/n over per-sample gradients
        self._backward(tape, dz / y.size)
        # loss_vec.mean() as numpy's _mean takes it: the sum over intp(n) in
        # float64, cast back to the sum's dtype
        total = np.add.reduce(loss_vec)
        return float(total.dtype.type(float(total) / y.size)), self.grads, logits
