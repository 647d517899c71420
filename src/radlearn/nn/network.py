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
layer's span in both buffers. ``forward`` keeps no bookkeeping for a backward
pass. Each kind of pass, training step or inference, runs in buffers kept
for its last batch size until ``release_workspaces``.

Images become the first layer's input in one place, ``_prepare_input``: the
first conv block's im2col columns, never in a workspace. ``forward`` and
``loss_and_grads`` enter through ``columns``, which returns as given the
``Columns`` it built once (``train`` builds its sets'). A training step gathers
each pool window's cells at its corner's flat index plus 0, 1, w and w + 1.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DataValidationError
from .config import NetConfig
from .losses import LOSSES


def _im2col_buffers(n: int, c: int, h: int, w: int, dtype) -> tuple:
    """(padded input, its 3x3 taps, columns) for a batch of (n, c, h, w): the
    taps, (n, c, 3, 3, h, w), are views of the padded input read as the
    columns, (n, c*9, h*w)."""
    xp = np.zeros((n, c, h + 2, w + 2), dtype)
    taps = sliding_window_view(xp, (3, 3), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    return xp, taps, np.empty((n, c * 9, h * w), dtype)


def _im2col(x: np.ndarray, xp: np.ndarray, taps: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cols filled with the im2col columns of x; xp's zero border is never
    written. cols stays C-contiguous: c_einsum's float32 sums depend on it."""
    xp[:, :, 1:-1, 1:-1] = x
    np.copyto(cols.reshape(taps.shape), taps)
    return cols


def _replaces(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Where y, scanned after x, takes the maximum from it as in argmax: ties
    and -0.0 == 0.0 keep x, and the first NaN wins."""
    return ~(y <= x) & (x == x)


class Columns:
    """A batch's first-layer input as ``Network.columns`` built it: the first
    conv block's im2col columns, (n, 9, h*w) and C-contiguous, or a net
    without conv blocks' (n, 1, h, w) images. Indexing selects samples, so a
    caller that builds them once hands ``cols[batch]`` to each step."""

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
        # per kind of pass (train or not): (its last batch size, its buffers)
        self._workspaces: dict[bool, tuple[int, list]] = {}

    @property
    def n_params(self) -> int:
        return self.flat.size

    # -- forward / backward -------------------------------------------------

    def _prepare_input(self, x) -> np.ndarray:
        """The first layer's input for a batch of images, (n, h, w) or
        (n, 1, h, w): the first conv block's im2col columns, or a net without
        conv blocks' images as (n, 1, h, w)."""
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
        """The first layer's input for a batch of images, to build once and
        pass, whole or indexed, to every ``forward`` and ``loss_and_grads``;
        ``Columns`` are returned as given."""
        return images if isinstance(images, Columns) else Columns(self._prepare_input(images))

    def _buffers(self, n: int, train: bool) -> list:
        """Scratch buffers for a batch of n. Training steps and inference each
        keep their last size's as a workspace, so neither evicts the other's:
        each pass overwrites them, no caller sees them, and the padded inputs'
        zero borders persist. Block 1 has no padded input, taps or columns:
        it reads the first layer's input as given."""
        kept = self._workspaces.get(train)
        if kept is not None and kept[0] == n:
            return kept[1]
        self._workspaces.pop(train, None)  # freed before the new size's are built
        c, (h, w) = 1, self.cfg.input_dims
        ws = []
        for k, o in enumerate(self.cfg.conv_blocks):
            im2col = _im2col_buffers(n, c, h, w, self.dtype) if k else (None, None, None)
            at = None
            if train:  # flat positions in the activations of the pool cells, (4, n, windows)
                corner = np.arange(n * o * h * w).reshape(n, o, h, w)[:, :, :h - 1:2, :w - 1:2]
                at = np.stack([corner, corner + 1, corner + w, corner + w + 1]).reshape(4, n, -1)
            ws.append((*im2col, np.empty((n, o, h * w), self.dtype),  # conv, then relu
                       np.empty((n, o, h * w), bool), at))  # relu mask
            c, h, w = o, h // 2, w // 2
        # a tail batch, or a validation set's forward, costs one rebuild an epoch
        self._workspaces[train] = (n, ws)
        return ws

    def release_workspaces(self) -> None:
        """Drop the kept scratch buffers; the next pass builds them again."""
        self._workspaces.clear()

    def _forward(self, x: np.ndarray, train: bool = False):
        """(logits, tape) of a batch's first-layer input, as
        ``_prepare_input`` builds it. Only ``train`` fills the tape
        ``_backward`` reads: per conv block (input shape, cols, relu mask,
        activations, argmax positions), per dense layer (input, relu mask)."""
        conv_tape, dense_tape = [], []
        out = cols = x
        n = out.shape[0]
        c, (h, w) = 1, self.cfg.input_dims
        for i, (xp, taps, im2col, act, mask, at) in enumerate(self._buffers(n, train), 1):
            wgt, b = self.params[f"conv{i}"]["W"], self.params[f"conv{i}"]["b"]
            if i > 1:
                cols = _im2col(out, xp, taps, im2col)
            np.einsum("of,nfp->nop", wgt.reshape(b.size, -1), cols, out=act)
            act += b[:, None]
            np.greater(act, 0, out=mask)
            act *= mask
            # 2x2 max pool, stride 2, odd edge cropped, with argmax's values and
            # cells: np.maximum keeps the first NaN, and relu leaves nothing
            # below zero but -0.0, so a window whose max is 0 holds only zeros,
            # of which argmax keeps the first, sign and all
            if train:
                c0, c1, c2, c3 = act.reshape(-1).take(at, mode="clip")
            else:  # strided views of the activations; nothing is gathered
                a = act.reshape(n, b.size, h, w)
                c0, c1, c2, c3 = (a[:, :, i:h - 1 + i:2, j:w - 1 + j:2]
                                  for i in (0, 1) for j in (0, 1))
            top01, top23 = np.maximum(c0, c1), np.maximum(c2, c3)
            top = np.maximum(top01, top23)
            out = np.where(top == 0, c0, top)
            if train:
                pos = np.where(_replaces(top01, top23), at[2] + _replaces(c2, c3),
                               at[0] + _replaces(c0, c1))
                conv_tape.append(((n, c, h, w), cols, mask, act, pos))
            c, h, w = b.size, h // 2, w // 2
            out = out.reshape(n, c, h, w)
        out = out.reshape(n, -1)
        for name in self.layer_names[len(self.cfg.conv_blocks):]:
            z = out @ self.params[name]["W"].T + self.params[name]["b"]
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
        for i in range(len(self.layer_names) - 1, -1, -1):
            name = self.layer_names[i]
            wgt, grad = self.params[name]["W"], self.grads[name]
            if i >= len(conv_tape):
                x, mask = dense_tape[i - len(conv_tape)]
                if mask is not None:
                    d *= mask  # relu follows the affine op
                np.matmul(d.T, x, out=grad["W"])
                np.add.reduce(d, axis=0, out=grad["b"])
                if i == 0:
                    break
                d = d @ wgt
                continue
            # conv block: unpool -> relu -> conv, in the activations' buffer
            in_shape, cols, mask, dconv, pos = conv_tape[i]
            dconv.fill(0)
            dconv.reshape(-1)[pos] = d.reshape(pos.shape)
            dconv *= mask
            np.einsum("nop,nfp->of", dconv, cols, out=grad["W"].reshape(dconv.shape[1], -1))
            np.add.reduce(dconv, axis=(0, 2), out=grad["b"])
            if i == 0:
                break
            dcols = np.einsum("of,nop->nfp", wgt.reshape(dconv.shape[1], -1), dconv)
            in_n, in_c, in_h, in_w = in_shape
            dxp = np.zeros((in_n, in_c, in_h + 2, in_w + 2), dtype=self.dtype)
            dcols6 = dcols.reshape(in_n, in_c, 3, 3, in_h, in_w)
            for di in range(3):
                for dj in range(3):
                    dxp[:, :, di:di + in_h, dj:dj + in_w] += dcols6[:, :, di, dj]
            d = dxp[:, :, 1:-1, 1:-1]

    def loss_and_grads(self, x, y, loss_name: str):
        """(mean loss, per-layer grads, logits) on a batch of images, or of
        their ``Columns``.

        The grads are ``self.grads``, views into ``grad``: the next call
        overwrites them."""
        x = self.columns(x).array
        y = np.asarray(y, dtype=self.dtype).ravel()
        if y.size != x.shape[0]:
            raise DataValidationError("images and labels must align")
        logits, tape = self._forward(x, train=True)
        loss_vec, dz = LOSSES[loss_name](logits, y)
        # mean reduction: spread the 1/n over per-sample gradients
        self._backward(tape, dz / y.size)
        return float(loss_vec.mean()), self.grads, logits
