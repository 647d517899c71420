"""Checkpoint save/load: JSON header + little-endian float32 blob.

``<base>.ckpt.json`` lists layers and parameter shapes in order;
``<base>.ckpt.raw`` concatenates the arrays in that order. The in-memory
training dtype is float32, so the round trip is bit-exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..errors import DataValidationError
from ..jsonio import from_json, read_json, read_raw, write_json
from .network import Network


@dataclass
class Checkpoint:
    layers: dict[str, dict[str, np.ndarray]]  # name -> {"W": arr, "b": arr}
    layer_order: list[str]


def checkpoint_from_network(net: Network) -> Checkpoint:
    return Checkpoint(
        layers={name: {k: v.astype("<f4") for k, v in net.params[name].items()}
                for name in net.layer_names},
        layer_order=list(net.layer_names),
    )


def apply_checkpoint(net: Network, ckpt: Checkpoint) -> None:
    """Load checkpoint weights into a network, validating every shape."""
    if set(ckpt.layer_order) != set(net.layer_names):
        raise DataValidationError(
            f"checkpoint layers {ckpt.layer_order} do not match network layers {net.layer_names}")
    for name in net.layer_names:
        for pname, arr in net.params[name].items():
            if pname not in ckpt.layers[name]:
                raise DataValidationError(f"checkpoint missing {name}.{pname}")
            stored = ckpt.layers[name][pname]
            if stored.shape != arr.shape:
                raise DataValidationError(
                    f"shape mismatch for {name}.{pname}: checkpoint "
                    f"{stored.shape} vs network {arr.shape}")
            arr[...] = stored  # a view into net.flat: write, never rebind


@dataclass
class _ParamHeader:
    name: str
    shape: list[int]


@dataclass
class _LayerHeader:
    name: str
    params: list[_ParamHeader]


@dataclass
class _Header:
    dtype: str
    layers: list[_LayerHeader]


def save_checkpoint(ckpt: Checkpoint, path_base) -> None:
    path_base = str(path_base)
    write_json(_Header(dtype="f32le", layers=[
        _LayerHeader(name=name, params=[
            _ParamHeader(name=pname, shape=list(ckpt.layers[name][pname].shape))
            for pname in ("W", "b")])
        for name in ckpt.layer_order]), path_base + ".ckpt.json")
    with open(path_base + ".ckpt.raw", "wb") as fh:
        for name in ckpt.layer_order:
            for pname in ("W", "b"):
                fh.write(np.ascontiguousarray(ckpt.layers[name][pname], "<f4").data)


def load_checkpoint(path_base) -> Checkpoint:
    path_base = str(path_base)
    header = from_json(_Header, read_json(path_base + ".ckpt.json"), "checkpoint header")
    if header.dtype != "f32le":
        raise DataValidationError(f"unsupported checkpoint dtype {header.dtype!r}")
    limit = os.path.getsize(path_base + ".ckpt.raw") // 4
    for layer in header.layers:
        for param in layer.params:
            if not all(0 <= n <= limit for n in param.shape):
                raise DataValidationError(f"malformed checkpoint header: {layer.name}."
                                          f"{param.name}.shape {param.shape} is out of range")
    total = sum(math.prod(param.shape) for layer in header.layers for param in layer.params)
    flat = read_raw(path_base + ".ckpt.raw", "<f4", total, lambda size, expected: (
        f"checkpoint blob {'shorter' if size < expected else 'longer'} than header describes"))
    layers: dict[str, dict[str, np.ndarray]] = {layer.name: {} for layer in header.layers}
    offset = 0
    for layer in header.layers:
        for param in layer.params:  # views of the one array
            n = math.prod(param.shape)
            layers[layer.name][param.name] = flat[offset:offset + n].reshape(param.shape)
            offset += n
    return Checkpoint(layers=layers, layer_order=[layer.name for layer in header.layers])
