"""Network and training configuration.

Together the two classes are the ``train`` config section (see
``radlearn.config.TrainSection``); their ``seed`` fields come from
``seeds.net`` and ``seeds.train``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..jsonio import check
from .optim import OPTIMIZERS
from .losses import LOSSES

_FLOAT32_MAX = 3.4028234663852886e38


@dataclass
class NetConfig:
    """Plain conv stack: per block conv3x3(channels) -> relu -> maxpool2,
    then dense hidden layers with relu and a single-logit output. Weights
    are He-initialized."""

    input_dims: tuple[int, int] = (16, 16)
    conv_blocks: list[int] = field(default_factory=lambda: [4])
    hidden_dense: list[int] = field(default_factory=lambda: [16])
    seed: int = 0

    def __post_init__(self):
        check("train", self, [
            ("input_dims", lambda d: min(d) >= 1, "all >= 1"),
            ("conv_blocks", lambda c: all(n >= 1 for n in c), "all >= 1"),
            ("hidden_dense", lambda h: all(n >= 1 for n in h), "all >= 1"),
            ("conv_blocks", lambda c: min(self.input_dims) >> len(c) >= 1,
             "short enough for input_dims (each block halves them)"),
        ])

    @property
    def layer_names(self) -> list[str]:
        """conv1..., fc1..., then fc_out, in checkpoint order."""
        return ([f"conv{i}" for i in range(1, len(self.conv_blocks) + 1)]
                + [f"fc{i}" for i in range(1, len(self.hidden_dense) + 1)]
                + ["fc_out"])


@dataclass
class TrainConfig:
    loss: str = "bce_logit"
    optimizer: str = "adam"
    # 0 is allowed on purpose: it is the canonical "all layers static"
    # fixture for the diagnostics. It must be finite in float32, or lr * 0
    # would turn every parameter with a zero gradient into nan.
    learning_rate: float = 1e-4
    batch_size: int = 4
    epochs: int = 25
    freeze_layers: list[str] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        check("train", self, [
            ("loss", lambda v: v in LOSSES, f"one of {list(LOSSES)}"),
            ("optimizer", lambda v: v in OPTIMIZERS, f"one of {list(OPTIMIZERS)}"),
            ("learning_rate", lambda v: 0 <= v <= _FLOAT32_MAX, "in [0, float32 max]"),
            ("batch_size", lambda b: b >= 1, ">= 1"),
            ("epochs", lambda e: e >= 1, ">= 1"),
        ])
