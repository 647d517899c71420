"""Network and training configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

LOSS_NAMES = ("bce_logit", "hinge")
OPTIMIZER_NAMES = ("adam", "rmsprop")
_FLOAT32_MAX = 3.4028234663852886e38


@dataclass
class NetConfig:
    """Plain conv stack: per block conv3x3(channels) -> relu -> maxpool2,
    then dense hidden layers with relu and a single-logit output."""

    input_dims: tuple[int, int] = (16, 16)
    conv_blocks: list[int] = field(default_factory=lambda: [4])
    hidden_dense: list[int] = field(default_factory=lambda: [16])
    seed: int = 0
    init_scale: str = "he"

    def __post_init__(self):
        self.input_dims = tuple(int(d) for d in self.input_dims)
        self.conv_blocks = [int(c) for c in self.conv_blocks]
        self.hidden_dense = [int(w) for w in self.hidden_dense]
        if len(self.input_dims) != 2 or any(d < 1 for d in self.input_dims):
            raise ConfigError(f"input_dims must be two positive integers, got {self.input_dims}")
        if any(c < 1 for c in self.conv_blocks):
            raise ConfigError("conv channel counts must be positive")
        if any(w < 1 for w in self.hidden_dense):
            raise ConfigError("dense widths must be positive")
        if self.init_scale != "he":
            raise ConfigError(f"unsupported init_scale {self.init_scale!r}")
        h, w = self.input_dims
        for i, _ in enumerate(self.conv_blocks):
            h, w = h // 2, w // 2
            if h < 1 or w < 1:
                raise ConfigError(
                    f"input {self.input_dims} too small for {len(self.conv_blocks)} pooling stages"
                )


@dataclass
class TrainConfig:
    loss: str = "bce_logit"
    optimizer: str = "adam"
    learning_rate: float = 1e-4
    batch_size: int = 4
    epochs: int = 25
    freeze_layers: list[str] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSS_NAMES:
            raise ConfigError(f"loss must be one of {LOSS_NAMES}, got {self.loss!r}")
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ConfigError(f"optimizer must be one of {OPTIMIZER_NAMES}")
        # learning_rate 0 is allowed on purpose: it is the canonical
        # "all layers static" fixture for the diagnostics. It must be finite
        # in float32, or lr * 0 would move frozen layers to nan.
        if not 0 <= self.learning_rate <= _FLOAT32_MAX:
            raise ConfigError("learning_rate must be >= 0 and finite in float32")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        self.freeze_layers = list(self.freeze_layers)
