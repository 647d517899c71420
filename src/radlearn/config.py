"""Pipeline configuration: one strict JSON document.

Sections: phantom, extraction, filter, forest, rfe, cluster, train, diagnose,
seeds. Unknown sections or keys are rejected so typos cannot silently fall
back to defaults. Every seed is an explicit integer with a fixed default;
nothing is ever derived from the clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .errors import ConfigError


@dataclass
class PhantomSection:
    n_samples_per_class: int = 20
    dims: tuple[int, int, int] = (16, 16, 16)
    texture_amplitude: float = 2.0
    noise_sigma: float = 0.1
    modality: str = "SYN"


@dataclass
class ExtractionSection:
    n_bins: int = 32
    distance: int = 1
    alpha: int = 0


@dataclass
class FilterSection:
    alpha: float = 0.05


def _is_count(value) -> bool:
    """An int >= 1; bools are ints to Python but not counts here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass
class ForestSection:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: str | int = "sqrt"
    bootstrap: bool = True

    def __post_init__(self):
        for key in ("n_trees", "min_samples_leaf"):
            if not _is_count(getattr(self, key)):
                raise ConfigError(f"forest.{key} must be an integer >= 1, "
                                  f"got {getattr(self, key)!r}")
        if self.max_depth is not None and not _is_count(self.max_depth):
            raise ConfigError(f"forest.max_depth must be null or an integer >= 1, "
                              f"got {self.max_depth!r}")
        if self.features_per_split != "sqrt" and not _is_count(self.features_per_split):
            raise ConfigError(f"forest.features_per_split must be \"sqrt\" or an integer "
                              f">= 1, got {self.features_per_split!r}")
        if not isinstance(self.bootstrap, bool):
            raise ConfigError(f"forest.bootstrap must be true or false, "
                              f"got {self.bootstrap!r}")


@dataclass
class RfeSection:
    k_folds: int = 5
    rerank: bool = False


@dataclass
class ClusterSection:
    k: int = 3


@dataclass
class TrainSection:
    input_dims: tuple[int, int] = (16, 16)
    conv_blocks: list[int] = field(default_factory=lambda: [4])
    hidden_dense: list[int] = field(default_factory=lambda: [16])
    loss: str = "bce_logit"
    optimizer: str = "adam"
    learning_rate: float = 1e-4
    batch_size: int = 4
    epochs: int = 25
    freeze_layers: list[str] = field(default_factory=list)


@dataclass
class DiagnoseSection:
    static_rel_tol: float = 1e-4
    dead_abs_tol: float = 1e-10
    dead_epoch_quorum: float = 0.9
    flip_corr_thresh: float = -0.5
    flip_amp_thresh: float = 0.3
    static_layer_quorum: float = 0.5


@dataclass
class SeedsSection:
    phantom: int = 1
    forest: int = 2
    rfe: int = 3
    train: int = 4
    net: int = 5
    kfold: int = 6


@dataclass
class PipelineConfig:
    phantom: PhantomSection = field(default_factory=PhantomSection)
    extraction: ExtractionSection = field(default_factory=ExtractionSection)
    filter: FilterSection = field(default_factory=FilterSection)
    forest: ForestSection = field(default_factory=ForestSection)
    rfe: RfeSection = field(default_factory=RfeSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    train: TrainSection = field(default_factory=TrainSection)
    diagnose: DiagnoseSection = field(default_factory=DiagnoseSection)
    seeds: SeedsSection = field(default_factory=SeedsSection)

    def override_seeds(self, seed: int) -> None:
        for f in fields(self.seeds):
            setattr(self.seeds, f.name, seed)


_SECTIONS = {
    "phantom": PhantomSection,
    "extraction": ExtractionSection,
    "filter": FilterSection,
    "forest": ForestSection,
    "rfe": RfeSection,
    "cluster": ClusterSection,
    "train": TrainSection,
    "diagnose": DiagnoseSection,
    "seeds": SeedsSection,
}

_TUPLE_KEYS = {("phantom", "dims"), ("train", "input_dims")}


def _build_section(name: str, cls, doc: dict):
    allowed = {f.name for f in fields(cls)}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in section {name!r}: {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        if (name, key) in _TUPLE_KEYS:
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value in section {name!r}: {exc}") from exc


def parse_config(doc: dict) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    kwargs = {
        name: _build_section(name, cls, doc.get(name, {}))
        for name, cls in _SECTIONS.items()
    }
    return PipelineConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    try:
        with open(str(path), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def default_config() -> PipelineConfig:
    return PipelineConfig()
