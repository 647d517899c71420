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
from .nn.config import LOSS_NAMES, OPTIMIZER_NAMES


def _is_int(value, minimum: int) -> bool:
    """An int >= minimum; bools are ints to Python but not integers here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _is_count(value) -> bool:
    return _is_int(value, 1)


def _is_nonnegative_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 <= value < float("inf"))


def _is_finite_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) < float("inf"))


def _is_count_list(value) -> bool:
    return isinstance(value, list) and all(_is_count(v) for v in value)


def _check(section: str, obj, rules) -> None:
    """Raise ConfigError for the first (key, test, expectation) a value fails."""
    for key, test, expected in rules:
        value = getattr(obj, key)
        if not test(value):
            raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")


@dataclass
class PhantomSection:
    n_samples_per_class: int = 20
    dims: tuple[int, int, int] = (16, 16, 16)
    texture_amplitude: float = 2.0
    noise_sigma: float = 0.1
    modality: str = "SYN"

    def __post_init__(self):
        _check("phantom", self, [
            ("n_samples_per_class", _is_count, "an integer >= 1"),
            ("dims", lambda d: (isinstance(d, tuple) and len(d) == 3
                              and all(_is_int(n, 8) for n in d)),
             "3 integers >= 8"),
            ("texture_amplitude", _is_nonnegative_real, "a finite number >= 0"),
            ("noise_sigma", _is_nonnegative_real, "a finite number >= 0"),
            ("modality", lambda m: isinstance(m, str) and m != "", "a non-empty string"),
        ])


@dataclass
class ExtractionSection:
    n_bins: int = 32
    distance: int = 1
    alpha: int = 0

    def __post_init__(self):
        _check("extraction", self, [
            ("n_bins", _is_count, "an integer >= 1"),
            ("distance", _is_count, "an integer >= 1"),
            ("alpha", lambda a: _is_int(a, 0), "an integer >= 0"),
        ])


@dataclass
class FilterSection:
    alpha: float = 0.05

    def __post_init__(self):
        _check("filter", self, [("alpha", _is_nonnegative_real, "a finite number >= 0")])


@dataclass
class ForestSection:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: str | int = "sqrt"
    bootstrap: bool = True

    def __post_init__(self):
        _check("forest", self, [
            ("n_trees", _is_count, "an integer >= 1"),
            ("min_samples_leaf", _is_count, "an integer >= 1"),
            ("max_depth", lambda d: d is None or _is_count(d),
             "null or an integer >= 1"),
            ("features_per_split", lambda f: f == "sqrt" or _is_count(f),
             "\"sqrt\" or an integer >= 1"),
            ("bootstrap", lambda b: isinstance(b, bool), "true or false"),
        ])


@dataclass
class RfeSection:
    k_folds: int = 5
    rerank: bool = False

    def __post_init__(self):
        _check("rfe", self, [
            ("k_folds", lambda k: _is_int(k, 2), "an integer >= 2"),
            ("rerank", lambda r: isinstance(r, bool), "true or false"),
        ])


@dataclass
class ClusterSection:
    k: int = 3

    def __post_init__(self):
        _check("cluster", self, [("k", _is_count, "an integer >= 1")])


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

    def __post_init__(self):
        _check("train", self, [
            ("input_dims", lambda d: (isinstance(d, tuple) and len(d) == 2
                                    and all(_is_count(n) for n in d)),
             "2 integers >= 1"),
            ("conv_blocks", _is_count_list, "a list of integers >= 1"),
            ("hidden_dense", _is_count_list, "a list of integers >= 1"),
            ("loss", lambda v: v in LOSS_NAMES, f"one of {list(LOSS_NAMES)}"),
            ("optimizer", lambda v: v in OPTIMIZER_NAMES, f"one of {list(OPTIMIZER_NAMES)}"),
            ("learning_rate", _is_nonnegative_real, "a finite number >= 0"),
            ("batch_size", _is_count, "an integer >= 1"),
            ("epochs", _is_count, "an integer >= 1"),
            ("freeze_layers", lambda f: (isinstance(f, list)
                                         and all(isinstance(n, str) for n in f)),
             "a list of strings"),
        ])


@dataclass
class DiagnoseSection:
    static_rel_tol: float = 1e-4
    dead_abs_tol: float = 1e-10
    dead_epoch_quorum: float = 0.9
    flip_corr_thresh: float = -0.5
    flip_amp_thresh: float = 0.3
    static_layer_quorum: float = 0.5

    def __post_init__(self):
        _check("diagnose", self, [(f.name, _is_finite_real, "a finite number")
                                  for f in fields(self)])


@dataclass
class SeedsSection:
    phantom: int = 1
    forest: int = 2
    rfe: int = 3
    train: int = 4
    net: int = 5
    kfold: int = 6

    def __post_init__(self):
        _check("seeds", self, [(f.name, lambda s: _is_int(s, 0), "an integer >= 0")
                               for f in fields(self)])


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
            if not isinstance(value, list):
                raise ConfigError(f"{name}.{key} must be a list, got {value!r}")
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
