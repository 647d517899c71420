"""Pipeline configuration: one strict JSON document.

Each section, a field of ``PipelineConfig``, is the dataclass its stage
takes, so each key's type, default and rule is written once, in that class.
``train`` is ``TrainSection``, i.e. nn.NetConfig + nn.TrainConfig.

Unknown sections or keys are rejected so typos cannot silently fall back to
defaults. The classes check their own values with ``jsonio.check`` and raise
ConfigError, also when called from Python: each value's type against its field
hint, then the class's rules, which state only ranges and allowed values.
``seed`` keys exist only in ``seeds``: the classes that carry a seed get it
from there, and a section that names one is rejected.
Every seed is an explicit integer with a fixed default; nothing is ever
derived from the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .diagnostics import DiagnosticThresholds
from .errors import ConfigError
from .forest import ForestConfig
from .jsonio import check, read_json
from .nn.config import NetConfig, TrainConfig
from .volume import PhantomSpec


@dataclass
class ExtractionSection:
    n_bins: int = 32
    distance: int = 1
    alpha: int = 0

    def __post_init__(self):
        check("extraction", self, [
            ("n_bins", lambda n: 1 <= n <= 2 ** 31 - 1, "in [1, 2**31 - 1] (int32 levels)"),
            ("distance", lambda d: d >= 1, ">= 1"),
            ("alpha", lambda a: a >= 0, ">= 0"),
        ])


@dataclass
class FilterSection:
    alpha: float = 0.05

    def __post_init__(self):
        check("filter", self, [("alpha", lambda a: a >= 0, ">= 0")])


@dataclass
class RfeSection:
    k_folds: int = 5
    rerank: bool = False

    def __post_init__(self):
        check("rfe", self, [("k_folds", lambda k: k >= 2, ">= 2")])


@dataclass
class ClusterSection:
    k: int = 3

    def __post_init__(self):
        check("cluster", self, [("k", lambda k: k >= 1, ">= 1")])


@dataclass
class TrainSection(NetConfig, TrainConfig):
    """Both configs of the train stage in one section; pass it as either."""

    def __post_init__(self):
        NetConfig.__post_init__(self)
        TrainConfig.__post_init__(self)
        check("train", self, [
            ("freeze_layers", lambda f: set(f) <= set(self.layer_names),
             f"layer names from {self.layer_names}"),
        ])


@dataclass
class SeedsSection:
    phantom: int = 1
    forest: int = 2
    rfe: int = 3
    train: int = 4
    net: int = 5
    kfold: int = 6

    def __post_init__(self):
        check("seeds", self, [(f.name, lambda s: s >= 0, ">= 0") for f in fields(self)])


@dataclass
class PipelineConfig:
    phantom: PhantomSpec = field(default_factory=PhantomSpec)
    extraction: ExtractionSection = field(default_factory=ExtractionSection)
    filter: FilterSection = field(default_factory=FilterSection)
    forest: ForestConfig = field(default_factory=ForestConfig)
    rfe: RfeSection = field(default_factory=RfeSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    train: TrainSection = field(default_factory=TrainSection)
    diagnose: DiagnosticThresholds = field(default_factory=DiagnosticThresholds)
    seeds: SeedsSection = field(default_factory=SeedsSection)


_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)}  # name -> class


def _build_section(name: str, cls, doc):
    if not isinstance(doc, dict):
        raise ConfigError(f"section {name!r} must be a JSON object, got {doc!r}")
    allowed = {f.name for f in fields(cls)} - {"seed"}  # seeds live in "seeds"
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in section {name!r}: {sorted(unknown)}")
    return cls(**doc)


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
        doc = read_json(path, error=ConfigError)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config(doc)


def default_config() -> PipelineConfig:
    return PipelineConfig()
