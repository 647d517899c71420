"""Named feature row shared by every extraction family."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataValidationError


@dataclass
class FeatureVector:
    """Ordered (name, value) pairs for one sample; names are 'family.feature'."""

    names: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.names = list(self.names)
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if len(self.names) != self.values.size:
            raise DataValidationError("feature names and values have different lengths")
        if len(set(self.names)) != len(self.names):
            raise DataValidationError("duplicate feature names in vector")
        if not np.all(np.isfinite(self.values)):
            bad = [n for n, v in zip(self.names, self.values) if not np.isfinite(v)]
            raise DataValidationError(f"non-finite feature values: {bad}")

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, name: str) -> float:
        try:
            return float(self.values[self.names.index(name)])
        except ValueError:
            raise KeyError(name) from None


def family_vector(family: str, names, values) -> FeatureVector:
    """One family's vector: ``names[i]`` becomes ``family.names[i]`` with ``values[i]``."""
    return FeatureVector(names=[f"{family}.{n}" for n in names], values=values)


def concat(vectors) -> FeatureVector:
    names: list[str] = []
    parts = []
    for vec in vectors:
        names.extend(vec.names)
        parts.append(vec.values)
    return FeatureVector(names=names, values=np.concatenate(parts))
