"""Sample-by-feature table, the currency between extraction and selection.

CSV layout: header ``sample_id,label,<feature names...>``; labels are 0/1;
values must be finite and are written with Python's shortest round-trip
float representation so write/read is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .jsonio import read_csv, write_csv


@dataclass
class FeatureTable:
    sample_ids: list[str]
    feature_names: list[str]
    values: np.ndarray  # (n_samples, n_features)
    labels: np.ndarray  # (n_samples,) of 0/1

    def __post_init__(self):
        self.sample_ids = list(self.sample_ids)
        self.feature_names = list(self.feature_names)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.values.ndim != 2:
            raise DataValidationError("values must be a 2D samples-by-features array")
        n, f = self.values.shape
        if len(self.sample_ids) != n or self.labels.size != n:
            raise DataValidationError("sample_ids, labels and value rows must align")
        if len(self.feature_names) != f:
            raise DataValidationError("feature_names must match value columns")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataValidationError("duplicate feature names")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise DataValidationError("labels must be 0 or 1")
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
            i, j = bad[0]
            raise DataValidationError(
                f"non-finite value {self.values[i, j]} for feature "
                f"{self.feature_names[j]!r} of sample {self.sample_ids[i]!r}")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.values[:, self.feature_names.index(name)]
        except ValueError:
            raise DataValidationError(f"no such feature in the table: {name!r}") from None

    def select(self, names) -> "FeatureTable":
        names = list(names)
        column = {name: j for j, name in enumerate(self.feature_names)}
        missing = [n for n in names if not isinstance(n, str) or n not in column]
        if missing:
            raise DataValidationError(f"no such feature(s) in the table: {missing}")
        idx = [column[n] for n in names]
        return FeatureTable(sample_ids=self.sample_ids, feature_names=names,
                            values=self.values[:, idx], labels=self.labels)

    def class_split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        col = self.column(name)
        return col[self.labels == 0], col[self.labels == 1]


def from_rows(sample_ids, labels, vectors) -> FeatureTable:
    """Assemble a table from per-sample FeatureVectors with identical names."""
    vectors = list(vectors)
    if not vectors:
        raise DataValidationError("no feature vectors given")
    names = vectors[0].names
    for vec in vectors[1:]:
        if vec.names != names:
            raise DataValidationError("feature vectors disagree on names/order")
    values = np.stack([vec.values for vec in vectors])
    return FeatureTable(sample_ids=list(sample_ids), feature_names=list(names),
                        values=values, labels=np.asarray(labels))


def write_feature_table(t: FeatureTable, path) -> None:
    write_csv(path, itertools.chain(
        [["sample_id", "label"] + t.feature_names],
        ([sid, int(label)] + [repr(float(v)) for v in row]
         for sid, label, row in zip(t.sample_ids, t.labels, t.values))))


def read_feature_table(path) -> FeatureTable:
    lines = read_csv(path)
    if not lines:
        raise DataValidationError(f"{path}: empty feature table")
    header = lines[0]
    if header[:2] != ["sample_id", "label"]:
        raise DataValidationError(f"{path}: header must start with sample_id,label")
    names = header[2:]
    if len(set(names)) != len(names):
        raise DataValidationError(f"{path}: duplicate feature column names")
    ids: list[str] = []
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(lines[1:], start=2):
        if len(row) != len(header):
            raise DataValidationError(f"{path}:{lineno}: ragged row")
        ids.append(row[0])
        if row[1] not in ("0", "1"):
            raise DataValidationError(f"{path}:{lineno}: label must be 0 or 1, got {row[1]!r}")
        labels.append(int(row[1]))
        try:
            rows.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise DataValidationError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataValidationError(f"{path}: table has no rows")
    return FeatureTable(sample_ids=ids, feature_names=names,
                        values=np.array(rows), labels=np.array(labels))
