"""The benchmark's workloads: what each runs, why, and how its outputs are checked.

Each workload is a fixed sequence of calls into radlearn, run once per
repetition in a fresh child process (see ``child.py``). Its config is made
from the benchmark seed alone, so the same seed gives the same inputs, and
the program sees only that config and the files it generates from it.

The checks read the artifacts with the standard library only, so they do not
trust the code under test to judge its own output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

N_FEATURES = 94
DIAGNOSIS_VERDICTS = ("learnable", "unlearnable", "inconclusive")


def derive_seed(seed: int, tag: str) -> int:
    """A 31-bit config seed from the benchmark seed and a fixed tag."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _seeds(seed: int) -> dict:
    return {tag: derive_seed(seed, tag)
            for tag in ("phantom", "forest", "rfe", "train", "net", "kfold")}


# --- what the child runs ---------------------------------------------------


def _run_pipeline(ctx) -> None:
    ctx.stage("phantom")
    ctx.stage("extract", "phantom/manifest.csv")
    ctx.stage("filter", "extract/features.csv")
    ctx.stage("rfe", "extract/features.csv")
    # the full-table form: at the default config the RFE-trace form exits 2
    # because the best subset can hold a single feature
    ctx.stage("cluster", "extract/features.csv")
    ctx.stage("train", "phantom/manifest.csv")
    ctx.stage("diagnose", "train/train_trace.json")
    ctx.stage("report", "extract/features.csv", "rfe/rfe_trace.json")


def _run_extract(ctx) -> None:
    ctx.stage("phantom")
    ctx.stage("extract", "phantom/manifest.csv")
    ctx.stage("filter", "extract/features.csv")


LEARNABILITY_CASES = (
    # (case, phantom texture, uses the configured learning rate, frozen, init)
    ("healthy", "textured", True, (), None),
    ("zero_lr", "textured", False, (), None),
    ("no_visible_cue", "cueless", True, (), None),
    ("transfer_frozen_conv1", "textured", True, ("conv1",), "healthy"),
)


def _run_learnability(ctx) -> None:
    import numpy as np

    import radlearn.diagnostics as diagnostics
    import radlearn.nn as nn
    import radlearn.volume as volume

    cfg = ctx.cfg

    def slices(amplitude):
        spec = volume.PhantomSpec(
            n_samples_per_class=cfg.phantom.n_samples_per_class,
            dims=cfg.phantom.dims, texture_amplitude=amplitude,
            noise_sigma=cfg.phantom.noise_sigma, seed=cfg.seeds.phantom)
        samples = volume.generate_phantom(spec)
        images = np.stack([v.as_zyx()[volume.roi_slice_index(m)] for v, m, _ in samples])
        return images, np.array([label for _, _, label in samples])

    data = {
        "textured": ctx.op("phantom.textured", slices, cfg.phantom.texture_amplitude),
        "cueless": ctx.op("phantom.cueless", slices, 0.0),
    }
    net_cfg = nn.NetConfig(input_dims=cfg.train.input_dims,
                           conv_blocks=cfg.train.conv_blocks,
                           hidden_dense=cfg.train.hidden_dense, seed=cfg.seeds.net)
    for case, texture, learns, frozen, init_from in LEARNABILITY_CASES:
        out = os.path.join(ctx.out_dir, case)
        os.makedirs(out)
        init = None
        if init_from is not None:
            init = ctx.op(f"{case}.load_checkpoint", nn.load_checkpoint,
                          os.path.join(ctx.out_dir, init_from, "model"))
        train_cfg = nn.TrainConfig(
            loss=cfg.train.loss, optimizer=cfg.train.optimizer,
            learning_rate=cfg.train.learning_rate if learns else 0.0,
            batch_size=cfg.train.batch_size, epochs=cfg.train.epochs,
            freeze_layers=list(frozen), seed=cfg.seeds.train)
        images, labels = data[texture]
        network, trace = ctx.op(f"{case}.train", nn.train, images, labels,
                                net_cfg, train_cfg, init=init)
        ctx.op(f"{case}.save_checkpoint", nn.save_checkpoint,
               nn.checkpoint_from_network(network), os.path.join(out, "model"))
        trace_path = os.path.join(out, "train_trace.json")
        ctx.op(f"{case}.save_trace", nn.save_trace, trace, trace_path)
        reloaded = ctx.op(f"{case}.load_trace", nn.load_trace, trace_path)
        report = ctx.op(f"{case}.diagnose", diagnostics.diagnose, reloaded)
        ctx.op(f"{case}.save_report", diagnostics.save_report, report,
               os.path.join(out, "diagnosis.json"))


# --- output checks (standard library only) ----------------------------------


def check_features(rep_dir: str) -> str | None:
    """features.csv has 94 finite features on every row."""
    path = os.path.join(rep_dir, "extract", "features.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        return "features.csv has no data rows"
    if len(rows[0]) != 2 + N_FEATURES:
        return f"features.csv header has {len(rows[0]) - 2} features, expected {N_FEATURES}"
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2 + N_FEATURES:
            return f"features.csv:{lineno}: {len(row) - 2} features"
        try:
            values = [float(cell) for cell in row[2:]]
        except ValueError as exc:
            return f"features.csv:{lineno}: {exc}"
        if not all(math.isfinite(v) for v in values):
            return f"features.csv:{lineno}: non-finite feature value"
    return None


def check_rfe_trace(rep_dir: str) -> str | None:
    """One elimination step per feature, ending at the empty subset."""
    with open(os.path.join(rep_dir, "rfe", "rfe_trace.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    n = len(doc["initial_ranking"])
    steps = doc["steps"]
    if n != N_FEATURES or len(steps) != n:
        return f"rfe trace has {len(steps)} steps for {n} features, expected {N_FEATURES}"
    sizes = [len(step["subset"]) for step in steps]
    if sizes != list(range(n - 1, -1, -1)):
        return "rfe trace subsets do not shrink by one feature per step to empty"
    return None


def check_report(rep_dir: str) -> str | None:
    """Every report metric lies in [0, 1]."""
    with open(os.path.join(rep_dir, "report", "report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for side in ("all_features", "top_features"):
        metrics = doc[side]["metrics"]
        if set(metrics) != set(doc["rows"]):
            return f"report {side} metrics {sorted(metrics)} != rows {doc['rows']}"
        for name, value in metrics.items():
            if not 0.0 <= value <= 1.0:
                return f"report {side} {name} = {value} outside [0, 1]"
    return None


def check_zero_lr_unlearnable(rep_dir: str) -> str | None:
    """lr=0 leaves every weight static, which diagnoses unlearnable for any seed."""
    verdicts = {}
    for case, *_ in LEARNABILITY_CASES:
        with open(os.path.join(rep_dir, case, "diagnosis.json"), encoding="utf-8") as fh:
            verdicts[case] = json.load(fh)["verdict"]
    if any(v not in DIAGNOSIS_VERDICTS for v in verdicts.values()):
        return f"unknown verdict among {verdicts}"
    if verdicts["zero_lr"] != "unlearnable":
        return f"zero_lr case diagnosed {verdicts['zero_lr']!r}, expected 'unlearnable'"
    return None


# --- the workloads ----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int], dict]  # benchmark seed -> radlearn config document
    run: Callable  # (child context) -> None, in the child process
    checks: tuple = ()  # functions of the repetition directory: None or a failure


WORKLOADS = {w.name: w for w in (
    Workload(
        "pipeline-default",
        "the paper's headline loop: all 8 CLI stages at the default config; "
        "forest and rfe do ~90% of the work on a 32x94 table",
        lambda seed: {"seeds": _seeds(seed)},
        _run_pipeline,
        (check_features, check_rfe_trace, check_report),
    ),
    Workload(
        "extract-96",
        "phantom, extract and filter on 3+3 volumes of 96^3: features and "
        "volume I/O do the work, at the large end of volume size",
        lambda seed: {"phantom": {"n_samples_per_class": 3, "dims": [96, 96, 96]},
                      "seeds": _seeds(seed)},
        _run_extract,
        (check_features,),
    ),
    Workload(
        "learnability",
        "the learnability demo cases plus a frozen-conv1 fine-tune from a "
        "checkpoint: nn training, trace I/O and diagnose do the work",
        lambda seed: {"phantom": {"n_samples_per_class": 50, "dims": [16, 16, 16]},
                      "train": {"learning_rate": 1e-3, "epochs": 40},
                      "seeds": _seeds(seed)},
        _run_learnability,
        (check_zero_lr_unlearnable,),
    ),
)}
