"""Command-line interface: one subcommand per pipeline stage.

Every subcommand is a deterministic function of (config, input files); file
outputs are byte-stable across reruns with fixed seeds. Exit codes: 0 ok,
1 usage/config error, 2 data/validation error, 3 numeric failure.

Each stage reads the ``--in`` files that ``_COMMANDS`` declares, in that order
(a missing or surplus file exits 1), and writes the artifacts its ``cmd_*``
names.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import cluster as cluster_mod
from . import diagnostics
from . import rfe as rfe_mod
from . import stats
from . import table as table_mod
from .config import PipelineConfig, SeedsSection, default_config, load_config
from .errors import ConfigError, DataValidationError, NumericFailure
from .features import extract_all
from .jsonio import read_csv, write_csv, write_json
from .metrics import auroc, confusion, metrics, stratified_kfold
from .nn import checkpoint_from_network, save_checkpoint, train
from .nn import trace as nn_trace
from .volume import (
    iter_phantom,
    load_mask,
    load_volume,
    roi_slice_index,
    save_mask,
    save_volume,
)

MANIFEST_HEADER = ["sample_id", "label", "path_base", "modality"]


# --- subcommands -----------------------------------------------------------


def cmd_phantom(cfg: PipelineConfig, in_paths, out_dir) -> None:
    # each sample is written as it is drawn, so the stage holds one, not the cohort
    spec = replace(cfg.phantom, seed=cfg.seeds.phantom)
    rows = {0: [], 1: []}
    for index, label, volume, mask in iter_phantom(spec):
        sample_id = f"{spec.modality}_c{label}_s{index:03d}"
        base = os.path.join(out_dir, sample_id)
        save_volume(volume, base)
        save_mask(mask, base)
        # manifest paths are relative to the manifest itself
        rows[label].append([sample_id, label, sample_id, spec.modality])
    write_csv(os.path.join(out_dir, "manifest.csv"), [MANIFEST_HEADER, *rows[0], *rows[1]])


def _read_manifest(path):
    root = os.path.dirname(os.path.abspath(str(path)))
    entries = []
    lines = read_csv(path)
    header = lines[0] if lines else None
    if header != MANIFEST_HEADER:
        raise DataValidationError(f"{path}: bad manifest header {header}")
    for lineno, row in enumerate(lines[1:], start=2):
        if len(row) != len(MANIFEST_HEADER):
            raise DataValidationError(f"{path}:{lineno}: ragged manifest row")
        if row[1] not in ("0", "1"):
            raise DataValidationError(f"{path}:{lineno}: label must be 0 or 1")
        entries.append((row[0], int(row[1]), os.path.join(root, row[2])))
    if not entries:
        raise DataValidationError(f"{path}: manifest has no samples")
    return entries


def _samples(path):
    """(sample_id, label, volume, mask) for each row of a manifest, loaded in turn.
    The next row loads after this drops the last one, so a caller that drops it
    too holds one sample at a time."""
    for sample_id, label, base in _read_manifest(path):
        volume = load_volume(base)
        yield sample_id, label, volume, load_mask(base, volume.dims)
        del volume


def cmd_extract(cfg: PipelineConfig, in_paths, out_dir) -> None:
    ids, labels, vectors = [], [], []
    for sample_id, label, volume, mask in _samples(in_paths[0]):
        vectors.append(extract_all(
            volume, mask,
            n_bins=cfg.extraction.n_bins,
            distance=cfg.extraction.distance,
            alpha=cfg.extraction.alpha,
        ))
        del volume, mask  # so that no volume but the next is alive while it loads
        ids.append(sample_id)
        labels.append(label)
    table = table_mod.from_rows(ids, labels, vectors)
    table_mod.write_feature_table(table, os.path.join(out_dir, "features.csv"))


def cmd_filter(cfg: PipelineConfig, in_paths, out_dir) -> None:
    table = table_mod.read_feature_table(in_paths[0])
    report = stats.filter_significant(table, alpha=cfg.filter.alpha)
    write_json(report, os.path.join(out_dir, "significance.json"))


def cmd_rfe(cfg: PipelineConfig, in_paths, out_dir) -> None:
    table = table_mod.read_feature_table(in_paths[0])
    if len(in_paths) > 1:
        keep = stats.load_report(in_paths[1]).significant_names()
        if not keep:
            raise DataValidationError("significance report marks no feature significant")
        table = table.select(keep)
    trace = rfe_mod.rfe_cv(table, replace(cfg.forest, seed=cfg.seeds.forest),
                           k_folds=cfg.rfe.k_folds, seed=cfg.seeds.rfe,
                           rerank=cfg.rfe.rerank)
    rfe_mod.save_trace(trace, os.path.join(out_dir, "rfe_trace.json"))
    rfe_mod.write_accuracy_curve(trace, os.path.join(out_dir, "rfe_curve.csv"))


def cmd_cluster(cfg: PipelineConfig, in_paths, out_dir) -> None:
    table = table_mod.read_feature_table(in_paths[0])
    if len(in_paths) > 1:
        trace = rfe_mod.load_trace(in_paths[1])
        names, _ = rfe_mod.select_best(trace)
        if len(names) < 2:
            raise DataValidationError(
                f"best subset has {len(names)} feature(s); clustering needs >= 2")
    else:
        names = list(table.feature_names)
    distances = cluster_mod.correlation_distance_matrix(table.select(names), names)
    dendrogram = cluster_mod.agglomerate(distances, names)
    cluster_mod.save_dendrogram(dendrogram, os.path.join(out_dir, "dendrogram.json"))
    k = min(cfg.cluster.k, len(names))
    write_json({"k": k, "clusters": cluster_mod.cut(dendrogram, k)},
               os.path.join(out_dir, "clusters.json"))


def _slices_from_manifest(path):
    ids, images, labels = [], [], []
    for sample_id, label, volume, mask in _samples(path):
        # a copy, not a view, so that no volume but the next is alive while it loads
        image = volume.as_zyx()[roi_slice_index(mask)].copy()
        del volume, mask
        if images and image.shape != images[0].shape:
            raise DataValidationError(
                f"sample {sample_id}: slice shape {image.shape} differs from "
                f"{images[0].shape} of sample {ids[0]}")
        ids.append(sample_id)
        images.append(image)
        labels.append(label)
    return np.stack(images), np.array(labels)


def cmd_train(cfg: PipelineConfig, in_paths, out_dir) -> None:
    images, labels = _slices_from_manifest(in_paths[0])
    # the train section is both configs; each takes its own seed
    network, trace = train(images, labels, replace(cfg.train, seed=cfg.seeds.net),
                           replace(cfg.train, seed=cfg.seeds.train))
    save_checkpoint(checkpoint_from_network(network), os.path.join(out_dir, "model"))
    nn_trace.save_trace(trace, os.path.join(out_dir, "train_trace.json"))
    cols = [f.name for f in fields(nn_trace.MetricRecord)]
    write_csv(os.path.join(out_dir, "train_metrics.csv"),
              [["epoch", *("train_" + c for c in cols), *("val_" + c for c in cols)]]
              + [[i, *(repr(getattr(m, c)) for m in (e.train, e.validation) for c in cols)]
                 for i, e in enumerate(trace.epochs)])


def cmd_diagnose(cfg: PipelineConfig, in_paths, out_dir) -> None:
    trace = nn_trace.load_trace(in_paths[0])
    report = diagnostics.diagnose(trace, cfg.diagnose)
    diagnostics.save_report(report, os.path.join(out_dir, "diagnosis.json"))
    # plot-ready per-epoch weight/gradient histogram series
    write_csv(os.path.join(out_dir, "gradient_flow.csv"), itertools.chain(
        [["epoch", "layer", "kind", "bin", "count", "lo", "hi"]],
        ([e, layer, kind, b, count, repr(hist.lo), repr(hist.hi)]
         for e, epoch in enumerate(trace.epochs) for layer in trace.layer_names
         for kind, hist in (("weight", epoch.layers[layer].weight_hist),
                            ("gradient", epoch.layers[layer].grad_hist))
         for b, count in enumerate(hist.counts))))


def _metric_rows(table, probas, preds) -> dict[str, float]:
    m = metrics(confusion(preds, table.labels))
    return {
        "Accuracy": m["accuracy"],
        "F1-Score": m["f1"],
        "AUROC": auroc(probas, table.labels),
        "Precision": m["precision"],
        "Recall": m["recall"],
    }


def cmd_report(cfg: PipelineConfig, in_paths, out_dir) -> None:
    table = table_mod.read_feature_table(in_paths[0])
    trace = rfe_mod.load_trace(in_paths[1])
    top_names, top_cv_accuracy = rfe_mod.select_best(trace)
    ranked = set(trace.initial_ranking)
    all_names = [n for n in table.feature_names if n in ranked]
    if not all_names:
        raise DataValidationError("trace features not present in the table")

    split = stratified_kfold(table.labels, cfg.rfe.k_folds, seed=cfg.seeds.kfold)
    all_scores = _metric_rows(table, *rfe_mod.cv_predictions(
        table, all_names, cfg.forest, split, cfg.seeds.forest, tag=0))
    top_scores = _metric_rows(table, *rfe_mod.cv_predictions(
        table, top_names, cfg.forest, split, cfg.seeds.forest, tag=1))

    doc = {
        "rows": list(all_scores),
        "all_features": {"names": all_names, "metrics": all_scores},
        "top_features": {"names": list(top_names), "metrics": top_scores,
                         "rfe_cv_accuracy": top_cv_accuracy},
    }
    write_json(doc, os.path.join(out_dir, "report.json"))
    write_csv(os.path.join(out_dir, "report.csv"),
              [["metric", "all_features", "top_features"]]
              + [[row, repr(all_scores[row]), repr(top_scores[row])] for row in all_scores])


# stage -> (function, the --in files it requires, an optional trailing one or None)
_COMMANDS = {
    "phantom": (cmd_phantom, [], None),
    "extract": (cmd_extract, ["manifest.csv"], None),
    "filter": (cmd_filter, ["features.csv"], None),
    "rfe": (cmd_rfe, ["features.csv"], "significance.json"),
    "cluster": (cmd_cluster, ["features.csv"], "rfe_trace.json"),
    "train": (cmd_train, ["manifest.csv"], None),
    "diagnose": (cmd_diagnose, ["train_trace.json"], None),
    "report": (cmd_report, ["features.csv", "rfe_trace.json"], None),
}


def _inputs_usage(stage) -> str:
    _, required, optional = _COMMANDS[stage]
    return " ".join(required + ([f"[{optional}]"] if optional else [])) or "no files"


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse default is 2, reserved here for data errors)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radlearn",
                     description="radiomics + learnability pipeline stages")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="pipeline config JSON")
        p.add_argument("--in", dest="in_paths", nargs="+", action="extend", default=None,
                       help=f"{_inputs_usage(name)} from earlier stages; may be repeated")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg.seeds = SeedsSection(**{f.name: args.seed for f in fields(SeedsSection)})
        run, required, optional = _COMMANDS[args.command]
        got = len(args.in_paths or ())
        if not len(required) <= got <= len(required) + bool(optional):
            raise ConfigError(f"{args.command} takes {_inputs_usage(args.command)} via --in, "
                              f"got {got} file(s)")
        os.makedirs(args.out, exist_ok=True)
        run(cfg, args.in_paths, args.out)
        return 0
    except ConfigError as exc:
        print(f"radlearn: config error: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"radlearn: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataValidationError, OSError) as exc:
        print(f"radlearn: data error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as exc:
        # numpy reports an array whose size it cannot describe as a ValueError
        if not isinstance(exc, MemoryError) and not str(exc).startswith(
                ("array is too big", "Maximum allowed dimension exceeded")):
            raise
        print(f"radlearn: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
