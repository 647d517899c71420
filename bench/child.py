"""One repetition of one workload, in a fresh process.

    python3 bench/child.py --root DIR --config CFG --result OUT.json
        [--workload NAME --out-dir DIR [--trace]]

Without ``--workload`` the child only sets up: it imports ``radlearn.cli``
and parses the config, which is the cost every CLI stage pays before it
works. With it, the child then runs the workload's calls and records each
as an operation. ``--trace`` wraps radlearn's public functions in spans
(see ``SPAN_FUNCTIONS``), after set-up so that set-up is not traced.

The result file holds the monotonic clock reading when set-up finished,
the workload's wall time, the peak resident set size, the operations, and
for traced runs the spans and counters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


class WorkloadAborted(Exception):
    """An operation failed; the calls after it depend on its output."""


class Context:
    """What a workload's ``run`` function gets: config, output dir, operations."""

    def __init__(self, cfg, config_path, out_dir, tracer):
        self.cfg = cfg
        self.config_path = config_path
        self.out_dir = out_dir
        self.tracer = tracer
        self.ops: list[dict] = []

    def _record(self, name, ok, detail=""):
        self.ops.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            raise WorkloadAborted(name)

    def stage(self, stage, *inputs):
        """Run one CLI stage through ``radlearn.cli.main``; it must exit 0."""
        import radlearn.cli as cli

        argv = [stage, "--config", self.config_path,
                "--out", os.path.join(self.out_dir, stage)]
        if inputs:
            argv += ["--in"] + [os.path.join(self.out_dir, p) for p in inputs]
        if self.tracer is None:
            code = cli.main(argv)
        else:
            code = self.tracer.call(f"cli.{stage}", cli.main, argv)
        self._record(f"cli.{stage}", code == 0, f"exit code {code}")

    def op(self, name, fn, *args, **kwargs):
        """Call one library function; an exception fails the operation."""
        try:
            result = fn(*args, **kwargs)
        except Exception:  # reported as a failed operation, not raised
            self._record(name, False, traceback.format_exc(limit=4))
        self._record(name, True)
        return result


# --- spans around radlearn's public functions -------------------------------


def _bytes(key, path_arg, *suffixes):
    """Counts the sizes of the files at ``args[path_arg] + suffix`` under ``key``."""
    def counter(tracer, args, kwargs, result):
        base = str(args[path_arg])
        tracer.count(key, sum(os.path.getsize(base + s) for s in suffixes))
    return counter


def _count(key, fn):
    return lambda tracer, args, kwargs, result: tracer.count(key, fn(args, result))


def _shape2d_counts(tracer, args, kwargs, result):
    from radlearn.volume import roi_slice_index

    mask = args[0]
    n = int(mask.as_zyx()[roi_slice_index(mask)].sum())
    tracer.count("features.shape2d.slice_pixels", n)
    # computed, not measured: the n x n x 2 float64 pairwise-difference array
    tracer.count("features.shape2d.pair_bytes_computed", 16 * n * n if n >= 2 else 0)


def _forest_counts(tracer, args, kwargs, model):
    from radlearn.forest import forest_to_json

    trees = forest_to_json(model)["trees"]
    tracer.count("forest.trees", len(trees))
    tracer.count("forest.nodes", sum(len(tree["feature"]) for tree in trees))


# (module, attribute, span name, counter or None). Every module attribute that
# is the same function object is wrapped, so names callers import are covered.
SPAN_FUNCTIONS = (
    ("radlearn.volume", "generate_phantom", "volume.generate_phantom", None),
    ("radlearn.volume", "save_volume", "volume.save",
     _bytes("volume.bytes_written", 1, ".json", ".raw")),
    ("radlearn.volume", "save_mask", "volume.save",
     _bytes("volume.bytes_written", 1, ".mask.raw")),
    ("radlearn.volume", "load_volume", "volume.load",
     _bytes("volume.bytes_read", 0, ".json", ".raw")),
    ("radlearn.volume", "load_mask", "volume.load",
     _bytes("volume.bytes_read", 0, ".mask.raw")),
    ("radlearn.quantize", "quantize_fixed_bins", "quantize", None),
    ("radlearn.features.extract", "extract_all", "features.extract_all",
     _count("features.roi_voxels", lambda args, result: args[1].count())),
    ("radlearn.features.firstorder", "first_order", "features.firstorder", None),
    ("radlearn.features.shape2d", "shape_2d", "features.shape2d", _shape2d_counts),
    ("radlearn.features.matrices", "glcm", "features.glcm.matrix", None),
    ("radlearn.features.matrices", "glrlm", "features.glrlm.matrix", None),
    ("radlearn.features.matrices", "glszm", "features.glszm.matrix",
     _count("features.glszm.zones", lambda args, result: int(result.data.sum()))),
    ("radlearn.features.matrices", "ngtdm", "features.ngtdm.matrix", None),
    ("radlearn.features.matrices", "gldm", "features.gldm.matrix", None),
    ("radlearn.features.texture_features", "glcm_features", "features.glcm.features", None),
    ("radlearn.features.texture_features", "glrlm_features", "features.glrlm.features", None),
    ("radlearn.features.texture_features", "glszm_features", "features.glszm.features", None),
    ("radlearn.features.texture_features", "ngtdm_features", "features.ngtdm.features", None),
    ("radlearn.features.texture_features", "gldm_features", "features.gldm.features", None),
    ("radlearn.table", "read_feature_table", "table.read", None),
    ("radlearn.table", "write_feature_table", "table.write", None),
    ("radlearn.stats", "filter_significant", "stats.filter_significant", None),
    ("radlearn.stats", "mann_whitney_u", "stats.mann_whitney_u", None),
    ("radlearn.forest", "train_forest", "forest.train_forest", _forest_counts),
    ("radlearn.forest", "predict_proba_matrix", "forest.predict_proba_matrix", None),
    ("radlearn.forest", "rank_features", "forest.rank_features", None),
    ("radlearn.rfe", "rfe_cv", "rfe.rfe_cv",
     _count("rfe.steps", lambda args, result: len(result.steps))),
    ("radlearn.cluster", "correlation_distance_matrix",
     "cluster.correlation_distance_matrix", None),
    ("radlearn.cluster", "agglomerate", "cluster.agglomerate", None),
    ("radlearn.nn.train", "train", "nn.train", None),
    ("radlearn.nn.checkpoint", "save_checkpoint", "nn.save_checkpoint", None),
    ("radlearn.nn.checkpoint", "load_checkpoint", "nn.load_checkpoint", None),
    ("radlearn.nn.trace", "save_trace", "nn.save_trace",
     lambda tracer, args, kwargs, result: tracer.count(
         "nn.trace_bytes", os.path.getsize(str(args[1])))),
    ("radlearn.nn.trace", "load_trace", "nn.load_trace", None),
    ("radlearn.diagnostics", "diagnose", "diagnostics.diagnose", None),
)

# (module, class, method, span name); their counts are their span calls
SPAN_METHODS = (
    ("radlearn.nn.network", "Network", "forward", "nn.forward"),
    ("radlearn.nn.network", "Network", "loss_and_grads", "nn.loss_and_grads"),
    ("radlearn.nn.optim", "AdamOptimizer", "update", "nn.optimizer_update"),
    ("radlearn.nn.optim", "RmsPropOptimizer", "update", "nn.optimizer_update"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [t[2] for t in SPAN_FUNCTIONS] + [t[3] for t in SPAN_METHODS]))
COUNT_NAMES = ("volume.bytes_written", "volume.bytes_read", "features.roi_voxels",
               "features.shape2d.slice_pixels", "features.shape2d.pair_bytes_computed",
               "features.glszm.zones", "forest.trees", "forest.nodes", "rfe.steps",
               "nn.trace_bytes")


def install_spans(tracer) -> None:
    """Replace each target, wherever radlearn's modules hold it, with a wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "radlearn" or name.startswith("radlearn.")]
    for modname, attr, span_name, counter in SPAN_FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        wrapper = tracer.wrap(original, span_name, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for modname, clsname, method, span_name in SPAN_METHODS:
        cls = getattr(sys.modules[modname], clsname)
        setattr(cls, method, tracer.wrap(getattr(cls, method), span_name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--out-dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import radlearn.cli  # noqa: F401  (the import every CLI stage pays)
    from radlearn.config import load_config

    cfg = load_config(args.config)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    result = {"ready_ns": ready_ns, "radlearn_file": os.path.abspath(radlearn.__file__)}
    if args.workload is not None:
        import numpy
        import scipy

        # imported after set-up is timed, so set-up measures radlearn alone
        from spans import Tracer
        from workloads import WORKLOADS

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            install_spans(tracer)
        ctx = Context(cfg, args.config, args.out_dir, tracer)
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            WORKLOADS[args.workload].run(ctx)
        except WorkloadAborted:
            pass
        end = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        result.update(
            wall_ns=[start, end],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ops=ctx.ops,
            versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__},
        )
        if tracer is not None:
            result.update(spans=tracer.spans, counts=tracer.counts)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
