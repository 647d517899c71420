#!/usr/bin/env python3
"""End-to-end phantom experiment: generate, extract, filter, select, report.

Drives the CLI stages in sequence inside one working directory and prints a
short summary of each artifact. Usage:

    python scripts/run_phantom_pipeline.py [workdir]
"""

import json
import sys
from pathlib import Path

from radlearn.cli import main as cli
from radlearn.rfe import load_trace, select_best
from radlearn.stats import load_report

# texture 0.12 against noise 0.3 keeps the cue subtle: selection has to work
CONFIG = {
    "phantom": {"n_samples_per_class": 20, "dims": [16, 16, 16],
                "texture_amplitude": 0.12, "noise_sigma": 0.3},
    "extraction": {"n_bins": 16},
    "filter": {"alpha": 0.05},
    "forest": {"n_trees": 50},
    "rfe": {"k_folds": 5},
    "cluster": {"k": 3},
    "seeds": {"phantom": 7, "forest": 11, "rfe": 13, "train": 17,
              "net": 19, "kfold": 23},
}


def run(argv):
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    work = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("phantom_run")
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(CONFIG, indent=2))

    run(["phantom", "--config", str(config), "--out", str(work / "phantom")])
    run(["extract", "--config", str(config),
         "--in", str(work / "phantom" / "manifest.csv"),
         "--out", str(work / "extract")])
    run(["filter", "--config", str(config),
         "--in", str(work / "extract" / "features.csv"),
         "--out", str(work / "filter")])
    run(["rfe", "--config", str(config),
         "--in", str(work / "extract" / "features.csv"),
         str(work / "filter" / "significance.json"),
         "--out", str(work / "rfe")])
    run(["cluster", "--config", str(config),
         "--in", str(work / "extract" / "features.csv"),
         "--out", str(work / "cluster")])
    run(["report", "--config", str(config),
         "--in", str(work / "extract" / "features.csv"),
         str(work / "rfe" / "rfe_trace.json"),
         "--out", str(work / "report")])

    significance = load_report(work / "filter" / "significance.json")
    trace = load_trace(work / "rfe" / "rfe_trace.json")
    report = json.loads((work / "report" / "report.json").read_text())
    best_subset, best_accuracy = select_best(trace)

    print(f"workdir: {work}")
    print(f"significant features: {significance.n_significant} / "
          f"{len(significance.features)} at alpha {significance.alpha}")
    print(f"elimination steps: {len(trace.steps)}, "
          f"all-features CV accuracy {trace.full_accuracy:.3f}")
    print(f"best subset: {len(best_subset)} features at "
          f"CV accuracy {best_accuracy:.3f}")
    print("comparison (all vs top):")
    for row in report["rows"]:
        a = report["all_features"]["metrics"][row]
        t = report["top_features"]["metrics"][row]
        print(f"  {row:<10} {a:.3f}  ->  {t:.3f}")


if __name__ == "__main__":
    main()
