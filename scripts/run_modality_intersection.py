#!/usr/bin/env python3
"""Cross-modality significant-feature intersection on phantom data.

Generates several phantom "modalities" (same geometry, different seeds and
texture strengths), filters each for significant features, and prints the
pairwise/common intersection summary. Writes intersection.json.

Usage: python scripts/run_modality_intersection.py [workdir]
"""

import sys
from pathlib import Path

from radlearn.features import extract_all
from radlearn.jsonio import write_json
from radlearn.stats import filter_significant, modality_intersection
from radlearn.table import from_rows
from radlearn.volume import PhantomSpec, generate_phantom

MODALITIES = {
    "FLAIR": {"seed": 101, "texture_amplitude": 2.0},
    "T1": {"seed": 102, "texture_amplitude": 1.0},
    "T1CE": {"seed": 103, "texture_amplitude": 1.5},
    "T2": {"seed": 104, "texture_amplitude": 0.2},
}


def significant_set(modality, params, alpha=0.05):
    spec = PhantomSpec(n_samples_per_class=15, dims=(12, 12, 12),
                       noise_sigma=0.3, modality=modality, **params)
    samples = generate_phantom(spec)
    vectors = [extract_all(v, m, n_bins=16) for v, m, _ in samples]
    table = from_rows([f"{modality}_{i}" for i in range(len(samples))],
                      [label for _, _, label in samples], vectors)
    report = filter_significant(table, alpha=alpha)
    return set(report.significant_names())


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("intersection_run")
    out.mkdir(parents=True, exist_ok=True)

    sets = {}
    for modality, params in MODALITIES.items():
        sets[modality] = significant_set(modality, params)
        print(f"{modality:<6} {len(sets[modality])} significant features")

    summary = modality_intersection(sets)
    write_json(summary, out / "intersection.json")
    print("pairwise intersections:")
    for pair, count in summary.pairwise.items():
        print(f"  {pair:<14} {count}")
    print(f"common to all: {len(summary.common)} (union {summary.union_size})")


if __name__ == "__main__":
    main()
