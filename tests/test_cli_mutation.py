"""Byte mutations of real pipeline artifacts, fed to every stage that reads them.

A tiny real run writes a manifest, volumes with masks, a feature table, a
significance report and the elimination and training traces.
Each case truncates one of those files, flips one bit in it, empties it or
re-encodes it as UTF-16, then runs every stage that reads the file. Whatever
the bytes, the stage must exit 0, 1, 2 or 3, print exactly one stderr line
when it fails, and let no exception escape. The mutations are fixed, not
drawn, so every run tries the same bytes.
"""

import contextlib
import io
import json

import pytest

from radlearn.cli import main

CONFIG = {
    "phantom": {"n_samples_per_class": 3, "dims": [11, 11, 11]},
    "extraction": {"n_bins": 8},
    "forest": {"n_trees": 5},
    "rfe": {"k_folds": 2},
    "train": {"input_dims": [11, 11], "conv_blocks": [2], "hidden_dense": [4], "epochs": 2},
}


def _flip(position, bit):
    """Flips ``bit`` of the byte at ``position(len)``."""
    def mutate(data):
        if not data:
            return data
        i = position(len(data))
        return data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]
    return mutate


MUTATIONS = {
    "truncate": lambda data: data[:len(data) // 2],
    "flip_low_bit": _flip(lambda n: n // 2, 0),  # one digit or mantissa bit off
    # in a .raw of odd dims, the high exponent bit of the central voxel
    "flip_exponent_bit": _flip(lambda n: min(n // 2 | 3, n - 1), 6),
    "flip_top_bit": _flip(lambda n: 2 * n // 3, 7),  # not UTF-8 in a text file
    "empty": lambda data: b"",
    "utf16": lambda data: data.decode("latin-1").encode("utf-16"),
}

# artifact -> the stages that read it, each with its --in files in order
READERS = {
    "manifest": [("extract", ["manifest"]), ("train", ["manifest"])],
    "volume_header": [("extract", ["manifest"]), ("train", ["manifest"])],
    "volume_raw": [("extract", ["manifest"]), ("train", ["manifest"])],
    "mask_raw": [("extract", ["manifest"]), ("train", ["manifest"])],
    "features": [("filter", ["features"]), ("rfe", ["features"]), ("cluster", ["features"]),
                 ("report", ["features", "rfe_trace"])],
    "significance": [("rfe", ["features", "significance"])],
    "rfe_trace": [("cluster", ["features", "rfe_trace"]), ("report", ["features", "rfe_trace"])],
    "train_trace": [("diagnose", ["train_trace"])],
}


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The paths of one tiny real run's artifacts, by READERS key."""
    root = tmp_path_factory.mktemp("mutation")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    for stage, inputs in [("phantom", []), ("extract", ["phantom/manifest.csv"]),
                          ("filter", ["extract/features.csv"]),
                          ("rfe", ["extract/features.csv"]), ("train", ["phantom/manifest.csv"])]:
        argv = [stage, "--config", str(config), "--out", str(root / stage)]
        assert main(argv + (["--in"] + [str(root / p) for p in inputs] if inputs else [])) == 0
    manifest = root / "phantom" / "manifest.csv"
    base = manifest.read_text().splitlines()[1].split(",")[2]
    return {"config": config, "manifest": manifest,
            "volume_header": root / "phantom" / f"{base}.json",
            "volume_raw": root / "phantom" / f"{base}.raw",
            "mask_raw": root / "phantom" / f"{base}.mask.raw",
            "features": root / "extract" / "features.csv",
            "significance": root / "filter" / "significance.json",
            "rfe_trace": root / "rfe" / "rfe_trace.json",
            "train_trace": root / "train" / "train_trace.json"}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize("artifact", list(READERS))
def test_mutated_artifact_exits_cleanly(artifacts, tmp_path, artifact, mutation):
    path = artifacts[artifact]
    original = path.read_bytes()
    path.write_bytes(MUTATIONS[mutation](original))
    try:
        for stage, inputs in READERS[artifact]:
            code, err = _run([stage, "--config", str(artifacts["config"]),
                              "--in", *(str(artifacts[name]) for name in inputs),
                              "--out", str(tmp_path / stage)])
            assert code in {0, 1, 2, 3}, (stage, code, err)
            if code:
                assert err.count("\n") == 1 and err.endswith("\n"), (stage, err)
    finally:
        path.write_bytes(original)
