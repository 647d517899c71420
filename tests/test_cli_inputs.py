"""The ``--in`` files each CLI stage takes, and the refusal of any other count.

Every stage declares its inputs once; a missing or surplus file exits 1 with
one stderr line that names them, before ``--out`` is created. The counts are
checked against nonexistent paths: a count that passes reaches the data
stage, which then exits 2 on the first missing file.
"""

import contextlib
import io

import pytest

from radlearn.cli import main

# the --in files of each stage, as README documents them
STAGE_INPUTS = {
    "phantom": [],
    "extract": ["manifest.csv"],
    "filter": ["features.csv"],
    "rfe": ["features.csv", "[significance.json]"],
    "cluster": ["features.csv", "[rfe_trace.json]"],
    "train": ["manifest.csv"],
    "diagnose": ["train_trace.json"],
    "report": ["features.csv", "rfe_trace.json"],
}
INPUT_STAGES = [stage for stage, names in STAGE_INPUTS.items() if names]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(tmp_path, stage, n_inputs):
    files = [str(tmp_path / f"missing{i}") for i in range(n_inputs)]
    return [stage] + (["--in", *files] if files else []) + ["--out", str(tmp_path / "out")]


def _usage(stage):
    return " ".join(STAGE_INPUTS[stage]) or "no files"


@pytest.mark.parametrize("stage", list(STAGE_INPUTS))
def test_surplus_input_exits_one_naming_the_inputs(tmp_path, stage):
    n = len(STAGE_INPUTS[stage]) + 1
    code, _, err = _run(_argv(tmp_path, stage, n))
    assert code == 1
    assert err == (f"radlearn: config error: {stage} takes {_usage(stage)} via --in, "
                   f"got {n} file(s)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage", INPUT_STAGES)
def test_too_few_inputs_exit_one(tmp_path, stage):
    n = sum(not name.startswith("[") for name in STAGE_INPUTS[stage]) - 1
    code, _, err = _run(_argv(tmp_path, stage, n))
    assert code == 1
    assert err.startswith(f"radlearn: config error: {stage} takes ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage", INPUT_STAGES)
def test_every_declared_input_is_accepted(tmp_path, stage):
    code, _, err = _run(_argv(tmp_path, stage, len(STAGE_INPUTS[stage])))
    assert code == 2
    assert err.startswith("radlearn: data error: ") and "missing0" in err


def test_phantom_with_an_input_exits_one(tmp_path):
    code, _, err = _run(["phantom", "--in", str(tmp_path / "x"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert err == "radlearn: config error: phantom takes no files via --in, got 1 file(s)\n"


def test_input_count_is_checked_after_the_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"forest": {"n_trees": 0}}')
    code, _, err = _run(["extract", "--config", str(config)] + _argv(tmp_path, "extract", 3)[1:])
    assert code == 1
    assert err.startswith("radlearn: config error: forest.n_trees")


@pytest.mark.parametrize("stage", list(STAGE_INPUTS))
def test_help_names_the_inputs(stage):
    code, out, _ = _run([stage, "--help"])
    assert code == 0
    assert _usage(stage) in " ".join(out.split())
