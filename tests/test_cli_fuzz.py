"""Deterministic fuzzing of the CLI with malformed configs and input artifacts.

Whatever the document, ``main`` must return exit code 1 (config) or 2 (data)
with exactly one line on stderr, and no exception may escape. Every stage is
given as many ``--in`` files as ``cli._COMMANDS`` says it requires, all
missing, so a config that happens to be valid passes the file count and stops
at exit 2 on the first missing file before any work is done (``phantom``
requires none and is only given configs that fail). The trace fuzz instead
swaps one leaf or container of a real training or elimination trace, which may
leave it valid (exit 0) but must never let an exception escape.
"""

import contextlib
import io
import json
from dataclasses import fields

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radlearn.cli import _COMMANDS, main
from radlearn.config import default_config
from radlearn.nn import NetConfig, TrainConfig, save_trace, train

INPUT_STAGES = ["extract", "filter", "rfe", "cluster", "train", "diagnose", "report"]
_DEFAULTS = default_config()
SECTION_KEYS = {f.name: [k.name for k in fields(getattr(_DEFAULTS, f.name)) if k.name != "seed"]
                for f in fields(_DEFAULTS)}

_scalars = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8))
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)
# no key of any section takes a JSON object, so one is the wrong type everywhere
json_objects = st.dictionaries(st.text(max_size=6), _scalars, max_size=3)


@st.composite
def _documents(draw, values):
    """A config whose sections set a few keys each to drawn values."""
    doc = {}
    for section in draw(st.lists(st.sampled_from(sorted(SECTION_KEYS)), min_size=1,
                                 max_size=3, unique=True)):
        keys = draw(st.lists(st.sampled_from(SECTION_KEYS[section]), min_size=1,
                             max_size=3, unique=True))
        doc[section] = {key: draw(values) for key in keys}
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rows = ["sample_id,label,a,b,c"] + [f"s{i},{i % 2},{i},{i * i % 5},{(3 * i) % 7}"
                                        for i in range(8)]
    (root / "features.csv").write_text("\n".join(rows) + "\n")
    return root


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _run_with_config(workdir, stage, content: bytes):
    config = workdir / "config.json"
    config.write_bytes(content)
    missing = [str(workdir / "missing" / name) for name in _COMMANDS[stage][1]]
    return _run([stage, "--config", str(config), *(["--in", *missing] if missing else []),
                 "--out", str(workdir / "out")])


def _assert_one_line(code, err, codes):
    assert code in codes, err
    assert err.count("\n") == 1 and err.endswith("\n"), err


@settings(derandomize=True, max_examples=300, deadline=None)
@given(stage=st.sampled_from(INPUT_STAGES), doc=_documents(json_values))
def test_any_values_exit_one_or_two(workdir, stage, doc):
    code, err = _run_with_config(workdir, stage, json.dumps(doc).encode())
    _assert_one_line(code, err, {1, 2})


@settings(derandomize=True, max_examples=100, deadline=None)
@given(stage=st.sampled_from(INPUT_STAGES + ["phantom"]), doc=_documents(json_objects))
def test_wrong_type_in_every_key_exits_one(workdir, stage, doc):
    code, err = _run_with_config(workdir, stage, json.dumps(doc).encode())
    _assert_one_line(code, err, {1})
    assert any(err.startswith(f"radlearn: config error: {section}.") for section in doc), err


@settings(derandomize=True, max_examples=60, deadline=None)
@given(stage=st.sampled_from(INPUT_STAGES + ["phantom"]),
       section=st.sampled_from(sorted(SECTION_KEYS)),
       value=st.none() | st.booleans() | st.integers() | st.text(max_size=4)
       | st.lists(st.integers(), max_size=3))
def test_non_object_section_exits_one(workdir, stage, section, value):
    code, err = _run_with_config(workdir, stage, json.dumps({section: value}).encode())
    _assert_one_line(code, err, {1})
    assert f"section '{section}' must be a JSON object" in err


@settings(derandomize=True, max_examples=40, deadline=None)
@given(stage=st.sampled_from(INPUT_STAGES + ["phantom"]),
       section=st.sampled_from(sorted(set(SECTION_KEYS) - {"seeds"})),
       seed=json_values)
def test_seed_key_in_a_section_exits_one(workdir, stage, section, seed):
    code, err = _run_with_config(workdir, stage, json.dumps({section: {"seed": seed}}).encode())
    _assert_one_line(code, err, {1})
    assert "'seed'" in err


@settings(derandomize=True, max_examples=60, deadline=None)
@given(stage=st.sampled_from(INPUT_STAGES + ["phantom"]),
       conv=st.lists(st.integers(1, 3), max_size=3),
       dense=st.lists(st.integers(1, 3), max_size=3),
       name=st.text(max_size=6).filter(lambda n: n.startswith(("conv", "fc")) or n == ""))
def test_unknown_layer_name_exits_one(workdir, stage, conv, dense, name):
    known = ([f"conv{i}" for i in range(1, len(conv) + 1)]
             + [f"fc{i}" for i in range(1, len(dense) + 1)] + ["fc_out"])
    if name in known:
        name += "x"
    doc = {"train": {"conv_blocks": conv, "hidden_dense": dense,
                     "freeze_layers": known[:1] + [name]}}
    code, err = _run_with_config(workdir, stage, json.dumps(doc).encode())
    _assert_one_line(code, err, {1})
    assert "train.freeze_layers" in err


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stage=st.sampled_from(INPUT_STAGES),
       content=st.binary(max_size=40) | st.text(max_size=20).map(lambda t: t.encode("utf-16")))
def test_config_bytes_exit_one_or_two(workdir, stage, content):
    code, err = _run_with_config(workdir, stage, content)
    _assert_one_line(code, err, {1, 2})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stage=st.sampled_from(["diagnose", "cluster", "report", "rfe"]),
       content=st.binary(max_size=40) | json_values.map(lambda v: json.dumps(v).encode())
       | st.text(max_size=20).map(lambda t: t.encode("utf-16")))
def test_malformed_input_artifact_exits_two(workdir, stage, content):
    artifact = workdir / "artifact.json"
    artifact.write_bytes(content)
    inputs = [str(artifact)] if stage == "diagnose" else [str(workdir / "features.csv"),
                                                          str(artifact)]
    code, err = _run([stage, "--in", *inputs, "--out", str(workdir / "out")])
    _assert_one_line(code, err, {2})


def _paths(doc, prefix=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def traces(workdir):
    """A tiny real train_trace.json and rfe_trace.json, with every path in each."""
    rng = np.random.default_rng(0)
    _, trace = train(rng.normal(size=(8, 8, 8)).astype(np.float32), np.array([0, 1] * 4),
                     NetConfig(input_dims=(8, 8), conv_blocks=[2], hidden_dense=[4], seed=1),
                     TrainConfig(epochs=4, seed=2))
    save_trace(trace, workdir / "train_trace.json")
    (workdir / "small.json").write_text(json.dumps({"forest": {"n_trees": 5},
                                                    "rfe": {"k_folds": 2}}))
    assert main(["rfe", "--config", str(workdir / "small.json"),
                 "--in", str(workdir / "features.csv"), "--out", str(workdir)]) == 0
    docs = {name: json.loads((workdir / name).read_text())
            for name in ("train_trace.json", "rfe_trace.json")}
    return {name: (doc, list(_paths(doc))) for name, doc in docs.items()}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stage=st.sampled_from(["diagnose", "cluster", "report"]), value=json_values,
       data=st.data())
def test_trace_with_one_value_swapped_exits_zero_or_two(workdir, traces, stage, value, data):
    name = "train_trace.json" if stage == "diagnose" else "rfe_trace.json"
    doc, paths = traces[name]
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    mutated = workdir / f"mutated_{name}"
    mutated.write_text(json.dumps(doc))
    inputs = [str(mutated)] if stage == "diagnose" else [str(workdir / "features.csv"),
                                                         str(mutated)]
    code, err = _run([stage, "--config", str(workdir / "small.json"), "--in", *inputs,
                      "--out", str(workdir / "out")])
    if code:
        _assert_one_line(code, err, {2})
