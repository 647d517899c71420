import filecmp
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc

import pytest

import radlearn
from radlearn import cli, rfe
from radlearn.cli import _slices_from_manifest, main
from radlearn.features.vector import FeatureVector
from radlearn.stats import EXACT_LIMIT

CONFIG = {
    "phantom": {"n_samples_per_class": 8, "dims": [12, 12, 12],
                "texture_amplitude": 2.0, "noise_sigma": 0.1},
    "extraction": {"n_bins": 8},
    "forest": {"n_trees": 10},
    "rfe": {"k_folds": 2},
    "cluster": {"k": 3},
    "train": {"input_dims": [12, 12], "conv_blocks": [2], "hidden_dense": [8],
              "learning_rate": 0.001, "epochs": 5},
    "seeds": {"phantom": 7, "forest": 11, "rfe": 13, "train": 17, "net": 19, "kfold": 23},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run reused by most CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))

    def run(*argv):
        return main([a.replace("@", str(root)) for a in argv])

    assert run("phantom", "--config", "@/config.json", "--out", "@/phantom") == 0
    assert run("extract", "--config", "@/config.json",
               "--in", "@/phantom/manifest.csv", "--out", "@/extract") == 0
    assert run("filter", "--config", "@/config.json",
               "--in", "@/extract/features.csv", "--out", "@/filter") == 0
    assert run("rfe", "--config", "@/config.json",
               "--in", "@/extract/features.csv", "--out", "@/rfe") == 0
    assert run("cluster", "--config", "@/config.json",
               "--in", "@/extract/features.csv", "--out", "@/cluster") == 0
    assert run("train", "--config", "@/config.json",
               "--in", "@/phantom/manifest.csv", "--out", "@/train") == 0
    assert run("diagnose", "--config", "@/config.json",
               "--in", "@/train/train_trace.json", "--out", "@/diagnose") == 0
    assert run("report", "--config", "@/config.json",
               "--in", "@/extract/features.csv", "@/rfe/rfe_trace.json",
               "--out", "@/report") == 0
    return root


def test_phantom_outputs(pipeline):
    manifest = (pipeline / "phantom" / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "sample_id,label,path_base,modality"
    assert len(manifest) == 1 + 16
    first = manifest[1].split(",")
    assert (pipeline / "phantom" / (first[2] + ".json")).exists()
    assert (pipeline / "phantom" / (first[2] + ".raw")).exists()
    assert (pipeline / "phantom" / (first[2] + ".mask.raw")).exists()


def test_extract_outputs_94_columns(pipeline):
    header = (pipeline / "extract" / "features.csv").read_text().splitlines()[0]
    assert len(header.split(",")) == 2 + 94


def test_filter_report_shape(pipeline):
    doc = json.loads((pipeline / "filter" / "significance.json").read_text())
    assert doc["alpha"] == 0.05
    assert len(doc["features"]) == 94
    assert doc["n_significant"] >= 1
    for entry in doc["features"]:
        assert entry["significant"] == (entry["p_value"] <= doc["alpha"])


def test_rfe_outputs(pipeline):
    trace = json.loads((pipeline / "rfe" / "rfe_trace.json").read_text())
    assert len(trace["steps"]) == 94
    curve = (pipeline / "rfe" / "rfe_curve.csv").read_text().splitlines()
    assert curve[0] == "step,subset_size,cv_accuracy"
    assert len(curve) == 1 + 94


def test_cluster_outputs(pipeline):
    doc = json.loads((pipeline / "cluster" / "dendrogram.json").read_text())
    assert len(doc["leaf_names"]) == 94
    assert len(doc["merges"]) == 93
    clusters = json.loads((pipeline / "cluster" / "clusters.json").read_text())
    assert clusters["k"] == 3
    assert len(clusters["clusters"]) == 3


def test_train_outputs(pipeline):
    trace = json.loads((pipeline / "train" / "train_trace.json").read_text())
    assert len(trace["epochs"]) == 5
    metrics_csv = (pipeline / "train" / "train_metrics.csv").read_text().splitlines()
    assert len(metrics_csv) == 1 + 5
    assert (pipeline / "train" / "model.ckpt.json").exists()
    assert (pipeline / "train" / "model.ckpt.raw").exists()


def test_diagnose_output(pipeline):
    doc = json.loads((pipeline / "diagnose" / "diagnosis.json").read_text())
    assert doc["verdict"] in ("learnable", "unlearnable", "inconclusive")
    assert len(doc["layers"]) == 3
    flow = (pipeline / "diagnose" / "gradient_flow.csv").read_text().splitlines()
    assert flow[0] == "epoch,layer,kind,bin,count,lo,hi"
    assert len(flow) == 1 + 5 * 3 * 2 * 32  # epochs x layers x kinds x bins


def test_report_rows_match_table_names(pipeline):
    doc = json.loads((pipeline / "report" / "report.json").read_text())
    assert doc["rows"] == ["Accuracy", "F1-Score", "AUROC", "Precision", "Recall"]
    csv_lines = (pipeline / "report" / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "metric,all_features,top_features"
    assert [line.split(",")[0] for line in csv_lines[1:]] == doc["rows"]


def test_rfe_with_significance_subset(pipeline, tmp_path):
    code = main(["rfe", "--config", str(pipeline / "config.json"),
                 "--in", str(pipeline / "extract" / "features.csv"),
                 str(pipeline / "filter" / "significance.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    trace = json.loads((tmp_path / "rfe_trace.json").read_text())
    sig = json.loads((pipeline / "filter" / "significance.json").read_text())
    assert len(trace["steps"]) == sig["n_significant"]


def test_missing_required_inputs_is_config_error(pipeline, tmp_path):
    code = main(["extract", "--config", str(pipeline / "config.json"),
                 "--out", str(tmp_path)])
    assert code == 1


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate", "--out", "x"]) == 1
    capsys.readouterr()


def test_bad_config_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"phantom": {"wrong_key": 1}}))
    assert main(["phantom", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_missing_input_file_exits_two(pipeline, tmp_path):
    code = main(["extract", "--config", str(pipeline / "config.json"),
                 "--in", str(tmp_path / "nothing.csv"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_corrupt_data_exits_two(pipeline, tmp_path):
    bad = tmp_path / "features.csv"
    bad.write_text("sample_id,label,f\ns0,9,1.0\n")
    code = main(["filter", "--config", str(pipeline / "config.json"),
                 "--in", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


def test_seed_override_changes_phantom(pipeline, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    cfgp = str(pipeline / "config.json")
    assert main(["phantom", "--config", cfgp, "--seed", "100", "--out", str(a)]) == 0
    assert main(["phantom", "--config", cfgp, "--seed", "100", "--out", str(b)]) == 0
    assert main(["phantom", "--config", cfgp, "--seed", "101", "--out", str(c)]) == 0
    name = sorted(os.listdir(a))[0]
    assert (a / name).read_bytes() == (b / name).read_bytes()
    raws = [f for f in sorted(os.listdir(a)) if f.endswith(".raw") and "mask" not in f]
    assert (a / raws[0]).read_bytes() != (c / raws[0]).read_bytes()


def test_negative_seed_exits_one_with_one_line(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["phantom", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("radlearn: config error: seeds.") and err.count("\n") == 1
    assert not out.exists()


def _dirs_byte_identical(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only:
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


def test_rerun_determinism_all_stages(pipeline, tmp_path):
    """Every subcommand rerun with the same config produces identical bytes."""
    cfgp = str(pipeline / "config.json")
    stages = [
        ("phantom", []),
        ("extract", [str(pipeline / "phantom" / "manifest.csv")]),
        ("filter", [str(pipeline / "extract" / "features.csv")]),
        ("rfe", [str(pipeline / "extract" / "features.csv")]),
        ("cluster", [str(pipeline / "extract" / "features.csv")]),
        ("train", [str(pipeline / "phantom" / "manifest.csv")]),
        ("diagnose", [str(pipeline / "train" / "train_trace.json")]),
        ("report", [str(pipeline / "extract" / "features.csv"),
                    str(pipeline / "rfe" / "rfe_trace.json")]),
    ]
    for stage, inputs in stages:
        out = tmp_path / f"{stage}_rerun"
        argv = [stage, "--config", cfgp, "--out", str(out)]
        if inputs:
            argv += ["--in"] + inputs
        assert main(argv) == 0
        assert _dirs_byte_identical(pipeline / stage, out), f"{stage} not deterministic"


def test_in_given_twice_means_both_inputs(pipeline, tmp_path):
    cfgp = str(pipeline / "config.json")
    features = str(pipeline / "extract" / "features.csv")
    sig = str(pipeline / "filter" / "significance.json")
    once, twice = tmp_path / "once", tmp_path / "twice"
    assert main(["rfe", "--config", cfgp, "--in", features, sig, "--out", str(once)]) == 0
    assert main(["rfe", "--config", cfgp, "--in", features, "--in", sig,
                 "--out", str(twice)]) == 0
    assert _dirs_byte_identical(once, twice)
    # differs from the table-only run, so the second input was used
    assert not _dirs_byte_identical(once, pipeline / "rfe")


@pytest.mark.parametrize("forest", [
    {"n_trees": "100"}, {"n_trees": 2.5}, {"features_per_split": -2},
    {"features_per_split": 0}, {"bootstrap": "no"},
])
def test_bad_forest_config_exits_one_with_one_line(tmp_path, capsys, forest):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"forest": forest}))
    assert main(["rfe", "--config", str(bad), "--in", str(tmp_path / "features.csv"),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("radlearn: config error: forest.") and err.count("\n") == 1


@pytest.mark.parametrize("stage", ["filter", "rfe"])
def test_non_finite_features_exit_two(tmp_path, capsys, stage):
    bad = tmp_path / "features.csv"
    bad.write_text("sample_id,label,f\ns0,0,1.0\ns1,1,nan\ns2,0,2.0\ns3,1,3.0\n")
    assert main([stage, "--in", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radlearn: data error: non-finite") and err.count("\n") == 1


@pytest.mark.parametrize("stage, section", [
    ("phantom", {"seeds": {"phantom": -1}}),
    ("phantom", {"phantom": {"n_samples_per_class": "3"}}),
    ("phantom", {"phantom": {"dims": [16, 16]}}),
    ("extract", {"extraction": {"n_bins": "32"}}),
    ("extract", {"extraction": {"distance": 0}}),
    ("rfe", {"rfe": {"k_folds": "5"}}),
    ("train", {"train": {"input_dims": [8, 8], "epochs": 2.5}}),
    ("train", {"train": {"optimizer": "sgd"}}),
    ("filter", {"filter": {"alpha": "0.05"}}),
    ("cluster", {"cluster": {"k": "3"}}),
    ("diagnose", {"diagnose": {"static_rel_tol": "1e-4"}}),
    ("phantom", {"phantom": {"texture_amplitude": 10 ** 400}}),
    ("diagnose", {"diagnose": {"flip_amp_thresh": 10 ** 400}}),
    ("filter", {"filter": {"alpha": 10 ** 400}}),
])
def test_bad_section_config_exits_one_with_one_line(tmp_path, capsys, stage, section):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(section))
    argv = [stage, "--config", str(bad), "--out", str(tmp_path / "o")]
    if stage != "phantom":
        argv += ["--in", str(tmp_path / "missing.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    key = next(iter(section))
    assert err.startswith(f"radlearn: config error: {key}.") and err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(radlearn.__file__))
    code = "import sys, radlearn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_phantom_extract_filter_never_load_numpy_ma(tmp_path):
    # numpy.ma costs about 1.3 MB of peak RSS and 8-20 ms to import; np.median
    # and np.unique import it. 16 samples put filter on the normal approximation.
    assert 2 * CONFIG["phantom"]["n_samples_per_class"] > EXACT_LIMIT
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    src = os.path.dirname(os.path.dirname(radlearn.__file__))
    code = (
        "import sys\n"
        "from radlearn.cli import main\n"
        f"root = {str(tmp_path)!r}\n"
        "for argv in (['phantom', '--out', root + '/phantom'],\n"
        "             ['extract', '--in', root + '/phantom/manifest.csv', '--out', root + '/extract'],\n"
        "             ['filter', '--in', root + '/extract/features.csv', '--out', root + '/filter']):\n"
        "    assert main(argv + ['--config', root + '/config.json']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("stage, doc", [
    ("rfe", {"forest": 5}),
    ("rfe", {"forest": None}),
    ("phantom", {"phantom": [16, 16, 16]}),
    ("phantom", {"train": {"freeze_layers": ["convX"]}}),
    ("train", {"train": {"freeze_layers": ["convX"]}}),
    ("diagnose", {"train": {"input_dims": [4, 4], "conv_blocks": [2, 2, 2]}}),
    ("filter", {"train": {"learning_rate": 1e39}}),
    ("phantom", {"phantom": {"seed": 3}}),
])
def test_config_mistakes_exit_one_on_any_stage(tmp_path, capsys, stage, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([stage, "--config", str(bad), "--in", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("radlearn: config error: ") and err.count("\n") == 1


def test_config_not_utf8_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"phantom": {"modality": "\xe9"}}')
    assert main(["phantom", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "UTF-8" in err and err.count("\n") == 1


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe", b"[1, 2]", b"null"])
@pytest.mark.parametrize("stage", ["diagnose", "cluster", "report", "rfe"])
def test_malformed_json_inputs_exit_two(pipeline, tmp_path, capsys, stage, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    inputs = [str(bad)] if stage == "diagnose" else [str(pipeline / "extract" / "features.csv"),
                                                     str(bad)]
    assert main([stage, "--in", *inputs, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radlearn: data error: ") and err.count("\n") == 1


def test_significance_naming_unknown_feature_exits_two(pipeline, tmp_path, capsys):
    doc = json.loads((pipeline / "filter" / "significance.json").read_text())
    doc["features"][0].update(name="nope", significant=True)
    sig = tmp_path / "significance.json"
    sig.write_text(json.dumps(doc))
    assert main(["rfe", "--in", str(pipeline / "extract" / "features.csv"), str(sig),
                 "--out", str(tmp_path / "o")]) == 2
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["false", 1, None])
def test_significance_flag_not_a_bool_exits_two(pipeline, tmp_path, capsys, flag):
    doc = json.loads((pipeline / "filter" / "significance.json").read_text())
    doc["features"][0]["significant"] = flag
    sig = tmp_path / "significance.json"
    sig.write_text(json.dumps(doc))
    assert main(["rfe", "--in", str(pipeline / "extract" / "features.csv"), str(sig),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radlearn: data error: ") and err.count("\n") == 1
    assert "features[0].significant" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_trace_number_exits_two(pipeline, tmp_path, capsys, value):
    # json parses NaN and Infinity; the typed reader takes only finite numbers
    doc = json.loads((pipeline / "train" / "train_trace.json").read_text())
    layer = doc["layer_names"][0]
    if value != value:
        doc["epochs"][2]["validation"]["sensitivity"] = value
        where = "epochs[2].validation.sensitivity"
    else:
        doc["epochs"][1]["layers"][layer]["weight_l2"] = value
        where = f"epochs[1].layers[{layer!r}].weight_l2"
    trace = tmp_path / "train_trace.json"
    trace.write_text(json.dumps(doc))
    assert main(["diagnose", "--in", str(trace), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radlearn: data error: ") and err.count("\n") == 1
    assert f"{where} must be a finite number" in err


@pytest.mark.parametrize("stage, name", [("filter", "extract/features.csv"),
                                         ("extract", "phantom/manifest.csv")])
def test_csv_not_utf8_exits_two(pipeline, tmp_path, capsys, stage, name):
    bad = tmp_path / os.path.basename(name)
    bad.write_bytes((pipeline / name).read_bytes().replace(b"_s000", b"_s\xff00", 1))
    assert main([stage, "--in", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radlearn: data error: ") and "UTF-8" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("header", [5, {"spacing": "abc"}, {"dims": 16}])
def test_malformed_volume_header_exits_two(pipeline, tmp_path, capsys, header):
    phantom = tmp_path / "phantom"
    shutil.copytree(pipeline / "phantom", phantom)
    base = (phantom / "manifest.csv").read_text().splitlines()[1].split(",")[2]
    path = phantom / (base + ".json")
    if isinstance(header, dict):
        header = {**json.loads(path.read_text()), **header}
    path.write_text(json.dumps(header))
    assert main(["extract", "--in", str(phantom / "manifest.csv"),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radlearn: data error: ") and err.count("\n") == 1


def test_train_on_mixed_slice_shapes_exits_two(pipeline, tmp_path, capsys):
    phantom = tmp_path / "phantom"
    shutil.copytree(pipeline / "phantom", phantom)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "phantom": {**CONFIG["phantom"],
                                                        "dims": [12, 16, 16]}}))
    assert main(["phantom", "--config", str(config), "--out", str(phantom / "wide")]) == 0
    rows = (phantom / "wide" / "manifest.csv").read_text().splitlines()[1:]
    first_wide = rows[0].split(",")[0] + "_wide"
    with open(phantom / "manifest.csv", "a") as fh:
        for row in rows:
            sample_id, label, base, modality = row.split(",")
            fh.write(f"{sample_id}_wide,{label},wide/{base},{modality}\n")
    assert main(["train", "--config", str(pipeline / "config.json"),
                 "--in", str(phantom / "manifest.csv"), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radlearn: data error: sample " + first_wide + ":")
    assert err.count("\n") == 1


@pytest.mark.parametrize("phantom, train, stderr", [
    # with one epoch only the epoch-end metric pass sees the non-finite loss
    pytest.param({"n_samples_per_class": 1}, {"learning_rate": 3e38, "epochs": epochs},
                 "non-finite .*", id=str(epochs)) for epochs in (1, 3)] + [
    # every step's loss is finite, but the last step of epoch 0 leaves
    # non-finite weights, which the epoch's histograms would be handed
    pytest.param({"n_samples_per_class": 2, "dims": [16, 16, 16], "noise_sigma": 1000},
                 {"learning_rate": 1e37, "batch_size": 4, "epochs": 2},
                 "non-finite weights at epoch 0", id="weights")])
def test_diverging_train_exits_three_with_one_line(tmp_path, phantom, train, stderr):
    # a subprocess, so numpy warnings would reach its stderr
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"phantom": phantom, "train": train}))
    assert main(["phantom", "--config", str(config), "--out", str(tmp_path / "p")]) == 0
    out = tmp_path / "t"
    src = os.path.dirname(os.path.dirname(radlearn.__file__))
    run = subprocess.run([sys.executable, "-m", "radlearn", "train", "--config", str(config),
                          "--in", str(tmp_path / "p" / "manifest.csv"), "--out", str(out)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 3
    assert re.fullmatch(f"radlearn: numeric failure: {stderr}\n", run.stderr)
    trace = out / "train_trace.json"
    assert not trace.exists() or not any(
        token in trace.read_text() for token in ("NaN", "Infinity"))


def test_train_rejects_slices_that_are_not_input_dims(tmp_path, capsys):
    # (n, 9, 256) slices have the shape of 16 x 16 images' first-block columns
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"phantom": {"n_samples_per_class": 1,
                                              "dims": [256, 9, 16]}}))
    assert main(["phantom", "--config", str(config), "--out", str(tmp_path / "p")]) == 0
    assert main(["train", "--config", str(config), "--in", str(tmp_path / "p" / "manifest.csv"),
                 "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radlearn: data error: expected images of shape (n, 16, 16)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("stage, section", [
    ("extract", {"phantom": {"n_samples_per_class": 1, "dims": [8, 8, 8]},
                 "extraction": {"n_bins": 100000}}),  # a (n_bins + 1)^2 GLCM code table
    ("phantom", {"phantom": {"dims": [2000, 2000, 2000]}}),  # 64 GB per float64 field
])
def test_out_of_memory_exits_two_with_one_line(tmp_path, stage, section):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(section))
    argv = [stage, "--config", str(config), "--out", str(tmp_path / "out")]
    if stage == "extract":
        assert main(["phantom", "--config", str(config), "--out", str(tmp_path / "p")]) == 0
        argv += ["--in", str(tmp_path / "p" / "manifest.csv")]
    # a 3 GiB address space, so the allocation fails on any host
    limit = 3 * 2 ** 30
    src = os.path.dirname(os.path.dirname(radlearn.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "radlearn", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert run.returncode == 2
    assert run.stderr.startswith("radlearn: out of memory: ")
    assert run.stderr.count("\n") == 1


def test_far_glcm_distance_exits_two_with_one_line(tmp_path):
    # the builders border the level grid by the distance only along axes
    # longer than it, so a distance far past the grid allocates nothing more
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"phantom": {"n_samples_per_class": 1, "dims": [8, 8, 8]},
                                  "extraction": {"distance": 100000}}))
    assert main(["phantom", "--config", str(config), "--out", str(tmp_path / "p")]) == 0
    limit = 3 * 2 ** 30  # a naive border would ask for petabytes
    src = os.path.dirname(os.path.dirname(radlearn.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "radlearn", "extract", "--config", str(config),
         "--in", str(tmp_path / "p" / "manifest.csv"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert run.returncode == 2
    assert run.stderr == ("radlearn: data error: no co-occurring voxel pairs at the "
                          "requested distance\n")


@pytest.mark.parametrize("stage, section, code", [
    # numpy raises ValueError, not MemoryError, for an array whose size it cannot describe
    ("train", {"train": {"hidden_dense": [10 ** 18]}}, 2),
    ("train", {"train": {"conv_blocks": [10 ** 18]}}, 2),
    ("rfe", {"forest": {"n_trees": 10 ** 18}}, 2),
    ("extract", {"extraction": {"n_bins": 2 ** 31 - 1}}, 2),  # the GLCM code table
    # levels are int32, so a larger n_bins is a config error
    ("extract", {"extraction": {"n_bins": 2 ** 31}}, 1),
    ("extract", {"extraction": {"n_bins": 2 ** 63}}, 1),
])
def test_arrays_too_big_to_describe_exit_with_one_line(tmp_path, stage, section, code):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"phantom": {"n_samples_per_class": 5, "dims": [8, 8, 8]}}))
    assert main(["phantom", "--config", str(base), "--out", str(tmp_path / "p")]) == 0
    manifest = str(tmp_path / "p" / "manifest.csv")
    assert main(["extract", "--config", str(base), "--in", manifest,
                 "--out", str(tmp_path / "e")]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(base.read_text()), **section}))
    source = str(tmp_path / "e" / "features.csv") if stage == "rfe" else manifest
    limit = 3 * 2 ** 30  # should an array be allocated after all, it fails on any host
    src = os.path.dirname(os.path.dirname(radlearn.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "radlearn", stage, "--config", str(config), "--in", source,
         "--out", str(tmp_path / "out")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert run.returncode == code
    assert run.stderr.startswith("radlearn: out of memory: array is too big" if code == 2
                                 else "radlearn: config error: extraction.n_bins ")
    assert run.stderr.count("\n") == 1


def test_huge_header_beside_a_short_raw_exits_two_on_its_length(tmp_path):
    # the .raw size is checked before the 32 GB array would be allocated
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"phantom": {"n_samples_per_class": 1, "dims": [8, 8, 8]}}))
    assert main(["phantom", "--config", str(config), "--out", str(tmp_path / "p")]) == 0
    base = tmp_path / "p" / "SYN_c0_s000"
    header = json.loads(base.with_suffix(".json").read_text())
    base.with_suffix(".json").write_text(json.dumps({**header, "dims": [2000, 2000, 2000]}))
    base.with_suffix(".raw").write_bytes(b"\x00" * 64)
    limit = 3 * 2 ** 30
    src = os.path.dirname(os.path.dirname(radlearn.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "radlearn", "extract", "--config", str(config),
         "--in", str(tmp_path / "p" / "manifest.csv"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert run.returncode == 2
    assert run.stderr == ("radlearn: data error: raw file length 64 does not match dims "
                          "[2000, 2000, 2000] (expected 32000000000)\n")


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _phantom_48(tmp_path, n_per_class):
    """Runs the phantom stage on 48^3 volumes; returns its traced peak and manifest."""
    config = tmp_path / f"config{n_per_class}.json"
    config.write_text(json.dumps({"phantom": {"n_samples_per_class": n_per_class,
                                              "dims": [48, 48, 48]}}))
    out = tmp_path / f"p{n_per_class}"
    peak = _traced_peak(main, ["phantom", "--config", str(config), "--out", str(out)])
    assert (out / "manifest.csv").exists()
    return peak, out / "manifest.csv"


def test_phantom_stage_memory_does_not_grow_with_the_cohort(tmp_path):
    (one, _), (six, _) = _phantom_48(tmp_path, 1), _phantom_48(tmp_path, 6)
    assert abs(six - one) <= 0.1 * one, f"1 per class: {one} B, 6 per class: {six} B"


def test_phantom_stage_peaks_within_twenty_bytes_per_voxel(tmp_path):
    # two float32 volumes, the mask and float64 fields over the ROI only; with
    # full-grid float64 fields it peaked at 29.5 B per voxel here. Two indices,
    # so a third volume kept alive across them shows too
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"phantom": {"n_samples_per_class": 2, "dims": [96, 96, 96]}}))
    peak = _traced_peak(main, ["phantom", "--config", str(config), "--out", str(tmp_path / "p")])
    assert peak <= 20 * 96 ** 3, f"phantom stage peaked at {peak / 96 ** 3:.1f} B per voxel"


@pytest.mark.parametrize("n_samples", [2, 8])
def test_train_slices_hold_one_volume_at_a_time(tmp_path, n_samples):
    _, manifest = _phantom_48(tmp_path, n_samples // 2)
    peak = _traced_peak(_slices_from_manifest, manifest)
    assert peak < 2 * 4 * 48 ** 3, f"{n_samples} samples: slices peaked at {peak} B"


def test_extract_holds_one_volume_at_a_time(tmp_path, monkeypatch):
    # with extraction stubbed out, the stage's peak is the loading of one
    # sample, which it must not do while it still holds the one before
    _, manifest = _phantom_48(tmp_path, 2)
    monkeypatch.setattr(cli, "extract_all", lambda v, m, **_: FeatureVector(["f.a"], [0.0]))
    peak = _traced_peak(main, ["extract", "--config", str(tmp_path / "config2.json"),
                               "--in", str(manifest), "--out", str(tmp_path / "e")])
    assert (tmp_path / "e" / "features.csv").exists()
    assert peak < 2 * 4 * 48 ** 3, f"extract peaked at {peak} B"


@pytest.fixture(scope="module")
def abc_rfe(tmp_path_factory):
    """An elimination trace over a table of the features a, b and c, and the
    index of its best step."""
    root = tmp_path_factory.mktemp("abc")
    rows = ["sample_id,label,a,b,c"] + [f"s{i},{i % 2},{i},{i * i % 5},{(3 * i) % 7}"
                                        for i in range(8)]
    (root / "features.csv").write_text("\n".join(rows) + "\n")
    (root / "config.json").write_text(json.dumps(CONFIG))
    assert main(["rfe", "--config", str(root / "config.json"),
                 "--in", str(root / "features.csv"), "--out", str(root)]) == 0
    trace = rfe.load_trace(root / "rfe_trace.json")
    best, _ = rfe.select_best(trace)
    return root, [step.subset for step in trace.steps].index(best)


_DROP = object()  # delete the key instead of setting it


@pytest.mark.parametrize("stage, path, value", [
    ("diagnose", ["epochs", 0, "layers", "conv1", "weight_l2"], "x"),
    ("diagnose", ["epochs", 0, "layers", "conv1", "delta_l2"], None),
    ("diagnose", ["epochs", 0, "validation", "sensitivity"], "x"),
    ("diagnose", ["layer_names"], "abc"),
    ("diagnose", ["epochs", 1, "layers", "conv1"], _DROP),
    ("diagnose", ["epochs", 0, "layers"], []),
    ("cluster", ["steps", 0, "cv_accuracy"], "x"),
    ("cluster", ["steps", 0, "cv_accuracy"], None),
    ("report", ["steps", 0, "cv_accuracy"], "x"),
    ("report", ["steps", 0, "cv_accuracy"], None),
    ("cluster", ["steps", "best", "subset"], [1, 2]),
    ("report", ["steps", "best", "subset"], "abc"),
])
def test_trace_with_one_wrong_value_exits_two(pipeline, abc_rfe, tmp_path, capsys,
                                              stage, path, value):
    root, best = abc_rfe
    if stage == "diagnose":
        source, inputs = pipeline / "train" / "train_trace.json", []
    else:
        source, inputs = root / "rfe_trace.json", [str(root / "features.csv")]
    doc = json.loads(source.read_text())
    parent = doc
    path = [best if key == "best" else key for key in path]
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    bad = tmp_path / source.name
    bad.write_text(json.dumps(doc))
    assert main([stage, "--config", str(root / "config.json"), "--in", *inputs, str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radlearn: data error: malformed") and err.count("\n") == 1
