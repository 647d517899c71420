import json
from pathlib import Path

import pytest

from radlearn.config import default_config, load_config, parse_config
from radlearn.diagnostics import DiagnosticThresholds
from radlearn.errors import ConfigError
from radlearn.forest import ForestConfig
from radlearn.nn import NetConfig, TrainConfig
from radlearn.volume import PhantomSpec


def test_defaults_are_fixed_seeds():
    cfg = default_config()
    assert cfg.seeds.phantom == 1
    assert cfg.extraction.n_bins == 32
    assert cfg.train.batch_size == 4
    assert cfg.train.learning_rate == 1e-4
    assert cfg.rfe.k_folds == 5


def test_partial_document_fills_defaults():
    cfg = parse_config({"phantom": {"n_samples_per_class": 3}})
    assert cfg.phantom.n_samples_per_class == 3
    assert cfg.phantom.dims == (16, 16, 16)
    assert cfg.filter.alpha == 0.05


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config({"phantomm": {}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"phantom": {"n_sample": 3}})


def test_tuple_coercion():
    cfg = parse_config({"phantom": {"dims": [8, 9, 10]},
                        "train": {"input_dims": [8, 8]}})
    assert cfg.phantom.dims == (8, 9, 10)
    assert cfg.train.input_dims == (8, 8)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(tmp_path / "bad.json")


def test_load_config_round_trip(tmp_path):
    doc = {"seeds": {"phantom": 42}, "rfe": {"k_folds": 3}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    cfg = load_config(tmp_path / "c.json")
    assert cfg.seeds.phantom == 42
    assert cfg.rfe.k_folds == 3


@pytest.mark.parametrize("section", [
    {"n_trees": "100"},
    {"n_trees": 2.5},
    {"n_trees": 0},
    {"n_trees": True},
    {"min_samples_leaf": 0},
    {"min_samples_leaf": False},
    {"max_depth": 0},
    {"max_depth": "3"},
    {"features_per_split": -2},
    {"features_per_split": 0},
    {"features_per_split": "log2"},
    {"features_per_split": 1.5},
    {"bootstrap": 1},
    {"bootstrap": "yes"},
])
def test_bad_forest_values_rejected(section):
    with pytest.raises(ConfigError, match=f"forest.{next(iter(section))}"):
        parse_config({"forest": section})


def test_good_forest_values_accepted():
    cfg = parse_config({"forest": {"n_trees": 3, "max_depth": None, "min_samples_leaf": 2,
                                   "features_per_split": 4, "bootstrap": False}})
    assert (cfg.forest.n_trees, cfg.forest.features_per_split) == (3, 4)
    assert parse_config({"forest": {"max_depth": 2}}).forest.max_depth == 2


@pytest.mark.parametrize("doc, key", [
    ({"seeds": {"phantom": -1}}, "seeds.phantom"),
    ({"seeds": {"kfold": "6"}}, "seeds.kfold"),
    ({"seeds": {"net": True}}, "seeds.net"),
    ({"seeds": {"train": 4.0}}, "seeds.train"),
    ({"phantom": {"n_samples_per_class": "3"}}, "phantom.n_samples_per_class"),
    ({"phantom": {"n_samples_per_class": 0}}, "phantom.n_samples_per_class"),
    ({"phantom": {"dims": [16, 16]}}, "phantom.dims"),
    ({"phantom": {"dims": [16, 16, 7]}}, "phantom.dims"),
    ({"phantom": {"dims": [16, 16.0, 16]}}, "phantom.dims"),
    ({"phantom": {"dims": 16}}, "phantom.dims"),
    ({"phantom": {"noise_sigma": -0.1}}, "phantom.noise_sigma"),
    ({"phantom": {"texture_amplitude": "2"}}, "phantom.texture_amplitude"),
    ({"phantom": {"modality": 3}}, "phantom.modality"),
    ({"extraction": {"n_bins": "32"}}, "extraction.n_bins"),
    ({"extraction": {"n_bins": 0}}, "extraction.n_bins"),
    ({"extraction": {"distance": 0}}, "extraction.distance"),
    ({"extraction": {"distance": True}}, "extraction.distance"),
    ({"extraction": {"alpha": -1}}, "extraction.alpha"),
    ({"extraction": {"alpha": 0.5}}, "extraction.alpha"),
    ({"rfe": {"k_folds": "5"}}, "rfe.k_folds"),
    ({"rfe": {"k_folds": 1}}, "rfe.k_folds"),
    ({"rfe": {"rerank": 1}}, "rfe.rerank"),
    ({"train": {"input_dims": 16}}, "train.input_dims"),
    ({"train": {"input_dims": [8]}}, "train.input_dims"),
    ({"train": {"input_dims": [8, 0]}}, "train.input_dims"),
    ({"train": {"input_dims": [8, 8.0]}}, "train.input_dims"),
    ({"train": {"conv_blocks": 4}}, "train.conv_blocks"),
    ({"train": {"conv_blocks": [4, 0]}}, "train.conv_blocks"),
    ({"train": {"hidden_dense": [16.5]}}, "train.hidden_dense"),
    ({"train": {"hidden_dense": [True]}}, "train.hidden_dense"),
    ({"train": {"loss": "mse"}}, "train.loss"),
    ({"train": {"optimizer": "sgd"}}, "train.optimizer"),
    ({"train": {"learning_rate": -1e-3}}, "train.learning_rate"),
    ({"train": {"learning_rate": "0.001"}}, "train.learning_rate"),
    ({"train": {"learning_rate": float("inf")}}, "train.learning_rate"),
    ({"train": {"batch_size": 0}}, "train.batch_size"),
    ({"train": {"epochs": 2.5}}, "train.epochs"),
    ({"train": {"epochs": True}}, "train.epochs"),
    ({"train": {"freeze_layers": "conv1"}}, "train.freeze_layers"),
    ({"train": {"freeze_layers": [1]}}, "train.freeze_layers"),
    ({"filter": {"alpha": "0.05"}}, "filter.alpha"),
    ({"filter": {"alpha": -0.1}}, "filter.alpha"),
    ({"filter": {"alpha": float("nan")}}, "filter.alpha"),
    ({"cluster": {"k": "3"}}, "cluster.k"),
    ({"cluster": {"k": 0}}, "cluster.k"),
    ({"cluster": {"k": 2.0}}, "cluster.k"),
    ({"diagnose": {"static_rel_tol": "1e-4"}}, "diagnose.static_rel_tol"),
    ({"diagnose": {"flip_corr_thresh": float("-inf")}}, "diagnose.flip_corr_thresh"),
    ({"diagnose": {"dead_epoch_quorum": None}}, "diagnose.dead_epoch_quorum"),
    ({"diagnose": {"flip_amp_thresh": False}}, "diagnose.flip_amp_thresh"),
    ({"phantom": {"texture_amplitude": 10 ** 400}}, "phantom.texture_amplitude"),
    ({"diagnose": {"flip_amp_thresh": -10 ** 400}}, "diagnose.flip_amp_thresh"),
    ({"filter": {"alpha": 10 ** 400}}, "filter.alpha"),
    ({"phantom": {"dims": [16, 16.0, 16]}}, r"^phantom\.dims\[1\] must be an integer, got 16\.0$"),
    ({"forest": {"n_trees": 0}}, r"^forest\.n_trees must be >= 1, got 0$"),
])
def test_bad_section_values_rejected(doc, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)


def test_good_section_values_accepted():
    cfg = parse_config({
        "phantom": {"n_samples_per_class": 1, "dims": [8, 8, 9], "texture_amplitude": 0,
                    "noise_sigma": 0.0, "modality": "T1"},
        "extraction": {"n_bins": 1, "distance": 3, "alpha": 0},
        "rfe": {"k_folds": 2, "rerank": True},
        "seeds": {"phantom": 0, "forest": 2 ** 40},
        "train": {"input_dims": [9, 11], "conv_blocks": [], "hidden_dense": [3, 2],
                  "loss": "hinge", "optimizer": "rmsprop", "learning_rate": 0,
                  "batch_size": 1, "epochs": 1, "freeze_layers": ["fc1", "fc_out"]},
        "filter": {"alpha": 0},
        "cluster": {"k": 1},
        "diagnose": {"flip_corr_thresh": -1, "dead_abs_tol": 0.0},
    })
    assert cfg.phantom.dims == (8, 8, 9)
    assert (cfg.extraction.distance, cfg.rfe.rerank, cfg.seeds.forest) == (3, True, 2 ** 40)
    assert cfg.train.input_dims == (9, 11) and cfg.train.freeze_layers == ["fc1", "fc_out"]
    assert (cfg.filter.alpha, cfg.cluster.k, cfg.diagnose.flip_corr_thresh) == (0, 1, -1)


@pytest.mark.parametrize("section", ["phantom", "forest", "train", "diagnose", "seeds"])
@pytest.mark.parametrize("value", [5, None, [], "x"])
def test_non_object_section_rejected(section, value):
    with pytest.raises(ConfigError, match=f"section '{section}' must be a JSON object"):
        parse_config({section: value})


@pytest.mark.parametrize("section", ["phantom", "forest", "train", "diagnose", "extraction"])
def test_seed_key_rejected_in_sections(section):
    with pytest.raises(ConfigError, match=f"unknown key.*'{section}'.*seed"):
        parse_config({section: {"seed": 3}})


@pytest.mark.parametrize("doc, key", [
    ({"train": {"freeze_layers": ["convX"]}}, "train.freeze_layers"),
    ({"train": {"conv_blocks": [], "freeze_layers": ["conv1"]}}, "train.freeze_layers"),
    ({"train": {"hidden_dense": [], "freeze_layers": ["fc1"]}}, "train.freeze_layers"),
    ({"train": {"input_dims": [4, 4], "conv_blocks": [2, 2, 2]}}, "train.conv_blocks"),
    ({"train": {"input_dims": [9, 4], "conv_blocks": [2, 2, 2]}}, "train.conv_blocks"),
    ({"train": {"learning_rate": 1e39}}, "train.learning_rate"),
])
def test_train_stage_mistakes_rejected_when_parsed(doc, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)


def test_pooling_depth_and_freeze_names_at_the_limit_accepted():
    cfg = parse_config({"train": {"input_dims": [8, 9], "conv_blocks": [1, 1, 1],
                                  "hidden_dense": [2, 2],
                                  "freeze_layers": ["conv3", "fc2", "fc_out"]}})
    assert cfg.train.layer_names == ["conv1", "conv2", "conv3", "fc1", "fc2", "fc_out"]


def test_sections_are_the_stage_classes():
    cfg = default_config()
    assert type(cfg.phantom) is PhantomSpec and type(cfg.forest) is ForestConfig
    assert type(cfg.diagnose) is DiagnosticThresholds
    assert isinstance(cfg.train, NetConfig) and isinstance(cfg.train, TrainConfig)
    assert cfg.phantom == PhantomSpec() and cfg.forest == ForestConfig()


@pytest.mark.parametrize("cls, kwargs, key", [
    (PhantomSpec, {"noise_sigma": -1}, "phantom.noise_sigma"),
    (ForestConfig, {"n_trees": 0}, "forest.n_trees"),
    (NetConfig, {"hidden_dense": [0]}, "train.hidden_dense"),
    (TrainConfig, {"epochs": 0}, "train.epochs"),
    (DiagnosticThresholds, {"static_rel_tol": float("nan")}, "diagnose.static_rel_tol"),
    (NetConfig, {"seed": "x"}, "train.seed"),
    (ForestConfig, {"seed": 1.5}, "forest.seed"),
    (ForestConfig, {"bootstrap": "yes"}, "forest.bootstrap"),
    (PhantomSpec, {"dims": [16, 16]}, "phantom.dims"),
])
def test_stage_classes_raise_config_error_from_python(cls, kwargs, key):
    with pytest.raises(ConfigError, match=key):
        cls(**kwargs)


def test_load_config_not_utf8(tmp_path):
    (tmp_path / "bad.json").write_bytes(b'{"seeds": {"phantom": "\xff"}}')
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(tmp_path / "bad.json")


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert parse_config(json.loads(block)) == default_config()
