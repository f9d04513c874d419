"""Run config schema: strict parsing, round trip, overrides."""

import pytest

from side import config as cfgmod
from side.core import IMPACT_DIM
from side.errors import ConfigError
from side.model import ModelConfig
from side.train_eval import TrainConfig


def test_defaults_mirror_paper_settings():
    cfg = cfgmod.RunConfig()
    assert cfg.model.lookback == 52
    assert cfg.model.horizon == 5
    assert IMPACT_DIM == 22
    assert cfg.topic_count == 50
    assert cfg.train.max_epochs == 20
    assert cfg.train.patience == 10
    assert cfg.split == (7, 1, 2)


def test_round_trip_identity():
    cfg = cfgmod.RunConfig(
        model=ModelConfig(width=16), train=TrainConfig(seed=9), backend="llm", state="ca", out_dir="x"
    )
    assert cfgmod.from_dict(cfg.to_dict()) == cfg


def test_round_trip_non_default_in_every_section():
    cfg = cfgmod.RunConfig(
        dsci_path="d.csv",
        social_path="s.jsonl",
        news_path="n.jsonl",
        entities_path="e.txt",
        lexicon_path="lex.json",
        out_dir="out",
        topic_count=7,
        map_threshold=0.3,
        split=(6, 2, 2),
        backend="llm",
        state="tx",
        model=ModelConfig(lookback=12, horizon=3, width=8, hidden=24, ablation="no_news"),
        train=TrainConfig(
            max_epochs=9,
            patience=4,
            batch_size=5,
            learning_rate=0.02,
            seed=17,
            lambda_severity=0.5,
            lambda_impact=2.0,
        ),
    )
    raw = cfg.to_dict()
    assert raw["seed"] == 17 and raw["windows"] == {"lookback": 12, "horizon": 3}
    assert cfgmod.from_dict(raw) == cfg


def test_file_round_trip(tmp_path):
    cfg = cfgmod.RunConfig(model=ModelConfig(lookback=12, horizon=2), train=TrainConfig(seed=3))
    path = tmp_path / "run.json"
    cfgmod.save(path, cfg)
    assert cfgmod.load(path) == cfg


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        cfgmod.from_dict({"surprise": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="train"):
        cfgmod.from_dict({"train": {"momentum": 0.9}})
    # the determinant count is fixed by the determinant list, not configured
    with pytest.raises(ConfigError, match="unknown keys in config section 'dsiq'"):
        cfgmod.from_dict({"dsiq": {"determinant_count": 11}})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        cfgmod.from_dict({"state": "nv"})
    with pytest.raises(ConfigError):
        cfgmod.from_dict({"backend": "oracle"})
    with pytest.raises(ConfigError):
        cfgmod.from_dict({"dsiq": {"determinant_count": 7}})
    with pytest.raises(ConfigError):
        cfgmod.from_dict({"windows": {"lookback": 0}})
    with pytest.raises(ConfigError):
        cfgmod.from_dict({"model": {"ablation": "no_text"}})
    with pytest.raises(ConfigError):
        cfgmod.from_dict({"split": [7, 0, 2]})
    with pytest.raises(ConfigError):
        cfgmod.from_dict({"train": {"patience": 30}})
    # values that a cast to int or float would silently change
    with pytest.raises(ConfigError, match="lookback must be an integer"):
        cfgmod.from_dict({"windows": {"lookback": 12.7}})
    with pytest.raises(ConfigError, match="split"):
        cfgmod.from_dict({"split": [7, 1, 2.5]})
    with pytest.raises(ConfigError, match="split"):
        cfgmod.from_dict({"split": [7, True, 2]})
    with pytest.raises(ConfigError, match="patience must be an integer"):
        cfgmod.from_dict({"train": {"patience": True}})
    with pytest.raises(ConfigError, match="learning_rate must be a number"):
        cfgmod.from_dict({"train": {"learning_rate": False}})
    # a JSON string is not a number, whatever it spells
    for bad in ("nan", "inf", "5"):
        with pytest.raises(ConfigError, match="map_threshold must be a number"):
            cfgmod.from_dict({"dsiq": {"map_threshold": bad}})
        with pytest.raises(ConfigError, match="lambda_impact must be a number"):
            cfgmod.from_dict({"train": {"lambda_impact": bad}})
        with pytest.raises(ConfigError, match="topic_count must be an integer"):
            cfgmod.from_dict({"dsiq": {"topic_count": bad}})
        with pytest.raises(ConfigError, match="max_epochs must be an integer"):
            cfgmod.from_dict({"train": {"max_epochs": bad}})
    # values that would spoil a run without an error
    with pytest.raises(ConfigError, match="dsci must be a string"):
        cfgmod.from_dict({"paths": {"dsci": 123}})
    with pytest.raises(ConfigError, match="lexicon must be a string"):
        cfgmod.from_dict({"paths": {"lexicon": ["lex.json"]}})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="map_threshold must be a finite number"):
            cfgmod.from_dict({"dsiq": {"map_threshold": bad}})
        with pytest.raises(ConfigError, match="learning_rate must be a finite number"):
            cfgmod.from_dict({"train": {"learning_rate": bad}})
    for lr in (0.0, -1e-3):
        with pytest.raises(ConfigError, match="learning_rate must be > 0"):
            cfgmod.from_dict({"train": {"learning_rate": lr}})


@pytest.mark.parametrize("patience", [0, -3])
def test_patience_below_one_rejected(patience):
    with pytest.raises(ConfigError, match="patience must be >= 1"):
        cfgmod.from_dict({"train": {"patience": patience, "max_epochs": 2}})


@pytest.mark.parametrize(
    "key, value",
    [("lambda_severity", -1), ("lambda_impact", -0.5), ("lambda_severity", float("nan")), ("lambda_impact", float("inf"))],
)
def test_negative_or_non_finite_loss_weight_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        cfgmod.from_dict({"train": {key: value}})
    with pytest.raises(ValueError, match=f"{key} must be a finite number >= 0"):
        TrainConfig(**{key: value})


def test_loss_weights_must_not_both_be_zero():
    with pytest.raises(ConfigError, match="lambda_severity and lambda_impact must not both be 0"):
        cfgmod.from_dict({"train": {"lambda_severity": 0, "lambda_impact": 0}})
    assert cfgmod.from_dict({"train": {"lambda_impact": 0}}).train.lambda_severity == 1.0


@pytest.mark.parametrize("max_epochs, patience", [(3, 3), (10, 10), (40, 10)])
def test_lowered_max_epochs_caps_the_default_patience(max_epochs, patience):
    cfg = cfgmod.from_dict({"train": {"max_epochs": max_epochs}})
    assert (cfg.train.max_epochs, cfg.train.patience) == (max_epochs, patience)
    assert cfgmod.from_dict(cfg.to_dict()) == cfg


def test_whole_floats_accepted_for_int_fields():
    cfg = cfgmod.from_dict({"windows": {"lookback": 12.0}, "split": [7.0, 1, 2]})
    assert cfg.model.lookback == 12 and type(cfg.model.lookback) is int
    assert cfg.split == (7, 1, 2) and all(type(r) is int for r in cfg.split)


def test_null_values():
    with pytest.raises(ConfigError):
        cfgmod.from_dict({"train": {"patience": None}})
    assert cfgmod.from_dict({"paths": {"lexicon": None}}).lexicon_path is None
    with pytest.raises(ConfigError, match="out_dir must be a string"):
        cfgmod.from_dict({"paths": {"out_dir": None}})
    with pytest.raises(ConfigError, match="ablation must be a string"):
        cfgmod.from_dict({"model": {"ablation": None}})


def test_non_finite_literal_in_file_rejected(tmp_path):
    # Python's json module accepts NaN and Infinity, which JSON itself does not
    path = tmp_path / "run.json"
    path.write_text('{"dsiq": {"map_threshold": NaN}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="map_threshold must be a finite number"):
        cfgmod.load(path)


def test_overrides_win():
    cfg = cfgmod.RunConfig()
    out = cfgmod.apply_overrides(cfg, seed=42, backend="llm", state="tx")
    assert (out.train.seed, out.backend, out.state) == (42, "llm", "tx")
    assert cfgmod.apply_overrides(cfg) == cfg


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cfgmod.load(tmp_path / "nope.json")
