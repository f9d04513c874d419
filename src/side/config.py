"""Run configuration: strict JSON schema, file loading, flag overrides."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .core import atomic_write, not_utf8
from .dsiq import MAP_THRESHOLD
from .errors import ConfigError
from .model import ModelConfig
from .train_eval import TrainConfig

STATES = ("ca", "tx", "synth")
BACKENDS = ("lexicon", "llm")


@dataclass(frozen=True)
class RunConfig:
    """Input paths, quantification and split settings, plus the network's configs."""

    dsci_path: str = "dsci.csv"
    social_path: str = "posts.jsonl"
    news_path: str = "news.jsonl"
    entities_path: str = "entities.txt"
    lexicon_path: str | None = None
    out_dir: str = "run"
    topic_count: int = 50
    map_threshold: float = MAP_THRESHOLD
    split: tuple[int, int, int] = (7, 1, 2)
    backend: str = "lexicon"
    state: str = "synth"
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.state not in STATES:
            raise ConfigError(f"state must be one of {STATES}, got {self.state!r}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.topic_count < 1:
            raise ConfigError("topic_count must be >= 1")
        if self.map_threshold < 0:
            raise ConfigError("map_threshold must be >= 0")
        if len(self.split) != 3 or not all(_is_whole(r) and r > 0 for r in self.split):
            raise ConfigError(f"split must be three positive integers, got {self.split!r}")
        object.__setattr__(self, "split", tuple(int(r) for r in self.split))

    def to_dict(self) -> dict:
        out: dict = {}
        for section, keys in LAYOUT.items():
            block = out.setdefault(section, {}) if section else out
            for key, path in keys.items():
                value = _get(self, path)
                block[key] = list(value) if isinstance(value, tuple) else value
        return out


#: The JSON layout: section ("" is the top level) -> key -> the RunConfig
#: field the key sets, written ``model.<field>`` or ``train.<field>`` if nested.
LAYOUT = {
    "": {"seed": "train.seed", "state": "state", "backend": "backend", "split": "split"},
    "paths": {
        "dsci": "dsci_path", "social": "social_path", "news": "news_path",
        "entities": "entities_path", "lexicon": "lexicon_path", "out_dir": "out_dir",
    },
    "windows": {"lookback": "model.lookback", "horizon": "model.horizon"},
    "dsiq": {"topic_count": "topic_count", "map_threshold": "map_threshold"},
    "model": {"width": "model.width", "hidden": "model.hidden", "ablation": "model.ablation"},
    "train": {
        "max_epochs": "train.max_epochs", "patience": "train.patience",
        "batch_size": "train.batch_size", "learning_rate": "train.learning_rate",
        "lambda_severity": "train.lambda_severity", "lambda_impact": "train.lambda_impact",
    },
}


def _get(cfg: RunConfig, path: str):
    owner, _, name = path.rpartition(".")
    return getattr(getattr(cfg, owner) if owner else cfg, name)


def _is_whole(value) -> bool:
    """An int or an integral float; booleans are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and float(value).is_integer()


def _cast(key: str, value, default):
    """Coerce a JSON value to the type of the field's default (str or None if it is None).

    Raises:
        ValueError: a non-string for a string field, anything but a JSON
            number (a string or a boolean, say) for a numeric field, a
            non-finite number, or a fraction for an int field.
    """
    if default is None or isinstance(default, str):
        if not isinstance(value, str) and not (default is None and value is None):
            raise ValueError(f"{key} must be a string, got {value!r}")
        return value
    kind = type(default)
    if kind in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    if kind is int and not _is_whole(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return kind(value)


def from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    blocks = {section: raw.get(section, {}) if section else raw for section in LAYOUT}
    for section, keys in LAYOUT.items():
        if not isinstance(blocks[section], dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = set(blocks[section]) - set(keys) - (set() if section else set(LAYOUT))
        if unknown:
            where = f"keys in config section {section!r}" if section else "top-level config keys"
            raise ConfigError(f"unknown {where}: {sorted(unknown)}")

    defaults = RunConfig()
    values: dict[str, dict] = {"": {}, "model": {}, "train": {}}
    try:
        for section, keys in LAYOUT.items():
            for key, path in keys.items():
                if key in blocks[section]:
                    owner, _, name = path.rpartition(".")
                    values[owner][name] = _cast(key, blocks[section][key], _get(defaults, path))
        # A file that lowers max_epochs without naming patience gets the
        # default patience capped to it; an explicit patience is kept as given.
        train_values = values["train"]
        if "max_epochs" in train_values and "patience" not in train_values:
            train_values["patience"] = min(defaults.train.patience, train_values["max_epochs"])
        model, train = ModelConfig(**values["model"]), TrainConfig(**values["train"])
        return RunConfig(**values[""], model=model, train=train)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def load(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(str(not_utf8(path))) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return from_dict(raw)


def save(path, cfg: RunConfig) -> None:
    with atomic_write(path) as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_overrides(cfg: RunConfig, seed=None, backend=None, state=None) -> RunConfig:
    """CLI flags win over file values."""
    updates = {k: v for k, v in (("backend", backend), ("state", state)) if v is not None}
    if seed is not None:
        updates["train"] = replace(cfg.train, seed=int(seed))
    return replace(cfg, **updates) if updates else cfg
