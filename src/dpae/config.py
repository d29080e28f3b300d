"""Experiment configuration: scale presets, JSON config files, flag merging.

Two scales are built in. `paper` is the full-size stack (200 x 38 matrices,
128-d latent, 1000 epochs, 356 events). `desk` is a reduced profile with
every structural mechanism intact, sized to run the whole pipeline on one
CPU core in minutes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .heads import HeadConfig
from .interpret import ShapConfig
from .model import DESK_PROFILE, PAPER_PROFILE
from .training import TrainConfig, check_setting

SCALE_PRESETS = {
    "paper": {"count": 356, "epochs": 1000},
    "desk": {"count": 64, "epochs": 150},
}

# Analysis window for the channel-importance cascade (break sizes, cm).
DEFAULT_SIZE_BAND = (9.1, 9.7)

# Each free-form section feeds one dataclass, minus the fields the command
# line sets itself and HeadConfig.kind, which nothing reads.
SECTIONS = {
    "train": (TrainConfig, {"epochs", "seed"}),
    "heads": (HeadConfig, {"kind", "seed"}),
    "shap": (ShapConfig, {"background", "seed", "exact_mode"}),
}

# The JSON value a section field takes, by the type of its default; a JSON
# true/false is never a number.
JSON_NUMBERS = {int: ("integer", int), float: ("number", (int, float))}

# The number type of each top-level field a config file may set.
TOP_LEVEL_NUMBERS = {"seed": int, "count": int, "epochs": int,
                     "snr_db": float, "ratio_pad": float}


def _check_number(label, value, kind):
    """Raise ValueError unless value is a JSON number of kind (int or float)."""
    what, accepted = JSON_NUMBERS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"config value {label} must be a JSON {what}, "
                         f"got {value!r}")


def _check_curriculum(pairs):
    """Raise ValueError unless pairs is a nonempty list of [snr_db, ratio_pad]
    numbers; TrainConfig checks their range."""
    if not isinstance(pairs, list) or not pairs or any(
            not isinstance(pair, list) or len(pair) != 2 for pair in pairs):
        raise ValueError(f"config value train.curriculum must be a nonempty "
                         f"list of [snr_db, ratio_pad] pairs, got {pairs!r}")
    for snr, pad in pairs:
        _check_number("train.curriculum", snr, float)
        _check_number("train.curriculum", pad, float)


@dataclass
class ExperimentConfig:
    scale: str = "desk"
    seed: int = 0
    count: int | None = None
    epochs: int | None = None
    snr_db: float = 30.0
    ratio_pad: float = 0.2
    size_band: tuple = DEFAULT_SIZE_BAND
    train: dict = field(default_factory=dict)
    heads: dict = field(default_factory=dict)
    shap: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.scale, str) or self.scale not in SCALE_PRESETS:
            raise ValueError(f"unknown scale {self.scale!r}")
        preset = SCALE_PRESETS[self.scale]
        if self.count is None:
            self.count = preset["count"]
        if self.epochs is None:
            self.epochs = preset["epochs"]
        for name, kind in TOP_LEVEL_NUMBERS.items():
            _check_number(name, getattr(self, name), kind)
        if self.seed < 0:
            raise ValueError(f"config value seed must not be negative, "
                             f"got {self.seed}")
        check_setting("perturbation setting", self.snr_db, self.ratio_pad)
        if not isinstance(self.size_band, (list, tuple)) or len(self.size_band) != 2:
            raise ValueError(f"config value size_band must be two numbers, "
                             f"got {self.size_band!r}")
        for value in self.size_band:
            _check_number("size_band", value, float)
        self.size_band = (float(self.size_band[0]), float(self.size_band[1]))
        if not (self.size_band[0] <= self.size_band[1]):
            raise ValueError(f"config value size_band needs lo <= hi, "
                             f"got {list(self.size_band)}")
        for name, (cls, set_by_cli) in SECTIONS.items():
            section = getattr(self, name)
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be an object")
            defaults = {f.name: f.default for f in fields(cls)
                        if f.name not in set_by_cli}
            unknown = set(section) - set(defaults)
            if unknown:
                raise ValueError(
                    f"unknown {name} config keys: {sorted(unknown)}")
            for key, value in section.items():
                if type(defaults[key]) in JSON_NUMBERS:
                    _check_number(f"{name}.{key}", value, type(defaults[key]))
        if "curriculum" in self.train:
            _check_curriculum(self.train["curriculum"])
        # The sections' own range checks, before any command reads a dataset.
        TrainConfig(**self.train)
        HeadConfig(**self.heads)

    def profile(self):
        return PAPER_PROFILE if self.scale == "paper" else DESK_PROFILE


def load_config_file(path):
    """Read a JSON config file; unknown keys are rejected."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return doc


def resolve_config(config_path=None, **overrides):
    """Defaults, then config-file values, then explicit (non-None) flags."""
    merged = {} if config_path is None else dict(load_config_file(config_path))
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return ExperimentConfig(**merged)
