"""Run configuration: one JSON document, validated up front, flags override keys.

Each section takes its keys, defaults and value types from the object it
configures, so every default is written once, in the library:

    dataset:      make_dataset's keywords (count=8, scars_per_mesh=1, seed=0,
                  split_ratios, subdivisions) plus the ScarRanges fields as
                  radius_range and depth_range
    architecture: the fields of model.Architecture
    training:     the fields of train.TrainSettings, its LossSpec as
                  loss_target and loss_metric
    extraction:   extract_filling's k_sigma
    paths:        data_dir, out_dir (flags take precedence)

A value must have the JSON type of its field's annotation, as
errors.read_json reads it for the manifest and the checkpoint header too: an
integer for int, any finite number for float (NaN and Infinity are errors), a
list of the given length and element type for a tuple, null only where None
is allowed. Unknown sections or keys are errors, not warnings. The values
are then checked by building what they configure: a DatasetManifest without
entries, the Architecture and the TrainSettings, each of which checks itself
when it is built, and k_sigma by filling.check_k_sigma, so each rule is
written once, in the library, and a value that breaks one is a ConfigError.
"""

from __future__ import annotations

import inspect
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, read_json
from .filling import check_k_sigma, extract_filling
from .losses import LossSpec
from .model import Architecture
from .scars import DatasetManifest, ScarRanges, make_dataset
from .train import TrainSettings

__all__ = ["RunConfig"]


def _keys(obj, key=str, skip=()) -> dict:
    """Config key -> (default, annotation) per defaulted parameter of a function or dataclass."""
    hints = typing.get_type_hints(obj)
    return {key(p.name): (p.default, hints[p.name])
            for p in inspect.signature(obj).parameters.values()
            if p.default is not p.empty and p.name not in skip}


def _schema() -> dict[str, dict[str, tuple]]:
    return {
        "dataset": {**_keys(make_dataset, skip=("ranges",)),
                    **_keys(ScarRanges, "{}_range".format)},
        "architecture": _keys(Architecture),
        "training": {**_keys(TrainSettings, skip=("loss",)), **_keys(LossSpec, "loss_{}".format)},
        "extraction": _keys(extract_filling),
        "paths": {"data_dir": (None, str | None), "out_dir": (None, str | None)},
    }


@dataclass
class RunConfig:
    dataset: dict = field(default_factory=dict)
    architecture: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)
    extraction: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)

    def resolve_path(self, key: str, flag_name: str):
        """paths.<key>, from its flag or the config file; one of them must set it."""
        value = self.paths[key]
        if value is None:
            raise ConfigError(f"missing {flag_name} (flag) or paths.{key} (config)")
        return value

    @classmethod
    def load(cls, path=None, overrides: dict | None = None) -> "RunConfig":
        """Merge defaults <- config file <- explicit overrides, then validate."""
        schema = _schema()
        merged = {sec: {key: default for key, (default, _) in keys.items()}
                  for sec, keys in schema.items()}

        def apply(doc: dict, origin: str):
            for sec, keys in doc.items():
                if sec not in schema:
                    raise ConfigError(f"{origin}: unknown config section {sec!r}")
                if not isinstance(keys, dict):
                    raise ConfigError(f"{origin}: section {sec!r} must be an object")
                for key, value in keys.items():
                    if key not in schema[sec]:
                        raise ConfigError(f"{origin}: unknown key {sec}.{key}")
                    hint = schema[sec][key][1]
                    try:
                        merged[sec][key] = read_json(value, hint, origin, sec)
                    except TypeError:
                        kind = inspect.formatannotation(hint)
                        raise ConfigError(
                            f"{origin}: {sec}.{key} must be {kind}, got {value!r}") from None

        if path is not None:
            try:
                doc = json.loads(Path(path).read_text())
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise ConfigError(f"config {path} must be a JSON object")
            apply(doc, str(path))
        if overrides:
            apply(overrides, "flags")
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def validate(self):
        DatasetManifest(**self.dataset_kwargs())
        self.model_architecture()
        self.train_settings()
        check_k_sigma(self.extraction["k_sigma"])

    def scar_ranges(self) -> ScarRanges:
        return ScarRanges(self.dataset["radius_range"], self.dataset["depth_range"])

    def dataset_kwargs(self) -> dict:
        """make_dataset's keyword arguments."""
        kwargs = {k: v for k, v in self.dataset.items() if not k.endswith("_range")}
        return {**kwargs, "ranges": self.scar_ranges()}

    def model_architecture(self) -> Architecture:
        return Architecture(**self.architecture)

    def train_settings(self) -> TrainSettings:
        tr = dict(self.training)
        loss = LossSpec(tr.pop("loss_target"), tr.pop("loss_metric"))
        return TrainSettings(loss=loss, **tr)
