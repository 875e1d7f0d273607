"""Run configuration: one JSON document, validated up front, flags override keys.

Each section takes its keys, defaults and value types from the object it
configures, so every default is written once, in the library:

    dataset:      make_dataset's keywords (count=8, scars_per_mesh=1, seed=0,
                  split_ratios, subdivisions), its ScarRanges as radius_range
                  and depth_range
    architecture: the fields of model.Architecture
    training:     the fields of train.TrainSettings, its LossSpec as
                  loss_target and loss_metric
    extraction:   extract_filling's keywords (k_sigma)
    paths:        data_dir, out_dir (flags take precedence)

_nested() names each nested record and the key pattern of its fields. A
value must have the JSON type of its field's annotation, as errors.read_json
reads it for the manifest and the checkpoint header too: an integer for int,
any finite number for float (NaN and Infinity are errors), a list of the
given length and element type for a tuple, null only where None is allowed.
Unknown sections or keys are errors, not warnings. RunConfig.load returns the
records the values configure, each built once, and each checks itself when
it is built: the dataset's ScarRanges and a DatasetManifest header (no splits
or specs), the Architecture, the TrainSettings and its LossSpec;
filling.check_k_sigma checks k_sigma. So each rule is written once, in the
library, and a value that breaks one is a ConfigError.
"""

from __future__ import annotations

import inspect
import json
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, read_json
from .filling import check_k_sigma, extract_filling
from .losses import LossSpec
from .model import Architecture
from .scars import DatasetManifest, ScarRanges, make_dataset
from .train import TrainSettings

__all__ = ["RunConfig"]


def _keys(obj, key=str) -> dict:
    """Config key -> (default, annotation) per defaulted parameter of a function or dataclass."""
    hints = typing.get_type_hints(obj)
    return {key(p.name): (p.default, hints[p.name])
            for p in inspect.signature(obj).parameters.values() if p.default is not p.empty}


def _nested() -> dict[str, tuple[str, type, str]]:
    """section -> (the parameter that takes a record, the record, its fields' key pattern)."""
    return {"dataset": ("ranges", ScarRanges, "{}_range"),
            "training": ("loss", LossSpec, "loss_{}")}


def _schema() -> dict[str, dict[str, tuple]]:
    schema = {
        "dataset": _keys(make_dataset),
        "architecture": _keys(Architecture),
        "training": _keys(TrainSettings),
        "extraction": _keys(extract_filling),
        "paths": {"data_dir": (None, str | None), "out_dir": (None, str | None)},
    }
    for sec, (name, record, pattern) in _nested().items():
        del schema[sec][name]
        schema[sec].update(_keys(record, pattern.format))
    return schema


def _unflatten(sec: str, values: dict) -> dict:
    """A section's values as keywords, its nested record built from the keys of its fields."""
    name, record, pattern = _nested()[sec]
    keys = {pattern.format(f): f for f in _keys(record)}
    kwargs = {k: v for k, v in values.items() if k not in keys}
    return {**kwargs, name: record(**{f: values[k] for k, f in keys.items()})}


@dataclass(frozen=True)
class RunConfig:
    dataset: dict  # make_dataset's keywords, ranges a ScarRanges
    architecture: Architecture
    training: TrainSettings
    extraction: dict  # extract_filling's keywords
    data_dir: str | None = None
    out_dir: str | None = None

    def resolve_path(self, key: str, flag_name: str):
        """paths.<key>, from its flag or the config file; one of them must set it."""
        value = getattr(self, key)
        if value is None:
            raise ConfigError(f"missing {flag_name} (flag) or paths.{key} (config)")
        return value

    @classmethod
    def load(cls, path=None, overrides: dict | None = None) -> "RunConfig":
        """Merge defaults <- config file <- explicit overrides, then build the records."""
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
        dataset = _unflatten("dataset", merged["dataset"])
        DatasetManifest(**dataset)
        architecture = Architecture(**merged["architecture"])
        training = TrainSettings(**_unflatten("training", merged["training"]))
        check_k_sigma(merged["extraction"]["k_sigma"])
        return cls(dataset, architecture, training, merged["extraction"], **merged["paths"])
