import argparse
import dataclasses
import inspect
import json
import re
import types
from pathlib import Path

import pytest

from woundfill import (
    Architecture,
    LossSpec,
    ScarRanges,
    TrainSettings,
    extract_filling,
    make_dataset,
    train,
)
from woundfill import config
from woundfill.cli import build_parser, main
from woundfill.config import RunConfig, _schema
from woundfill.errors import ConfigError, read_json

README = Path(__file__).resolve().parents[1] / "README.md"


def keyword_defaults(fn):
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty}


def test_defaults_are_the_library_defaults():
    cfg = RunConfig.load()
    assert cfg.training == TrainSettings()
    assert cfg.architecture == Architecture()
    assert cfg.dataset == keyword_defaults(make_dataset)
    assert cfg.dataset["ranges"] == ScarRanges()
    assert cfg.extraction == keyword_defaults(extract_filling)
    assert (cfg.dataset["count"], cfg.dataset["scars_per_mesh"]) == (8, 1)
    assert (cfg.data_dir, cfg.out_dir) == (None, None)


def write_config(tmp_path, doc) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_a_field_added_to_a_nested_record_gets_a_key_that_reaches_it(tmp_path, monkeypatch):
    # each nested record's keys are its own fields, so a new field needs no edit in config.py
    def with_field(record, name, hint, default):
        return dataclasses.make_dataclass(record.__name__,
                                          [(name, hint, dataclasses.field(default=default))],
                                          bases=(record,), frozen=True)

    monkeypatch.setattr(config, "ScarRanges",
                        with_field(ScarRanges, "falloff", tuple[float, float], (1.0, 1.0)))
    monkeypatch.setattr(config, "LossSpec", with_field(LossSpec, "weight", float, 1.0))
    path = write_config(tmp_path, {
        "dataset": {"falloff_range": [0.25, 0.5], "radius_range": [3, 4]},
        "training": {"loss_weight": 0.5, "loss_metric": "l1"},
    })
    cfg = RunConfig.load(path)
    ranges, loss = cfg.dataset["ranges"], cfg.training.loss
    assert (ranges.falloff, ranges.radius, ranges.depth) == ((0.25, 0.5), (3, 4), (0.5, 2.0))
    assert (loss.weight, loss.metric, loss.target) == (0.5, "l1", "ground_truth")


@pytest.mark.parametrize("section, key, value", [
    ("dataset", "count", "8"),
    ("architecture", "widths", 3),
    ("dataset", "split_ratios", 5),
    ("extraction", "k_sigma", None),
    ("training", "epochs", True),
    ("training", "lr", "x"),
    ("training", "max_steps", "x"),
    ("dataset", "radius_range", [3]),
    ("paths", "out_dir", 5),
])
def test_wrong_type_exits_1_naming_the_key(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path, {section: {key: value}})
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 1
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("section, key, value", [
    ("architecture", "m_clamp", [17, 4]),
    ("architecture", "m_clamp", [0, 0]),
    ("training", "seed", -1),
    ("dataset", "seed", -1),
    ("dataset", "radius_range", [8, 3]),
    ("dataset", "count", 0),
    ("dataset", "split_ratios", [0.5, 0.5, 0.5]),
])
def test_out_of_range_value_exits_1(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path, {section: {key: value}})
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


class _Py310Alias(types.GenericAlias):
    """A generic alias as Python 3.10 sees it: isinstance(alias, type) holds."""

    @property
    def __class__(self):
        return type


@pytest.mark.parametrize("hint, value, expected", [
    (_Py310Alias(tuple, (int, int)), [1, 2], (1, 2)),
    (_Py310Alias(tuple, (float, ...)), [1, 2.5], (1, 2.5)),
    (tuple[int, int], [1, 2], (1, 2)),
], ids=["py310-fixed", "py310-variadic", "fixed"])
def test_tuple_hints_are_read_by_their_origin(hint, value, expected):
    assert read_json(value, hint, "cfg.json", "config") == expected


@pytest.mark.parametrize("value", [[1, "a"], [1], [1, 2, 3], [1, True], 5])
def test_ill_fitting_tuple_is_a_type_error(value):
    with pytest.raises(TypeError):
        read_json(value, _Py310Alias(tuple, (int, int)), "cfg.json", "config")


def test_flags_override_the_file(tmp_path):
    cfg = write_config(tmp_path, {"training": {"lr": 0.5, "epochs": 3}})
    loaded = RunConfig.load(cfg, {"training": {"lr": 0.25}})
    assert (loaded.training.lr, loaded.training.epochs) == (0.25, 3)


def test_train_validates_its_settings(tmp_path):
    manifest = make_dataset(tmp_path / "d", count=1, subdivisions=1,
                            split_ratios=(1.0, 0.0, 0.0))
    with pytest.raises(ConfigError, match="batch_size"):
        train(manifest, tmp_path / "d", Architecture(), TrainSettings(batch_size=0),
              tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["lr", "eps", "beta1", "beta2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_train_settings_reject_non_finite_values(key, value):
    with pytest.raises(ConfigError, match=key):
        TrainSettings(**{key: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "huge-int"])
def test_non_finite_number_does_not_fit_float(value):
    with pytest.raises(TypeError):
        read_json(value, float, "cfg.json", "config")
    assert read_json(1.5, float, "cfg.json", "config") == 1.5


def test_readme_config_example_is_the_schema(tmp_path):
    text = README.read_text()
    example = re.search(r"`--config cfg\.json`.*?```json\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "cfg.json"
    path.write_text(example)
    loaded = RunConfig.load(path)
    assert (loaded.data_dir, loaded.out_dir) == ("data", "run")
    doc = json.loads(example)
    assert {sec: set(keys) for sec, keys in doc.items()} == {
        sec: set(keys) for sec, keys in _schema().items()
    }


def test_every_setting_flag_names_a_config_key():
    schema = _schema()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for p in sub.choices.values() for a in p._actions if "." in a.dest]
    assert "dataset.scars_per_mesh" in dests
    for dest in dests:
        section, key = dest.split(".")
        assert key in schema[section], dest
