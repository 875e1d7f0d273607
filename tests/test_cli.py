import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import clamps_ignored, format_2_hierarchy, pinched_rim_pair
import woundfill
from woundfill import (
    Architecture,
    Autoencoder,
    Mesh,
    icosphere,
    is_watertight,
    load_mesh_path,
    save_mesh_path,
)
from woundfill.checkpoint import MAGIC, save_checkpoint
from woundfill import cli
from woundfill.cli import main
from woundfill.scars import load_manifest


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    """The JSON file at path, which must be strict JSON: json.dumps writes a non-finite
    float as NaN or Infinity, which other JSON readers refuse."""
    def refuse(constant):
        raise ValueError(f"{path}: non-finite JSON constant {constant}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    with clamps_ignored():
        code = run(["gen-data", "--out", out, "--count", "4", "--scars", "2",
                    "--seed", "7", "--ratios", "0.5", "0.25", "0.25",
                    "--subdivisions", "1"])
    assert code == 0
    return out


def test_gen_data_file_counts(gen_dir):
    files = sorted(p.name for p in gen_dir.glob("*.ply"))
    assert len(files) == 12  # 4 gt + 8 wounded
    assert (gen_dir / "manifest.json").exists()


@pytest.mark.filterwarnings("ignore:scar radius .* clamping:UserWarning")
def test_gen_data_rerun_identical(gen_dir, tmp_path):
    out2 = tmp_path / "data2"
    assert run(["gen-data", "--out", out2, "--count", "4", "--scars", "2",
                "--seed", "7", "--ratios", "0.5", "0.25", "0.25",
                "--subdivisions", "1"]) == 0
    assert (gen_dir / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    for f in gen_dir.glob("*.ply"):
        assert f.read_bytes() == (out2 / f.name).read_bytes()


@pytest.mark.filterwarnings("ignore:scar radius .* clamping:UserWarning")
def test_gen_data_split_ratio_override(tmp_path):
    out = tmp_path / "d"
    assert run(["gen-data", "--out", out, "--count", "10", "--scars", "1",
                "--seed", "1", "--ratios", "0.8", "0.1", "0.1",
                "--subdivisions", "1"]) == 0
    doc = read_json(out / "manifest.json")
    heads = {s: set() for s in ("train", "val", "test")}
    for head, split in enumerate(doc["splits"]):
        heads[split].add(head)
    assert (len(heads["train"]), len(heads["val"]), len(heads["test"])) == (8, 1, 1)


def test_preprocess_noop_is_byte_identical(tmp_path, gen_dir):
    src = next(gen_dir.glob("*_gt.ply"))
    out = tmp_path / "clean"
    assert run(["preprocess", src, "--out", out]) == 0
    assert (out / src.name).read_bytes() == src.read_bytes()


def test_preprocess_repairs_fixture(tmp_path, capsys):
    sphere = icosphere(1)
    eye = icosphere(1)
    combined = Mesh(
        np.concatenate([sphere.positions, eye.positions * 0.1 + [3, 0, 0]]),
        np.concatenate([sphere.faces[1:], eye.faces + sphere.n_vertices]),
    )
    src = tmp_path / "broken.ply"
    save_mesh_path(combined, src)
    out = tmp_path / "clean"
    assert run(["preprocess", src, "--out", out]) == 0
    cleaned = load_mesh_path(out / "broken.ply")
    assert is_watertight(cleaned)
    assert cleaned.n_vertices == sphere.n_vertices + 1  # hole fill adds the centroid
    assert "repaired" in capsys.readouterr().out


def test_preprocess_caps_a_hole_carrying_each_channel_at_its_rim_mean(tmp_path):
    sphere = icosphere(1)
    src = tmp_path / "holed.ply"
    save_mesh_path(Mesh(sphere.positions, sphere.faces[1:],
                        {"error": np.arange(sphere.n_vertices, dtype=np.float64)}), src)
    assert run(["preprocess", src, "--out", tmp_path / "clean"]) == 0
    cleaned = load_mesh_path(tmp_path / "clean" / "holed.ply")
    assert is_watertight(cleaned) and cleaned.n_vertices == 43
    # the channel is the vertex index, and the cap's value the rim's mean, 8.667, as float32
    assert cleaned.attributes["error"][42] == np.float32(np.mean(sphere.faces[0]))


def test_train_eval_round_trip(tmp_path, gen_dir):
    run_dir = tmp_path / "run"
    assert run(["train", "--data", gen_dir, "--out", run_dir,
                "--max-steps", "10", "--epochs", "50",
                "--arch-ratios", "1.0", "0.3", "--widths", "3", "8"]) == 0
    assert (run_dir / "model.ckpt").exists()
    assert (run_dir / "metrics.csv").read_text().startswith("epoch,split,loss")
    assert run(["eval", "--data", gen_dir, "--out", run_dir,
                "--checkpoint", run_dir / "model.ckpt", "--split", "test"]) == 0
    report = read_json(run_dir / "eval_test.json")
    assert report["min_vertex_distance"] <= report["mean_vertex_distance"]
    assert report["mean_vertex_distance"] <= report["max_vertex_distance"]


def test_eval_identity(tmp_path, gen_dir):
    out = tmp_path / "ev"
    assert run(["eval", "--data", gen_dir, "--out", out, "--identity",
                "--split", "train", "--write-meshes"]) == 0
    assert (out / "eval_train.json").exists()
    assert list(out.glob("*_recon.ply"))


# sha256 of what extract-fill wrote before it loaded --output against --input
EXTRACT_FILL_SHA256 = {
    "fill_report.json": "394cf7dbbd23977a20930916967a053a56057b45d814e618ba958af6d8993fef",
    "filling.ply": "71d6a01d712e9f7f3383e5471a127959e1e1ed1e755a127b1fe80bffdcd43978",
    "filling.stl": "cfb96082f05185f64e927078ae641da33730367a57447db23cd074b0bb6fe641",
}


def test_extract_fill_cli(tmp_path, monkeypatch):
    data = tmp_path / "d"
    assert run(["gen-data", "--out", data, "--count", "1", "--scars", "1",
                "--seed", "3", "--ratios", "1.0", "0.0", "0.0",
                "--subdivisions", "3", "--config", _ranges_config(tmp_path)]) == 0
    pairs, real = [], cli.extract_filling
    monkeypatch.setattr(cli, "extract_filling",
                        lambda a, b, **kw: pairs.append((a, b)) or real(a, b, **kw))
    fill = tmp_path / "fill"
    assert run(["extract-fill", "--input", data / "0000_00.ply",
                "--output", data / "0000_gt.ply", "--out", fill]) == 0
    [(wounded, output)] = pairs
    assert output.faces is wounded.faces  # the output file is loaded against the input
    report = read_json(fill / "fill_report.json")
    assert report["watertight"]
    for name, digest in EXTRACT_FILL_SHA256.items():
        assert hashlib.sha256((fill / name).read_bytes()).hexdigest() == digest, name


def test_extract_fill_of_a_pinched_rim_writes_the_open_shells_as_ply_only(tmp_path, capsys):
    wounded, output = pinched_rim_pair()
    save_mesh_path(wounded, tmp_path / "wounded.ply")
    save_mesh_path(output, tmp_path / "output.ply")
    fill = tmp_path / "fill"
    assert run(["extract-fill", "--input", tmp_path / "wounded.ply",
                "--output", tmp_path / "output.ply", "--out", fill]) == 0
    out = capsys.readouterr().out
    assert "note: open patches emitted: non-simple boundary" in out
    assert "watertight = False" in out
    assert not read_json(fill / "fill_report.json")["watertight"]
    assert (fill / "filling.ply").exists()
    assert not (fill / "filling.stl").exists()


@pytest.mark.parametrize("command", ["extract-fill", "stats"])
def test_overflowing_distance_exits_3_naming_the_vertex(tmp_path, capsys, command):
    # vertex 2 sits at +1e308 in one file and -1e308 in the other: its distance overflows
    for name, x in (("a.obj", "1e308"), ("b.obj", "-1e308")):
        (tmp_path / name).write_text(f"v 0 0 0\nv 1 0 0\nv {x} 1 0\nv 0 0 1\n"
                                     "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n")
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    args = [a, b] if command == "stats" else ["--input", a, "--output", b,
                                              "--out", tmp_path / "f"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, *args]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical error: non-finite vertex distance inf at vertex 2\n"
    assert not (tmp_path / "f").exists()


def _ranges_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"radius_range": [3, 4]}}))
    return cfg


def test_extract_fill_identity_exits_2(tmp_path, capsys, gen_dir):
    src = next(gen_dir.glob("*_00.ply"))
    code = run(["extract-fill", "--input", src, "--output", src,
                "--out", tmp_path / "f"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "data error: no filling detected: no distances beyond the outlier threshold\n"
    assert not (tmp_path / "f").exists()


def test_stats_prints_distances(capsys, gen_dir):
    a = next(gen_dir.glob("*_gt.ply"))
    b = next(gen_dir.glob("*_00.ply"))
    assert run(["stats", a, b]) == 0
    out = capsys.readouterr().out
    assert "mean vertex distance" in out


@pytest.mark.parametrize("command", ["stats", "extract-fill"])
def test_zero_vertex_mesh_exits_2_without_warnings(tmp_path, capsys, command):
    empty = tmp_path / "empty.ply"
    save_mesh_path(Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)), empty)
    args = [empty, empty] if command == "stats" else [
        "--input", empty, "--output", empty, "--out", tmp_path / "f"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error:")


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen-data", "--no-such-flag"])
    assert exc.value.code == 1


def test_missing_out_flag_and_config_exits_1():
    assert run(["gen-data"]) == 1  # neither --out nor paths.out_dir


def test_paths_section_supplies_out_dir(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "paths": {"out_dir": str(tmp_path / "d")},
        "dataset": {"count": 1, "scars_per_mesh": 1, "subdivisions": 1,
                    "split_ratios": [1.0, 0.0, 0.0]},
    }))
    assert run(["gen-data", "--config", cfg]) == 0
    assert (tmp_path / "d" / "manifest.json").exists()


def test_unknown_config_key_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"counts": 3}}))
    code = run(["gen-data", "--out", tmp_path / "d", "--config", cfg])
    assert code == 1


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config {path}: "),
    ('{"dataset": ', "config {path} is not valid JSON: "),
    ("[]", "config {path} must be a JSON object"),
    ('{"datasets": {}}', "{path}: unknown config section 'datasets'"),
    ('{"dataset": 3}', "{path}: section 'dataset' must be an object"),
], ids=["missing", "not-json", "array", "unknown-section", "section-not-object"])
def test_refused_config_document_exits_1_before_writing(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert run(["gen-data", "--out", tmp_path / "d", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: " + message.format(path=cfg))
    assert not (tmp_path / "d").exists()


def test_infinite_depth_range_exits_1_before_writing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dataset": {"depth_range": [0.5, 1e999]}}')  # json reads 1e999 as inf
    assert run(["gen-data", "--out", tmp_path / "d", "--config", cfg, "--count", "1"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


# (command, setting, its value as JSON text, the same value as flags or None without a flag)
NON_FINITE = [
    ("gen-data", "dataset.split_ratios", "[NaN, 0.5, 0.5]", ["--ratios", "nan", "0.5", "0.5"]),
    ("train", "architecture.ratios", "[1.0, NaN]", ["--arch-ratios", "1.0", "nan"]),
    ("train", "training.lr", "NaN", ["--lr", "nan"]),
    ("train", "training.lr", "Infinity", ["--lr", "inf"]),
    ("extract-fill", "extraction.k_sigma", "NaN", ["--k-sigma", "nan"]),
]


@pytest.mark.parametrize("command, setting, value, flags", [
    pytest.param(command, setting, value, flags if source == "flag" else None,
                 id=f"{setting}={value}-{source}")
    for command, setting, value, flags in NON_FINITE
    for source in ("flag", "file") if flags or source == "file"
])
def test_non_finite_setting_exits_1_before_writing(tmp_path, capsys, command, setting, value,
                                                   flags):
    args = {"gen-data": [], "train": ["--data", tmp_path / "data"],
            "extract-fill": ["--input", tmp_path / "a.ply", "--output", tmp_path / "b.ply"]}
    args = [command, *args[command], "--out", tmp_path / "out"]
    if flags is None:
        section, key = setting.split(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{section}": {{"{key}": {value}}}}}')  # json reads NaN and Infinity
        args += ["--config", cfg]
    assert run(args + (flags or [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and setting in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if flags else ["cfg.json"])


@pytest.mark.parametrize("args", [
    lambda tmp, data: ["stats", tmp / "nope.ply", tmp / "nope.ply"],
    lambda tmp, data: ["stats", tmp, tmp],
    lambda tmp, data: ["train", "--data", data / "manifest.json", "--out", tmp / "run"],
    lambda tmp, data: ["eval", "--data", data, "--out", tmp / "ev", "--checkpoint", tmp],
    lambda tmp, data: ["extract-fill", "--input", tmp, "--output", next(data.glob("*_gt.ply")),
                       "--out", tmp / "fill"],
], ids=["missing", "stats-directory", "data-is-a-file", "checkpoint-directory",
        "input-directory"])
def test_missing_file_exits_2(tmp_path, capsys, gen_dir, args):
    assert run(args(tmp_path, gen_dir)) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--identity", "--checkpoint", "model.ckpt"],
    [],
], ids=["both", "neither"])
def test_eval_takes_exactly_one_of_checkpoint_and_identity(tmp_path, gen_dir, flags):
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--data", gen_dir, "--out", tmp_path / "ev", *flags])
    assert exc.value.code == 1
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("ratios, widths", [
    (["0.5", "0.25"], ["3", "8"]), (["1.0", "1.0"], ["3", "8"]),
    (["1.0"], ["3"]),  # no level below the mesh for the encoder to pool to
], ids=["leading", "repeated", "one-level"])
def test_bad_arch_ratios_exit_1(tmp_path, capsys, gen_dir, ratios, widths):
    args = ["train", "--data", gen_dir, "--out", tmp_path / "run",
            "--arch-ratios", *ratios, "--widths", *widths]
    assert run(args) == 1
    assert "config error: ratios" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # so no metrics.csv


def test_arch_ratio_too_small_for_the_mesh_exits_2_naming_the_key(tmp_path, capsys, gen_dir):
    args = ["train", "--data", gen_dir, "--out", tmp_path / "run",
            "--arch-ratios", "1.0", "0.001", "--widths", "3", "8"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "data error: architecture.ratios: ratio 0.001 leaves 0 of the mesh's 42 vertices" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("block", ["vertex", "face"])
def test_truncated_ply_exits_2(tmp_path, capsys, block):
    sphere = icosphere(1)
    data = tmp_path / "a.ply"
    save_mesh_path(sphere, data)
    raw = data.read_bytes()
    face_bytes = sphere.n_faces * 13  # uchar count + three int32 indices
    cut = face_bytes + 5 if block == "vertex" else 7  # bytes dropped from the end
    (tmp_path / "cut.ply").write_bytes(raw[:-cut])
    assert run(["stats", data, tmp_path / "cut.ply"]) == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    b"ply\nformat\nelement vertex 0\nend_header\n",
    b"ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
    b"property float x\nproperty float x\nproperty float y\nproperty float z\nend_header\n",
], ids=["bare-format", "duplicate-property"])
def test_malformed_ply_header_exits_2(tmp_path, capsys, header):
    good = tmp_path / "a.ply"
    save_mesh_path(icosphere(1), good)
    (tmp_path / "bad.ply").write_bytes(header)
    assert run(["stats", good, tmp_path / "bad.ply"]) == 2
    assert "line " in capsys.readouterr().err


def test_nonmanifold_preprocess_exits_2(tmp_path):
    pos = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1.0]])
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    src = tmp_path / "bad.ply"
    save_mesh_path(Mesh(pos, faces), src)
    assert run(["preprocess", src, "--out", tmp_path / "out"]) == 2


@pytest.mark.parametrize("damage", ["truncated", "non-json-header", "index-out-of-range"])
def test_damaged_checkpoint_eval_exits_2(tmp_path, capsys, gen_dir, damage):
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, Autoencoder.build(icosphere(1), Architecture((1.0, 0.3), (3, 5)), 0))
    raw = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    if damage == "truncated":
        bad.write_bytes(raw[:len(raw) // 2])
    elif damage == "non-json-header":
        bad.write_bytes(MAGIC + (9).to_bytes(8, "little") + b"not json!" + raw[16:])
    else:  # the last index of the last block, pool_down[0].indices, past its n_in
        bad.write_bytes(raw[:-8] + (10**6).to_bytes(8, "little"))
    assert run(["eval", "--data", gen_dir, "--out", tmp_path / "ev",
                "--checkpoint", bad, "--split", "test"]) == 2
    assert str(bad) in capsys.readouterr().err


def test_non_finite_checkpoint_eval_exits_2(tmp_path, capsys, gen_dir):
    run_dir = tmp_path / "run"
    assert run(["train", "--data", gen_dir, "--out", run_dir, "--max-steps", "1",
                "--arch-ratios", "1.0", "0.3", "--widths", "3", "8"]) == 0
    raw = (run_dir / "model.ckpt").read_bytes()
    start = len(MAGIC) + 8
    header_len = int.from_bytes(raw[len(MAGIC):start], "little")
    header = json.loads(raw[start:start + header_len])
    at = start + header_len
    for block in header["blocks"]:
        if block["name"] == "dec0.conv.bias":
            break
        at += 8 * int(np.prod(block["shape"]))
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(raw[:at] + np.array([np.nan]).tobytes() + raw[at + 8:])
    assert run(["eval", "--data", gen_dir, "--out", tmp_path / "ev",
                "--checkpoint", bad, "--split", "test"]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "dec0.conv.bias" in err
    assert not (tmp_path / "ev" / "eval_test.json").exists()


def test_zero_density_checkpoint_eval_exits_3(tmp_path, capsys, gen_dir):
    model = Autoencoder.build(load_mesh_path(gen_dir / "0000_gt.ply"),
                              Architecture((1.0, 0.3), (3, 8)), 0)
    model.parameters()["enc0.res.rho"][:] = 0.0
    bad = tmp_path / "zero.ckpt"
    save_checkpoint(bad, model)
    assert run(["eval", "--data", gen_dir, "--out", tmp_path / "ev",
                "--checkpoint", bad, "--split", "test"]) == 3
    err = capsys.readouterr().err
    first = load_manifest(gen_dir / "manifest.json").split_entries("test")[0]
    assert (f"numerical error: test mesh {Path(first.wounded_file).stem}: enc0.res on the model "
            "input: all-zero density coefficients in neighborhood 0") in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev" / "eval_test.json").exists()


def test_overflowing_checkpoint_eval_exits_3_before_writing(tmp_path, capsys, gen_dir):
    # every parameter is finite, so the checkpoint loads, but the output overflows the
    # distances: eval used to print `inf` and write Infinity into eval_test.json
    model = Autoencoder.build(load_mesh_path(gen_dir / "0000_gt.ply"),
                              Architecture((1.0, 0.3), (3, 8)), 0)
    model.parameters()["dec0.conv.bias"][:] = 1e200
    bad = tmp_path / "big.ckpt"
    save_checkpoint(bad, model)
    first = load_manifest(gen_dir / "manifest.json").split_entries("test")[0]
    with np.errstate(over="ignore"):
        code = run(["eval", "--data", gen_dir, "--out", tmp_path / "ev", "--checkpoint", bad,
                    "--split", "test", "--write-meshes"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"numerical error: test mesh {Path(first.wounded_file).stem}: non-finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev" / "eval_test.json").exists()
    assert not list((tmp_path / "ev").glob("*.ply"))


def test_overflowing_first_block_eval_exits_3_naming_the_block_and_mesh(tmp_path, capsys,
                                                                       gen_dir):
    # enc0's output overflows, so the next block's input check fails: the message used to
    # be only "non-finite values in input feature map"
    model = Autoencoder.build(load_mesh_path(gen_dir / "0000_gt.ply"),
                              Architecture((1.0, 0.3), (3, 8)), 0)
    model.parameters()["enc0.conv.bias"][:] = np.finfo(float).max
    model.parameters()["enc0.res.matrix"][:] = 1e308
    bad = tmp_path / "big.ckpt"
    save_checkpoint(bad, model)
    first = load_manifest(gen_dir / "manifest.json").split_entries("test")[0]
    with np.errstate(over="ignore"):
        code = run(["eval", "--data", gen_dir, "--out", tmp_path / "ev", "--checkpoint", bad,
                    "--split", "test"])
    assert code == 3
    err = capsys.readouterr().err
    assert (f"numerical error: test mesh {Path(first.wounded_file).stem}: dec0.conv on enc0's "
            "output: non-finite values in input feature map") in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev" / "eval_test.json").exists()


def test_eval_diverging_on_a_later_mesh_keeps_the_earlier_reconstructions(
        tmp_path, capsys, gen_dir, monkeypatch):
    model = Autoencoder.build(load_mesh_path(gen_dir / "0000_gt.ply"),
                              Architecture((1.0, 0.3), (3, 8)), 0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model)
    forward, calls = Autoencoder.forward, []

    def nan_after_the_first(self, x, keep_cache=False):
        calls.append(1)
        y = forward(self, x, keep_cache)
        return y if len(calls) == 1 else np.full_like(y, np.nan)

    monkeypatch.setattr(Autoencoder, "forward", nan_after_the_first)
    first, second = (Path(e.wounded_file).stem for e in
                     load_manifest(gen_dir / "manifest.json").split_entries("test")[:2])
    assert run(["eval", "--data", gen_dir, "--out", tmp_path / "ev", "--checkpoint", ckpt,
                "--split", "test", "--write-meshes"]) == 3
    assert f"numerical error: test mesh {second}: non-finite" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "eval_test.json").exists()
    # the meshes before the failing one were written as they were evaluated
    assert sorted(p.name for p in (tmp_path / "ev").glob("*.ply")) == [f"{first}_recon.ply"]


def _header(raw: bytes) -> tuple[dict, bytes]:
    """(header, parameter bytes) of a checkpoint file's contents."""
    start = len(MAGIC) + 8
    end = start + int.from_bytes(raw[len(MAGIC):start], "little")
    return json.loads(raw[start:end]), raw[end:]


def test_format_2_checkpoint_eval_exits_2(tmp_path, capsys, gen_dir):
    # format 2 stored the hierarchy's index arrays in the JSON header
    good = tmp_path / "good.ckpt"
    model = Autoencoder.build(load_mesh_path(gen_dir / "0000_gt.ply"),
                              Architecture((1.0, 0.3), (3, 8)), 0)
    save_checkpoint(good, model)
    header, body = _header(good.read_bytes())
    header.update(format_version=2, hierarchy=format_2_hierarchy(model.hierarchy))
    floats = 8 * sum(int(np.prod(b["shape"])) for b in header["blocks"])
    text = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "v2.ckpt"
    bad.write_bytes(MAGIC + len(text).to_bytes(8, "little") + text + body[:floats])
    assert run(["eval", "--data", gen_dir, "--out", tmp_path / "ev",
                "--checkpoint", bad, "--split", "test"]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "format version 2 is not supported" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev" / "eval_test.json").exists()


def test_parent_format_relu_checkpoint_eval_exits_2(tmp_path, capsys, gen_dir):
    # the header as format 1 wrote it for a ReLU model: never run as ELU
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, Autoencoder.build(load_mesh_path(gen_dir / "0000_gt.ply"),
                                            Architecture((1.0, 0.3), (3, 8)), 0))
    header, body = _header(good.read_bytes())
    header["format_version"] = 1
    header["architecture"].update(activation="relu", elu_alpha=1.0)
    del header["hierarchy"]["faces_sha256"]
    text = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "relu.ckpt"
    bad.write_bytes(MAGIC + len(text).to_bytes(8, "little") + text + body)
    assert run(["eval", "--data", gen_dir, "--out", tmp_path / "ev",
                "--checkpoint", bad, "--split", "test"]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "version 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev" / "eval_test.json").exists()


def _relabelled_copy(src, dst, names=None):
    """A copy of dataset src whose files in names (default: all) have their vertices
    renumbered: same vertex count and a consistent face list, but other faces."""
    dst.mkdir()
    (dst / "manifest.json").write_bytes((src / "manifest.json").read_bytes())
    perm = None
    for path in sorted(src.glob("*.ply")):
        mesh = load_mesh_path(path)
        if perm is None:
            perm = np.random.default_rng(0).permutation(mesh.n_vertices)
        if names is None or path.name in names:
            positions = np.empty_like(mesh.positions)
            positions[perm] = mesh.positions  # vertex i becomes vertex perm[i]
            mesh = Mesh(positions, perm[mesh.faces])
        save_mesh_path(mesh, dst / path.name)
    return dst


def test_eval_on_relabelled_vertices_exits_2(tmp_path, capsys, gen_dir):
    # same vertex count and a consistent face list, but not the faces the model was trained on
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, Autoencoder.build(load_mesh_path(gen_dir / "0000_gt.ply"),
                                            Architecture((1.0, 0.3), (3, 8)), 0))
    moved = _relabelled_copy(gen_dir, tmp_path / "moved")
    assert run(["eval", "--data", gen_dir, "--out", tmp_path / "ev",
                "--checkpoint", ckpt, "--split", "test"]) == 0
    capsys.readouterr()
    assert run(["eval", "--data", moved, "--out", tmp_path / "ev2",
                "--checkpoint", ckpt, "--split", "test"]) == 2
    err = capsys.readouterr().err
    assert f"data error: {moved}: the test meshes' faces" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev2" / "eval_test.json").exists()


def test_train_on_relabelled_val_split_exits_2(tmp_path, capsys, gen_dir):
    # the val meshes' faces are not the train meshes': their loss must not pick a checkpoint
    val = {name for e in load_manifest(gen_dir / "manifest.json").split_entries("val")
           for name in (e.gt_file, e.wounded_file)}
    assert val
    moved = _relabelled_copy(gen_dir, tmp_path / "moved", val)
    assert run(["train", "--data", moved, "--out", tmp_path / "run", "--max-steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "face topology differs" in err and any(str(moved / name) in err for name in val)
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_empty_train_split_exits_2_without_a_run_dir(tmp_path, capsys):
    data = tmp_path / "data"
    with clamps_ignored():
        assert run(["gen-data", "--out", data, "--count", "4", "--ratios", "0", "0.5", "0.5",
                    "--subdivisions", "1"]) == 0
    assert run(["train", "--data", data, "--out", tmp_path / "run", "--max-steps", "1"]) == 2
    assert capsys.readouterr().err == "data error: train split is empty\n"
    assert not (tmp_path / "run").exists()


def test_diverging_train_exits_3_without_a_checkpoint(tmp_path, capsys, gen_dir):
    # one Adam step at lr 1e100 overflows the loss on gen_dir's val head to NaN
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["train", "--data", gen_dir, "--out", tmp_path / "run", "--max-steps", "1",
                    "--lr", "1e100"])
    assert code == 3
    out, err = capsys.readouterr()
    assert err == "numerical error: validation diverged: loss=nan at epoch 0\n"
    assert "checkpoint:" not in out
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_non_finite_train_loss_exits_3_with_no_metrics_row_or_checkpoint(tmp_path, capsys,
                                                                         gen_dir, monkeypatch):
    module = importlib.import_module("woundfill.train")  # the package's `train` is the function
    real, offsets = module.reconstruction_loss, iter([np.inf])

    def first_batch_inf(out, target, metric):
        values, grad = real(out, target, metric)
        return values + next(offsets, 0.0), grad

    monkeypatch.setattr(module, "reconstruction_loss", first_batch_inf)
    assert run(["train", "--data", gen_dir, "--out", tmp_path / "run", "--max-steps", "2"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "numerical error: training diverged: loss=inf at step 0\n")
    assert (tmp_path / "run" / "metrics.csv").read_text() == "epoch,split,loss\n"
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_non_finite_train_file_exits_2_naming_it(tmp_path, capsys, gen_dir):
    # the last train wounded file is loaded against the split's first mesh
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    path = data / load_manifest(data / "manifest.json").split_entries("train")[-1].wounded_file
    raw = bytearray(path.read_bytes())
    start = raw.index(b"end_header\n") + len(b"end_header\n")
    raw[start:start + 4] = np.float32(np.nan).tobytes()  # vertex 0's x
    path.write_bytes(bytes(raw))
    assert run(["train", "--data", data, "--out", tmp_path / "run", "--max-steps", "2"]) == 2
    assert capsys.readouterr().err == f"data error: {path}: positions contain non-finite values\n"
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_removed_activation_key_exits_1(tmp_path, capsys, gen_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"architecture": {"activation": "relu"}}))
    assert run(["train", "--data", gen_dir, "--out", tmp_path / "run", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_json_manifest_exits_2(tmp_path, capsys, gen_dir, command):
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_bytes((gen_dir / "manifest.json").read_bytes()[:100])
    args = [command, "--data", data, "--out", tmp_path / "run"]
    assert run(args + (["--identity"] if command == "eval" else [])) == 2
    assert str(data / "manifest.json") in capsys.readouterr().err


def test_out_of_rule_manifest_spec_train_exits_2(tmp_path, capsys, gen_dir):
    # well-typed JSON, but a scar radius that make_dataset would never write
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    doc = json.loads((data / "manifest.json").read_text())
    doc["specs"][0]["radius"] = 0
    (data / "manifest.json").write_text(json.dumps(doc))
    assert run(["train", "--data", data, "--out", tmp_path / "run", "--max-steps", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data / 'manifest.json'}: ") and "radius" in err
    assert not (tmp_path / "run").exists()


def test_manifest_center_off_the_mesh_train_exits_2(tmp_path, capsys, gen_dir):
    # a well-formed spec whose center only the loaded mesh shows to be no vertex of it
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    doc = json.loads((data / "manifest.json").read_text())
    entry = load_manifest(data / "manifest.json").split_entries("train")[0]
    doc["specs"][entry.head * doc["scars_per_mesh"] + entry.scar]["center"] = 1000000
    (data / "manifest.json").write_text(json.dumps(doc))
    assert run(["train", "--data", data, "--out", tmp_path / "run", "--max-steps", "1"]) == 2
    assert capsys.readouterr().err == (
        f"data error: {data / 'manifest.json'}: entry {entry.wounded_file}: scar center 1000000 "
        "is outside its mesh of 42 vertices\n")
    assert not (tmp_path / "run").exists()


def test_manifest_count_edit_train_exits_2(tmp_path, capsys, gen_dir):
    # the files of heads 1-3 are still there, but the manifest says one head
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    doc = json.loads((data / "manifest.json").read_text())
    doc["count"] = 1
    (data / "manifest.json").write_text(json.dumps(doc))
    assert run(["train", "--data", data, "--out", tmp_path / "run", "--max-steps", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data / 'manifest.json'}: ") and "count of 1" in err
    assert not (tmp_path / "run").exists()


def test_depth_beyond_float32_gen_data_exits_3_without_the_file(tmp_path, capsys):
    # the dent's float64 positions are finite, but a PLY stores float32
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"depth_range": [1e39, 1e40]}}))
    with clamps_ignored():
        code = run(["gen-data", "--out", tmp_path / "d", "--config", cfg, "--count", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical error: {tmp_path / 'd'}") and "float32" in err
    path = Path(err.split(": ")[1])
    assert path.suffix == ".ply" and not path.exists()
    assert not (tmp_path / "d" / "manifest.json").exists()


def test_refused_gen_data_leaves_no_partial_dataset(tmp_path, capsys, monkeypatch):
    # a rerun into a good dataset of the same count: an old manifest would name new meshes
    out = tmp_path / "d"
    assert run(["gen-data", "--out", out, "--count", "3"]) == 0
    good = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"depth_range": [1e39, 1e40]}}))
    written, save = [], woundfill.scars.save_mesh_path
    monkeypatch.setattr(woundfill.scars, "save_mesh_path",
                        lambda mesh, path: (save(mesh, path), written.append(Path(path))))
    with clamps_ignored():
        code = run(["gen-data", "--out", out, "--config", cfg, "--count", "3"])
    assert code == 3
    assert "float32" in capsys.readouterr().err
    assert written and not any(path.exists() for path in written)
    assert not (out / "manifest.json").exists()
    assert all(path.read_bytes() == good[path.name] for path in out.iterdir())


def _double_ply(mesh, scale):
    """PLY bytes of mesh with its positions times scale stored as float64."""
    header = (f"ply\nformat binary_little_endian 1.0\nelement vertex {mesh.n_vertices}\n"
              "property double x\nproperty double y\nproperty double z\n"
              f"element face {mesh.n_faces}\nproperty list uchar int vertex_indices\n"
              "end_header\n")
    faces = np.empty(mesh.n_faces, dtype=[("n", "<u1"), ("idx", "<i4", (3,))])
    faces["n"], faces["idx"] = 3, mesh.faces
    return header.encode() + (mesh.positions * scale).astype("<f8").tobytes() + faces.tobytes()


def test_filling_beyond_float32_extract_fill_exits_3_writing_nothing(tmp_path, capsys):
    # test_extract_fill_cli's pair, read as float64, but the filling's PLY stores float32
    data = tmp_path / "d"
    assert run(["gen-data", "--out", data, "--count", "1", "--scars", "1",
                "--seed", "3", "--ratios", "1.0", "0.0", "0.0",
                "--subdivisions", "3", "--config", _ranges_config(tmp_path)]) == 0
    for name in ("0000_00.ply", "0000_gt.ply"):
        (tmp_path / name).write_bytes(_double_ply(load_mesh_path(data / name), 1e39))
    fill = tmp_path / "fill"
    assert run(["extract-fill", "--input", tmp_path / "0000_00.ply",
                "--output", tmp_path / "0000_gt.ply", "--out", fill]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical error: {fill / 'filling.ply'}: ") and "float32" in err
    assert not fill.exists()


@pytest.mark.parametrize("command, usage", [
    ("gen-data", "--count COUNT"),
    ("gen-data", "--ratios TRAIN VAL TEST"),
    ("train", "--max-steps MAX_STEPS"),
    ("train", "--loss-target {ground_truth,input}"),
    ("extract-fill", "--k-sigma K_SIGMA"),
])
def test_help_shows_value_names(capsys, command, usage):
    with pytest.raises(SystemExit):
        run([command, "--help"])
    assert usage in capsys.readouterr().out


# gen-data, train and eval as a user runs them. gen-data makes several scars per head, so
# the graph and normals shared across scars are compared too. d has 2 train pairs, so the
# l1 run's batch is short of its size of 3. Only a 3-level model has an encoder block after
# the first (enc1, 16 -> 32 features) form its input gradient in the I <= O backward's row
# pass.
PIPELINE = [
    ["gen-data", "--out", "h", "--count", "3", "--scars", "3", "--subdivisions", "3"],
    ["gen-data", "--out", "d", "--count", "3"],
    ["train", "--data", "d", "--out", "t", "--max-steps", "2"],
    ["train", "--data", "d", "--out", "l1", "--max-steps", "2", "--loss-metric", "l1",
     "--batch", "3"],
    ["train", "--data", "d", "--out", "r", "--max-steps", "2",
     "--arch-ratios", "1", "0.25", "0.0625", "--widths", "3", "16", "32"],
    ["eval", "--data", "d", "--out", "t", "--checkpoint", "t/model.ckpt"],
]


def test_outputs_are_byte_identical_across_hash_seeds_and_blas_threads(tmp_path):
    # the hash seed and the BLAS thread count are fixed when a process starts, so each
    # setting gets a process of its own; the benchmark sets the thread count to nproc
    script = ("import json, sys\n"
              "from woundfill.cli import main\n"
              "for args in json.loads(sys.argv[1]):\n"
              "    if main(args):\n"
              "        sys.exit(f'woundfill {\" \".join(args)} failed')\n")
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": str(Path(woundfill.__file__).resolve().parents[1])}
    procs = []
    for n in ("1", "2"):
        (tmp_path / n).mkdir()
        procs.append(subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(PIPELINE)], cwd=tmp_path / n,
            env={**env, "PYTHONHASHSEED": n, "OPENBLAS_NUM_THREADS": n},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    trees = [{str(p.relative_to(tmp_path / n)): p.read_bytes()
              for p in sorted((tmp_path / n).rglob("*")) if p.is_file()} for n in ("1", "2")]
    assert list(trees[0]) == list(trees[1])
    differs = next((name for name, data in trees[0].items() if data != trees[1][name]), None)
    assert differs is None, f"{differs} differs between hash seeds and thread counts 1 and 2"
