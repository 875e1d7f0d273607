import json
import warnings

import numpy as np
import pytest

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
from woundfill.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    code = run(["gen-data", "--out", out, "--count", "4", "--scars", "2",
                "--seed", "7", "--ratios", "0.5", "0.25", "0.25",
                "--subdivisions", "1"])
    assert code == 0
    return out


def test_gen_data_file_counts(gen_dir):
    files = sorted(p.name for p in gen_dir.glob("*.ply"))
    assert len(files) == 12  # 4 gt + 8 wounded
    assert (gen_dir / "manifest.json").exists()


def test_gen_data_rerun_identical(gen_dir, tmp_path):
    out2 = tmp_path / "data2"
    assert run(["gen-data", "--out", out2, "--count", "4", "--scars", "2",
                "--seed", "7", "--ratios", "0.5", "0.25", "0.25",
                "--subdivisions", "1"]) == 0
    assert (gen_dir / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    for f in gen_dir.glob("*.ply"):
        assert f.read_bytes() == (out2 / f.name).read_bytes()


def test_gen_data_split_ratio_override(tmp_path):
    out = tmp_path / "d"
    assert run(["gen-data", "--out", out, "--count", "10", "--scars", "1",
                "--seed", "1", "--ratios", "0.8", "0.1", "0.1",
                "--subdivisions", "1"]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    heads = {s: set() for s in ("train", "val", "test")}
    for e in doc["entries"]:
        heads[e["split"]].add(e["head"])
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


def test_train_eval_round_trip(tmp_path, gen_dir):
    run_dir = tmp_path / "run"
    assert run(["train", "--data", gen_dir, "--out", run_dir,
                "--max-steps", "10", "--epochs", "50",
                "--arch-ratios", "1.0", "0.3", "--widths", "3", "8"]) == 0
    assert (run_dir / "model.ckpt").exists()
    assert (run_dir / "metrics.csv").read_text().startswith("epoch,split,loss")
    assert run(["eval", "--data", gen_dir, "--out", run_dir,
                "--checkpoint", run_dir / "model.ckpt", "--split", "test"]) == 0
    report = json.loads((run_dir / "eval_test.json").read_text())
    assert report["min_vertex_distance"] <= report["mean_vertex_distance"]
    assert report["mean_vertex_distance"] <= report["max_vertex_distance"]


def test_eval_identity(tmp_path, gen_dir):
    out = tmp_path / "ev"
    assert run(["eval", "--data", gen_dir, "--out", out, "--identity",
                "--split", "train", "--write-meshes"]) == 0
    assert (out / "eval_train.json").exists()
    assert list(out.glob("*_recon.ply"))


def test_extract_fill_cli(tmp_path):
    data = tmp_path / "d"
    assert run(["gen-data", "--out", data, "--count", "1", "--scars", "1",
                "--seed", "3", "--ratios", "1.0", "0.0", "0.0",
                "--subdivisions", "3", "--config", _ranges_config(tmp_path)]) == 0
    fill = tmp_path / "fill"
    assert run(["extract-fill", "--input", data / "0000_00.ply",
                "--output", data / "0000_gt.ply", "--out", fill]) == 0
    report = json.loads((fill / "fill_report.json").read_text())
    assert report["watertight"]
    assert (fill / "filling.stl").exists()
    assert (fill / "filling.ply").exists()


def _ranges_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"radius_range": [3, 4]}}))
    return cfg


def test_extract_fill_identity_exits_2(tmp_path, gen_dir):
    src = next(gen_dir.glob("*_00.ply"))
    code = run(["extract-fill", "--input", src, "--output", src,
                "--out", tmp_path / "f"])
    assert code == 2


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


def test_infinite_depth_range_exits_1_before_writing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dataset": {"depth_range": [0.5, 1e999]}}')  # json reads 1e999 as inf
    assert run(["gen-data", "--out", tmp_path / "d", "--config", cfg, "--count", "1"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


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


@pytest.mark.parametrize("ratios", [["0.5", "0.25"], ["1.0", "1.0"]], ids=["leading", "repeated"])
def test_bad_arch_ratios_exit_1(tmp_path, capsys, gen_dir, ratios):
    args = ["train", "--data", gen_dir, "--out", tmp_path / "run",
            "--arch-ratios", *ratios, "--widths", "3", "8"]
    assert run(args) == 1
    assert "config error: ratios" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_arch_ratio_too_small_for_the_mesh_exits_2_naming_the_key(tmp_path, capsys, gen_dir):
    args = ["train", "--data", gen_dir, "--out", tmp_path / "run",
            "--arch-ratios", "1.0", "0.001", "--widths", "3", "8"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "data error: architecture.ratios: ratio 0.001 leaves 0 of the mesh's 42 vertices" in err


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


@pytest.mark.parametrize("damage", ["truncated", "non-json-header"])
def test_damaged_checkpoint_eval_exits_2(tmp_path, capsys, gen_dir, damage):
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, Autoencoder.build(icosphere(1), Architecture((1.0, 0.3), (3, 5)), 0))
    raw = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    if damage == "truncated":
        bad.write_bytes(raw[:len(raw) // 2])
    else:
        bad.write_bytes(MAGIC + (9).to_bytes(8, "little") + b"not json!" + raw[16:])
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


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_json_manifest_exits_2(tmp_path, capsys, gen_dir, command):
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_bytes((gen_dir / "manifest.json").read_bytes()[:100])
    args = [command, "--data", data, "--out", tmp_path / "run"]
    assert run(args + (["--identity"] if command == "eval" else [])) == 2
    assert str(data / "manifest.json") in capsys.readouterr().err


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
