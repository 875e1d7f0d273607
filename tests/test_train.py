import hashlib

import numpy as np
import pytest

from woundfill import (
    Architecture,
    Autoencoder,
    LossSpec,
    TrainSettings,
    evaluate,
    make_dataset,
    train,
)
from woundfill.checkpoint import load_checkpoint
from woundfill.errors import DataError
from woundfill.train import EvalReport, load_pairs


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    manifest = make_dataset(root, count=4, scars_per_mesh=2, seed=21,
                            split_ratios=(0.5, 0.25, 0.25), subdivisions=1)
    return manifest, root


ARCH = Architecture(ratios=(1.0, 0.3), widths=(3, 8))


def test_load_pairs_by_split(dataset):
    manifest, root = dataset
    train_pairs = load_pairs(manifest, root, "train")
    assert len(train_pairs) == 4  # 2 heads x 2 scars
    for _, wounded, gt in train_pairs:
        assert wounded.n_vertices == gt.n_vertices == 42


def test_train_improves_and_checkpoints(dataset, tmp_path):
    manifest, root = dataset
    settings = TrainSettings(lr=3e-3, batch_size=4, epochs=40, patience=40, seed=1)
    result = train(manifest, root, ARCH, settings, tmp_path)
    first_train = next(v for e, s, v in result.history if s == "train")
    last_train = [v for e, s, v in result.history if s == "train"][-1]
    assert last_train < first_train
    assert result.checkpoint_path.exists()
    model, extra = load_checkpoint(result.checkpoint_path)
    assert "loss" in extra
    lines = result.metrics_path.read_text().splitlines()
    assert lines[0] == "epoch,split,loss"
    assert any(line.split(",")[1] == "val" for line in lines[1:])


def test_train_max_steps_caps_run(dataset, tmp_path):
    manifest, root = dataset
    settings = TrainSettings(epochs=1000, max_steps=3, seed=0)
    result = train(manifest, root, ARCH, settings, tmp_path)
    assert result.steps == 3


def test_train_deterministic(dataset, tmp_path):
    manifest, root = dataset
    settings = TrainSettings(lr=1e-3, epochs=5, max_steps=5, seed=9)
    a = train(manifest, root, ARCH, settings, tmp_path / "a")
    b = train(manifest, root, ARCH, settings, tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()


def test_train_runs_each_uneven_batch_as_one_stack(tmp_path, monkeypatch):
    # 5 train and 3 val pairs in batches of 2: two full batches and one of 1
    root = tmp_path / "data"
    manifest = make_dataset(root, count=8, scars_per_mesh=1, seed=5,
                            split_ratios=(0.625, 0.375, 0.0), subdivisions=1)
    forwards, backwards = [], []
    forward, backward = Autoencoder.forward, Autoencoder.backward
    monkeypatch.setattr(Autoencoder, "forward", lambda self, x, keep_cache=False: (
        forwards.append(np.shape(x)) or forward(self, x, keep_cache)))
    monkeypatch.setattr(Autoencoder, "backward", lambda self, cache, g: (
        backwards.append(np.shape(g)) or backward(self, cache, g)))
    settings = TrainSettings(lr=1e-3, batch_size=2, epochs=2, patience=10, seed=4)
    a = train(manifest, root, ARCH, settings, tmp_path / "a")
    b = train(manifest, root, ARCH, settings, tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
    assert a.steps == 6
    train_batches = [(42, 2, 3), (42, 2, 3), (42, 1, 3)]
    assert backwards == train_batches * 4  # two epochs of two runs
    assert forwards == (train_batches + [(42, 2, 3), (42, 1, 3)]) * 4


def test_train_input_target_mode(dataset, tmp_path):
    manifest, root = dataset
    settings = TrainSettings(epochs=2, max_steps=2, seed=0,
                             loss=LossSpec(target="input", metric="l2"))
    result = train(manifest, root, ARCH, settings, tmp_path)
    assert result.steps == 2


def test_evaluate_identity_on_unwounded_is_zero(dataset, tmp_path):
    manifest, root = dataset
    # fake an identity run by comparing ground truth with itself: the identity
    # model on the *wounded* mesh still differs from gt, so instead check the
    # invariant shape and that identity distances equal the wound distances
    report = evaluate(None, manifest, root, "test")
    assert report.min_vertex_distance == 0.0  # vertices outside the scar
    assert report.min_vertex_distance <= report.mean_vertex_distance <= report.max_vertex_distance
    assert report.min_mesh_mean <= report.max_mesh_mean


def test_evaluate_writes_error_plys(dataset, tmp_path):
    manifest, root = dataset
    report = evaluate(None, manifest, root, "test", out_dir=tmp_path)
    files = sorted(tmp_path.glob("*_recon.ply"))
    assert len(files) == len(report.per_mesh)
    from woundfill import load_mesh_path

    recon = load_mesh_path(files[0])
    assert "error" in recon.attributes


def test_evaluate_empty_split(dataset, tmp_path):
    manifest, root = dataset
    clipped = type(manifest)(
        seed=manifest.seed,
        count=manifest.count,
        scars_per_mesh=manifest.scars_per_mesh,
        subdivisions=manifest.subdivisions,
        split_ratios=manifest.split_ratios,
        ranges=manifest.ranges,
        entries=tuple(e for e in manifest.entries if e.split != "val"),
    )
    with pytest.raises(DataError, match="empty"):
        evaluate(None, clipped, root, "val")


def test_evaluate_report_json(dataset):
    manifest, root = dataset
    report = evaluate(None, manifest, root, "train")
    import json

    doc = json.loads(report.to_json())
    assert doc["split"] == "train"
    assert len(doc["per_mesh"]) == len(report.per_mesh)


# sha256 of the report below as the writer wrote it before it was derived from the fields
REPORT_SHA256 = "ee49cfb23789e7710b7241d579ae20a0b3ac2e1bf811c73073a53378c33637f6"


def test_eval_report_json_is_pinned():
    # literal values only, so the digest holds on any libm or BLAS
    report = EvalReport(
        split="test", min_vertex_distance=0.0, max_vertex_distance=0.5,
        mean_vertex_distance=0.1875, min_mesh_mean=0.125, max_mesh_mean=0.25,
        per_mesh=[{"id": "0000_00", "mean": 0.125, "min": 0.0, "max": 0.5},
                  {"id": "0001_00", "mean": 0.25, "min": 0.0625, "max": 0.375}],
    )
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256


def test_evaluate_identity_matches_manual_aggregation(dataset):
    # the report's five statistics are exactly the aggregations of
    # vertex_distance over the split when the model is the identity wiring
    manifest, root = dataset
    from woundfill import vertex_distance

    report = evaluate(None, manifest, root, "train")
    dists = [
        vertex_distance(w, g) for _, w, g in load_pairs(manifest, root, "train")
    ]
    assert report.min_vertex_distance == min(float(d.min()) for d in dists)
    assert report.max_vertex_distance == max(float(d.max()) for d in dists)
    grand = np.concatenate(dists)
    assert report.mean_vertex_distance == pytest.approx(float(grand.mean()), rel=1e-12)
    means = [float(d.mean()) for d in dists]
    assert report.min_mesh_mean == min(means)
    assert report.max_mesh_mean == max(means)


def test_perfect_model_gives_zero_stats(dataset, tmp_path):
    # evaluating gt against itself through the identity wiring: rewrite the
    # manifest so the "wounded" file is the ground truth itself
    manifest, root = dataset
    entries = tuple(
        type(e)(e.head, e.scar, e.gt_file, e.gt_file, e.split, e.spec)
        for e in manifest.entries
    )
    perfect = type(manifest)(
        seed=manifest.seed,
        count=manifest.count,
        scars_per_mesh=manifest.scars_per_mesh,
        subdivisions=manifest.subdivisions,
        split_ratios=manifest.split_ratios,
        ranges=manifest.ranges,
        entries=entries,
    )
    report = evaluate(None, perfect, root, "train")
    assert report.max_vertex_distance == 0.0
    assert report.mean_vertex_distance == 0.0
    assert report.min_mesh_mean == report.max_mesh_mean == 0.0
