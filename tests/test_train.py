import hashlib
import importlib
import re
import shutil
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from woundfill import (
    Architecture,
    Autoencoder,
    LossSpec,
    Mesh,
    TrainSettings,
    adam_init,
    adam_step,
    evaluate,
    make_dataset,
    reconstruction_loss,
    save_mesh_path,
    synth_head,
    train,
)
from conftest import clamps_ignored, reference_train
from woundfill.checkpoint import MAGIC, load_checkpoint
from woundfill.errors import DataError, MeshError, MeshFormatError, NumericalError
from woundfill.train import EvalReport, load_pairs

train_module = importlib.import_module("woundfill.train")  # the name `train` is the function


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    with clamps_ignored():
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


def test_load_pairs_reads_each_file_once(dataset, monkeypatch):
    manifest, root = dataset
    reads = []
    real = train_module.load_mesh_path
    monkeypatch.setattr(train_module, "load_mesh_path",
                        lambda path, like=None: reads.append(path) or real(path, like=like))
    entries = manifest.split_entries("train")
    pairs = load_pairs(manifest, root, "train")
    files = {e.wounded_file for e in entries} | {e.gt_file for e in entries}
    assert len(reads) == len(files) < 2 * len(entries)
    assert sorted(reads) == sorted(root / f for f in files)
    for (_, _, gt), entry in zip(pairs, entries):
        same_head = [g for (_, _, g), e in zip(pairs, entries) if e.head == entry.head]
        assert all(g is gt for g in same_head)
        assert np.array_equal(gt.positions, real(root / entry.gt_file).positions)


def test_load_pairs_rejects_a_file_of_other_topology(dataset, tmp_path):
    manifest, root = dataset
    for f in root.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    entry = manifest.split_entries("train")[-1]
    gt = train_module.load_mesh_path(tmp_path / entry.gt_file)
    save_mesh_path(Mesh(gt.positions, gt.faces[:, [1, 2, 0]]), tmp_path / entry.wounded_file)
    with pytest.raises(DataError, match=f"{entry.wounded_file}: face topology differs"):
        load_pairs(manifest, tmp_path, "train")


def test_load_pairs_shares_one_faces_array(dataset):
    manifest, root = dataset
    train_pairs = load_pairs(manifest, root, "train")
    val_pairs = load_pairs(manifest, root, "val", like=train_pairs[0][2])
    assert val_pairs
    faces = train_pairs[0][1].faces
    assert all(w.faces is faces and g.faces is faces for _, w, g in train_pairs + val_pairs)


@pytest.mark.parametrize("damage, error, match", [
    ("nan", MeshError, "positions contain non-finite values"),
    ("truncated", MeshFormatError, "PLY body is truncated"),
    ("quad", MeshFormatError, "face 0 has 4 vertices"),
])
def test_load_pairs_names_a_damaged_file(dataset, tmp_path, damage, error, match):
    manifest, root = dataset
    for f in root.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    path = tmp_path / manifest.split_entries("train")[-1].wounded_file
    n_faces = train_module.load_mesh_path(path).n_faces
    data = bytearray(path.read_bytes())
    if damage == "nan":
        start = data.index(b"end_header\n") + len(b"end_header\n")
        data[start:start + 4] = np.float32(np.nan).tobytes()  # vertex 0's x
    elif damage == "truncated":
        del data[-1]
    else:
        data[len(data) - 13 * n_faces] = 4  # uchar count + three int32 indices per face
    path.write_bytes(bytes(data))
    with pytest.raises(error, match=f"^{re.escape(str(path))}: {match}") as exc:
        load_pairs(manifest, tmp_path, "train")
    assert exc.type is error


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


@pytest.mark.filterwarnings("ignore:scar radius .* clamping:UserWarning")
def test_train_runs_each_uneven_batch_as_one_stack(tmp_path, monkeypatch):
    # 5 train and 3 val pairs in batches of 2: two full batches and one of 1
    root = tmp_path / "data"
    manifest = make_dataset(root, count=8, scars_per_mesh=1, seed=5,
                            split_ratios=(0.625, 0.375, 0.0), subdivisions=1)
    forwards, backwards = [], []
    forward, backward = Autoencoder.forward, Autoencoder.backward
    monkeypatch.setattr(Autoencoder, "forward", lambda self, x, keep_cache=False: (
        forwards.append(np.shape(x)) or forward(self, x, keep_cache)))
    monkeypatch.setattr(Autoencoder, "backward", lambda self, cache, g, out=None: (
        backwards.append(np.shape(g)) or backward(self, cache, g, out)))
    settings = TrainSettings(lr=1e-3, batch_size=2, epochs=2, patience=10, seed=4)
    a = train(manifest, root, ARCH, settings, tmp_path / "a")
    b = train(manifest, root, ARCH, settings, tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
    assert a.steps == 6
    train_batches = [(42, 2, 3), (42, 2, 3), (42, 1, 3)]
    assert backwards == train_batches * 4  # two epochs of two runs
    assert forwards == (train_batches + [(42, 2, 3), (42, 1, 3)]) * 4


def test_train_drops_the_batch_output_cache_and_loss_gradient_before_adam(dataset, tmp_path,
                                                                          monkeypatch):
    manifest, root = dataset
    consumed, alive = [], []
    forward, backward = Autoencoder.forward, Autoencoder.backward

    def forward_spy(self, x, keep_cache=False):
        result = forward(self, x, keep_cache)
        if keep_cache:
            out, cache = result
            consumed.extend(weakref.ref(a) for a in (out, *(h for h, _, _ in cache)))
        return result

    def backward_spy(self, cache, grad_out, out=None):
        consumed.append(weakref.ref(grad_out))
        return backward(self, cache, grad_out, out)

    def adam_spy(params, grads, state):
        alive.append(sum(ref() is not None for ref in consumed))
        consumed.clear()
        adam_step(params, grads, state)

    monkeypatch.setattr(Autoencoder, "forward", forward_spy)
    monkeypatch.setattr(Autoencoder, "backward", backward_spy)
    monkeypatch.setattr(train_module, "adam_step", adam_spy)
    train(manifest, root, ARCH, TrainSettings(epochs=2, seed=3), tmp_path)
    assert alive == [0, 0]


def test_a_training_step_stays_within_its_memory_budget():
    # the benchmark's train-deep step: V = 2562, widths 3/16/32, B = 4. Over what is live
    # before it (model, data, gradient vector, Adam state) the step peaked at 10.08 MiB
    # (tracemalloc, numpy 2.4): the forward's saved arrays, output and loss gradient
    # (6.45 MiB), then the backward's peak over them. The budget allows 5% more. A
    # backward that holds the whole I <= O product p and each block's gradients through
    # the next block's backward peaks at 11.11 MiB.
    mesh = synth_head(1, 4)
    model = Autoencoder.build(mesh, Architecture((1.0, 0.25, 0.0625), (3, 16, 32)), 0)
    rng = np.random.default_rng(8)
    x = mesh.positions[:, None] + rng.normal(scale=0.01, size=(mesh.n_vertices, 4, 3))
    target = np.repeat(mesh.positions[:, None], 4, axis=1)
    grad = np.empty_like(model.vector)
    state = adam_init(model.vector, model.shapes)

    def step():
        out, cache = model.forward(x, keep_cache=True)
        grad_out = reconstruction_loss(out, target, "l2")[1]
        model.backward(cache, grad_out, out=grad)
        del out, cache, grad_out
        grad[...] *= 0.25
        adam_step(model.vector, grad, state)

    step()  # builds the topologies' block plans
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * 10.08 * 2**20, peak / 2**20


@pytest.mark.parametrize("metric, target, batch_size, max_steps", [
    ("l2", "ground_truth", 3, None),  # 4 train pairs: batches of 3 and 1
    ("l1", "ground_truth", 3, None),
    ("l1", "input", 4, 5),  # max_steps stops the third epoch after its first step
])
def test_train_equals_the_reference_loop_bit_for_bit(dataset, tmp_path, metric, target,
                                                     batch_size, max_steps):
    manifest, root = dataset
    settings = TrainSettings(lr=3e-3, batch_size=batch_size, epochs=3, patience=1,
                             max_steps=max_steps, seed=2, loss=LossSpec(target, metric))
    result = train(manifest, root, ARCH, settings, tmp_path)
    kept, metrics = reference_train(manifest, root, ARCH, settings)
    assert result.metrics_path.read_text() == metrics
    raw = result.checkpoint_path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8 + header_len
    assert raw[start:start + len(kept)] == kept


def test_non_finite_val_loss_is_a_numerical_error_before_its_row(dataset, tmp_path):
    # one Adam step at lr 1e100 leaves parameters whose val forward overflows to NaN; the
    # run used to end normally, saving no checkpoint and writing a `0,val,nan` row
    manifest, root = dataset
    settings = TrainSettings(lr=1e100, epochs=1, max_steps=1, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match=r"^validation diverged: loss=nan at epoch 0$"):
        train(manifest, root, ARCH, settings, tmp_path)
    assert not (tmp_path / "model.ckpt").exists()
    assert (tmp_path / "metrics.csv").read_text() == "epoch,split,loss\n"


def test_val_forward_error_names_the_pairs_and_block(dataset, tmp_path, monkeypatch):
    # zero densities after the first step: the val forward fails in enc0's density layer
    manifest, root = dataset
    built, build, step = [], Autoencoder.build, train_module.adam_step
    monkeypatch.setattr(Autoencoder, "build", lambda *args: built.append(build(*args)) or built[0])

    def step_then_zero(params, grads, state):
        step(params, grads, state)
        built[0].parameters()["enc0.res.rho"][:] = 0.0

    monkeypatch.setattr(train_module, "adam_step", step_then_zero)
    val_ids = ", ".join(name for name, _, _ in load_pairs(manifest, root, "val"))
    settings = TrainSettings(epochs=1, max_steps=1, batch_size=8, seed=0)
    with pytest.raises(NumericalError, match=f"^val pairs {val_ids}: enc0\\.res on the model "
                                             "input: all-zero density coefficients"):
        train(manifest, root, ARCH, settings, tmp_path)
    assert not (tmp_path / "model.ckpt").exists()


def test_train_forward_error_names_the_batch(dataset, tmp_path, monkeypatch):
    manifest, root = dataset
    build = Autoencoder.build

    def zeroed(*args):
        model = build(*args)
        model.parameters()["enc0.res.rho"][:] = 0.0
        return model

    monkeypatch.setattr(Autoencoder, "build", zeroed)
    ids = {name for name, _, _ in load_pairs(manifest, root, "train")}
    with pytest.raises(NumericalError, match=r"^train pairs ([\w, ]+): enc0\.res on the model "
                                             "input: all-zero density") as exc:
        train(manifest, root, ARCH, TrainSettings(batch_size=2, seed=0), tmp_path)
    named = re.match(r"train pairs ([\w, ]+):", str(exc.value)).group(1).split(", ")
    assert len(named) == 2 and set(named) <= ids


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
    clipped = replace(manifest, splits=tuple("train" if s == "val" else s
                                             for s in manifest.splits))
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
    # evaluating gt against itself through the identity wiring: in a copy of the
    # dataset, each "wounded" file is its ground truth
    manifest, root = dataset
    for e in manifest.entries:
        shutil.copyfile(root / e.gt_file, tmp_path / e.gt_file)
        shutil.copyfile(root / e.gt_file, tmp_path / e.wounded_file)
    report = evaluate(None, manifest, tmp_path, "train")
    assert report.max_vertex_distance == 0.0
    assert report.mean_vertex_distance == 0.0
    assert report.min_mesh_mean == report.max_mesh_mean == 0.0
