"""Training loop over (wounded, ground-truth) pairs and the evaluation report.

The model always sees the wounded mesh; what the loss compares against is a
config choice (the pre-injury mesh by default, or the input itself for a
plain autoencoding regime). Every mesh of a dataset shares one topology:
load_pairs loads each file against the split's first mesh (train() loads
val against train's), so all of them hold one frozen faces array, checked
once. A batch of B pairs runs as one vertex-major (n, B, 3) stack: one
forward, one reconstruction_loss call giving the B per-sample losses and
their (n, B, 3) gradient, and one backward, whose ops kernels sum each
parameter's gradient over the samples. The backward writes into one
gradient vector kept for the run, which is scaled by 1/B with one multiply,
and adam_step updates the model's parameter vector in place. The batch's
output, cache and loss gradient are dropped before that step, so they are
not held through it, the val pass or the checkpoint write. Batch
composition and order are fixed by the seed, so runs with the same seed are
byte-reproducible.

A MeshError or NumericalError from the model names its block and layer;
a training step or the val pass adds the split and the ids of the pairs in
the failing batch, evaluate the split and mesh id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .errors import ConfigError, DataError, MeshError, NumericalError, as_json, located
from .hierarchy import faces_digest
from .losses import LossSpec, reconstruction_loss, vertex_distance
from .mesh import Mesh
from .meshio import load_mesh_path, save_mesh_path
from .model import Architecture, Autoencoder
from .optim import AdamState, adam_init, adam_step
from .scars import DatasetManifest

__all__ = ["EvalReport", "TrainResult", "TrainSettings", "evaluate", "load_pairs", "train"]


@dataclass(frozen=True)
class TrainSettings:
    lr: float = AdamState.lr
    beta1: float = AdamState.beta1
    beta2: float = AdamState.beta2
    eps: float = AdamState.eps
    batch_size: int = 4
    epochs: int = 200
    patience: int = 20
    max_steps: int | None = None
    loss: LossSpec = field(default_factory=LossSpec)
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 0:
            raise ConfigError("training.batch_size/epochs must be >= 1, patience >= 0")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("training.max_steps must be >= 1 or null")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("training.beta1/beta2 must lie in [0, 1)")
        if not (0 < self.lr < np.inf and 0 < self.eps < np.inf):
            raise ConfigError("training.lr and training.eps must be finite and > 0")
        if self.seed < 0:
            raise ConfigError(f"training.seed must be >= 0, got {self.seed}")


@dataclass
class TrainResult:
    checkpoint_path: Path
    metrics_path: Path
    steps: int
    best_loss: float
    history: list[tuple[int, str, float]]  # (epoch, split, loss)


def load_pairs(manifest: DatasetManifest, data_dir, split: str,
               like: Mesh | None = None) -> list[tuple[str, Mesh, Mesh]]:
    """(id, wounded, ground truth) triples for a split; topology must agree.

    Every mesh must carry the faces of `like`, or when it is None of the
    split's first mesh. Each file is loaded against that mesh, so the meshes
    that match it share its one frozen faces array, checked once. Each
    distinct file is read once, so the triples of one head share its
    (immutable) ground-truth Mesh. An entry whose scar center is not a vertex
    of its mesh is a DataError naming manifest.json.
    """
    data_dir = Path(data_dir)
    meshes: dict[str, Mesh] = {}

    def load(name: str) -> Mesh:
        nonlocal like
        if name not in meshes:
            mesh = load_mesh_path(data_dir / name, like=like)
            if like is None:
                like = mesh
            elif mesh.faces is not like.faces and not np.array_equal(mesh.faces, like.faces):
                raise DataError(f"{data_dir / name}: face topology differs from the rest of the "
                                "dataset")
            meshes[name] = mesh
        return meshes[name]

    pairs = []
    for e in manifest.split_entries(split):
        wounded, gt = load(e.wounded_file), load(e.gt_file)
        if not 0 <= e.spec.center < wounded.n_vertices:
            raise DataError(f"{data_dir / 'manifest.json'}: entry {e.wounded_file}: scar center "
                            f"{e.spec.center} is outside its mesh of {wounded.n_vertices} vertices")
        pairs.append((Path(e.wounded_file).stem, wounded, gt))
    return pairs


def _stacks(spec: LossSpec, pairs) -> tuple[np.ndarray, np.ndarray]:
    """(model input, loss target) of a batch of pairs, each a vertex-major (n, B, 3) stack."""
    x = np.stack([wounded.positions for _, wounded, _ in pairs], axis=1)
    if spec.target == "input":
        return x, x
    return x, np.stack([gt.positions for _, _, gt in pairs], axis=1)


def _forward(model: Autoencoder, x: np.ndarray, split: str, pairs, keep_cache: bool = False):
    """model.forward on a batch; a MeshError or NumericalError names the batch's pair ids."""
    try:
        return model.forward(x, keep_cache)
    except (MeshError, NumericalError) as exc:
        raise located(exc, f"{split} pairs {', '.join(name for name, _, _ in pairs)}") from exc


def _mean_loss(model: Autoencoder, pairs, spec: LossSpec, batch_size: int) -> float:
    """Mean per-pair val loss, with the pairs run through the model batch_size at a time."""
    total = 0.0
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        x, target = _stacks(spec, chunk)
        for value in reconstruction_loss(_forward(model, x, "val", chunk), target,
                                         spec.metric)[0].tolist():
            total += value
    return total / len(pairs)


def train(
    manifest: DatasetManifest,
    data_dir,
    architecture: Architecture,
    settings: TrainSettings,
    out_dir,
) -> TrainResult:
    """Train on the manifest's train split; keep the best checkpoint by val loss.

    Every val mesh must have the train split's faces. When the val split is
    empty, selection and early stopping fall back to the train loss. A
    non-finite train or val loss is a NumericalError. out_dir is made after the
    data and model load; metrics are appended to its metrics.csv as `epoch,split,loss`.
    """
    out_dir = Path(out_dir)
    train_pairs = load_pairs(manifest, data_dir, "train")
    if not train_pairs:
        raise DataError("train split is empty")
    first_gt = train_pairs[0][2]
    val_pairs = load_pairs(manifest, data_dir, "val", first_gt)

    model = Autoencoder.build(first_gt, architecture, settings.seed)
    state = adam_init(model.vector, model.shapes, settings.lr, settings.beta1, settings.beta2,
                      settings.eps)
    grad = np.empty_like(model.vector)  # each step's backward writes here

    checkpoint_path = out_dir / "model.ckpt"
    metrics_path = out_dir / "metrics.csv"
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path.write_text("epoch,split,loss\n")

    history: list[tuple[int, str, float]] = []
    best = np.inf
    best_epoch = -1
    steps = 0
    spec = settings.loss
    stop = False
    for epoch in range(settings.epochs):
        order = np.random.default_rng([settings.seed, 1, epoch]).permutation(len(train_pairs))
        epoch_losses = []
        for batch_start in range(0, len(order), settings.batch_size):
            batch = [train_pairs[i] for i in order[batch_start:batch_start + settings.batch_size]]
            x, target = _stacks(spec, batch)
            out, cache = _forward(model, x, "train", batch, keep_cache=True)
            values, grad_out = reconstruction_loss(out, target, spec.metric)
            batch_loss = 0.0
            for value in values.tolist():
                if not np.isfinite(value):
                    raise NumericalError(f"training diverged: loss={value} at step {steps}")
                batch_loss += value
            scale = 1.0 / len(batch)
            model.backward(cache, grad_out, out=grad)
            del out, cache, grad_out  # consumed: not held through Adam, val and the checkpoint
            grad *= scale
            adam_step(model.vector, grad, state)
            epoch_losses.append(batch_loss * scale)
            steps += 1
            if settings.max_steps is not None and steps >= settings.max_steps:
                stop = True
                break
        train_loss = float(np.mean(epoch_losses))
        history.append((epoch, "train", train_loss))
        if val_pairs:
            val_loss = _mean_loss(model, val_pairs, spec, settings.batch_size)
            if not np.isfinite(val_loss):
                raise NumericalError(f"validation diverged: loss={val_loss} at epoch {epoch}")
            history.append((epoch, "val", val_loss))
            selection_loss = val_loss
        else:
            selection_loss = train_loss
        with metrics_path.open("a") as fh:
            for ep, split, value in history[-2 if val_pairs else -1:]:
                fh.write(f"{ep},{split},{value!r}\n")
        if selection_loss < best:
            best = selection_loss
            best_epoch = epoch
            save_checkpoint(checkpoint_path, model, extra={"epoch": epoch, "loss": best})
        if stop or (epoch - best_epoch) >= settings.patience:
            break
    return TrainResult(checkpoint_path, metrics_path, steps, float(best), history)


# --- evaluation -----------------------------------------------------------


@dataclass
class EvalReport:
    """The five summary statistics plus per-mesh records."""

    split: str
    min_vertex_distance: float
    max_vertex_distance: float
    mean_vertex_distance: float
    min_mesh_mean: float
    max_mesh_mean: float
    per_mesh: list[dict]

    def to_json(self) -> str:
        return json.dumps(as_json(self), indent=2, sort_keys=True) + "\n"


def evaluate(
    model: Autoencoder | None,
    manifest: DatasetManifest,
    data_dir,
    split: str,
    out_dir=None,
) -> EvalReport:
    """Run inference on a split and aggregate distances against ground truth.

    model=None evaluates the identity wiring (output = input). A model runs
    only on the faces its hierarchy was built from: a split whose faces have
    another digest is a DataError before the first forward, and a mesh whose
    distances are not all finite a NumericalError before its record. With out_dir
    set, each reconstruction is written as PLY with a per-vertex `error`
    channel for distance color maps, as its mesh is evaluated: after a
    NumericalError, the PLYs of the meshes before the failing one remain.
    """
    pairs = load_pairs(manifest, data_dir, split)
    if not pairs:
        raise DataError(f"split {split!r} is empty")
    trained_on = None if model is None else model.hierarchy.faces_sha256
    if trained_on is not None and (digest := faces_digest(pairs[0][1])) != trained_on:
        raise DataError(f"{data_dir}: the {split} meshes' faces (sha256 {digest}) are not the "
                        f"ones the model was trained on ({trained_on})")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    per_mesh = []
    all_min, all_max = np.inf, -np.inf
    total, count = 0.0, 0
    for name, wounded, gt in pairs:
        try:
            out_positions = wounded.positions if model is None else model.forward(wounded.positions)
        except (MeshError, NumericalError) as exc:
            raise located(exc, f"{split} mesh {name}") from exc
        d = vertex_distance(out_positions, gt.positions)
        if not np.all(np.isfinite(d)):
            raise NumericalError(f"{split} mesh {name}: non-finite vertex distances between "
                                 "the reconstruction and its ground truth")
        per_mesh.append({
            "id": name,
            "mean": float(d.mean()),
            "min": float(d.min()),
            "max": float(d.max()),
        })
        all_min = min(all_min, float(d.min()))
        all_max = max(all_max, float(d.max()))
        total += float(d.sum())
        count += len(d)
        if out_dir is not None:
            recon = Mesh._adopt(out_positions, wounded.faces, {"error": d})
            save_mesh_path(recon, out_dir / f"{name}_recon.ply")
    means = [m["mean"] for m in per_mesh]
    return EvalReport(
        split=split,
        min_vertex_distance=all_min,
        max_vertex_distance=all_max,
        mean_vertex_distance=total / count,
        min_mesh_mean=float(min(means)),
        max_mesh_mean=float(max(means)),
        per_mesh=per_mesh,
    )
