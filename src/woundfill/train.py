"""Training loop over (wounded, ground-truth) pairs and the evaluation report.

The model always sees the wounded mesh; what the loss compares against is a
config choice (the pre-injury mesh by default, or the input itself for a
plain autoencoding regime). Every mesh of a dataset shares one topology
(load_pairs checks it), so a batch of B pairs runs as one vertex-major
(n, B, 3) stack: one forward, B per-sample losses whose gradients fill one
(n, B, 3) array, and one backward, whose ops kernels sum each parameter's
gradient over the samples. Batch composition and order are fixed by the
seed, so runs with the same seed are byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .errors import ConfigError, DataError, NumericalError, as_json
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

    def validate(self):
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 0:
            raise ConfigError("training.batch_size/epochs must be >= 1, patience >= 0")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("training.max_steps must be >= 1 or null")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("training.beta1/beta2 must lie in [0, 1)")
        if self.lr <= 0 or self.eps <= 0:
            raise ConfigError("training.lr and training.eps must be > 0")
        if self.seed < 0:
            raise ConfigError(f"training.seed must be >= 0, got {self.seed}")
        self.loss.validate()


@dataclass
class TrainResult:
    checkpoint_path: Path
    metrics_path: Path
    steps: int
    best_loss: float
    history: list[tuple[int, str, float]]  # (epoch, split, loss)


def load_pairs(manifest: DatasetManifest, data_dir, split: str) -> list[tuple[str, Mesh, Mesh]]:
    """(id, wounded, ground truth) triples for a split; topology must agree."""
    data_dir = Path(data_dir)
    pairs = []
    reference_faces = None
    for entry in manifest.split_entries(split):
        wounded = load_mesh_path(data_dir / entry.wounded_file)
        gt = load_mesh_path(data_dir / entry.gt_file)
        for m, which in ((wounded, entry.wounded_file), (gt, entry.gt_file)):
            if reference_faces is None:
                reference_faces = m.faces
            elif m.faces.shape != reference_faces.shape or not np.array_equal(m.faces, reference_faces):
                raise DataError(f"{which}: face topology differs from the rest of the dataset")
        pairs.append((Path(entry.wounded_file).stem, wounded, gt))
    return pairs


def _target(spec: LossSpec, wounded: Mesh, gt: Mesh) -> np.ndarray:
    return gt.positions if spec.target == "ground_truth" else wounded.positions


def _mean_loss(model: Autoencoder, pairs, spec: LossSpec, batch_size: int) -> float:
    """Mean per-pair loss, with the pairs run through the model batch_size at a time."""
    total = 0.0
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        out = model.forward(np.stack([wounded.positions for _, wounded, _ in chunk], axis=1))
        for b, (_, wounded, gt) in enumerate(chunk):
            total += reconstruction_loss(out[:, b], _target(spec, wounded, gt), spec.metric)[0]
    return total / len(pairs)


def train(
    manifest: DatasetManifest,
    data_dir,
    architecture: Architecture,
    settings: TrainSettings,
    out_dir,
) -> TrainResult:
    """Train on the manifest's train split; keep the best checkpoint by val loss.

    When the val split is empty, selection and early stopping fall back to the
    train loss. Metrics are appended to metrics.csv as `epoch,split,loss`.
    """
    settings.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_pairs = load_pairs(manifest, data_dir, "train")
    if not train_pairs:
        raise DataError("train split is empty")
    val_pairs = load_pairs(manifest, data_dir, "val")

    first_gt = train_pairs[0][2]
    model = Autoencoder.build(first_gt, architecture, settings.seed)
    params = model.parameters()
    state = adam_init(params, settings.lr, settings.beta1, settings.beta2, settings.eps)

    checkpoint_path = out_dir / "model.ckpt"
    metrics_path = out_dir / "metrics.csv"
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
            x = np.stack([wounded.positions for _, wounded, _ in batch], axis=1)
            out, cache = model.forward(x, keep_cache=True)
            grad_out = np.empty_like(out)
            batch_loss = 0.0
            for b, (_, wounded, gt) in enumerate(batch):
                value, grad_out[:, b] = reconstruction_loss(
                    out[:, b], _target(spec, wounded, gt), spec.metric)
                if not np.isfinite(value):
                    raise NumericalError(f"training diverged: loss={value} at step {steps}")
                batch_loss += value
            scale = 1.0 / len(batch)
            grads = {k: v * scale for k, v in model.backward(cache, grad_out).items()}
            params, state = adam_step(params, grads, state)
            model.set_parameters(params)
            epoch_losses.append(batch_loss * scale)
            steps += 1
            if settings.max_steps is not None and steps >= settings.max_steps:
                stop = True
                break
        train_loss = float(np.mean(epoch_losses))
        history.append((epoch, "train", train_loss))
        if val_pairs:
            val_loss = _mean_loss(model, val_pairs, spec, settings.batch_size)
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

    model=None evaluates the identity wiring (output = input). With out_dir
    set, each reconstruction is written as PLY with a per-vertex `error`
    channel for distance color maps.
    """
    pairs = load_pairs(manifest, data_dir, split)
    if not pairs:
        raise DataError(f"split {split!r} is empty")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    per_mesh = []
    all_min, all_max = np.inf, -np.inf
    total, count = 0.0, 0
    for name, wounded, gt in pairs:
        out_positions = wounded.positions if model is None else model.forward(wounded.positions)
        d = vertex_distance(out_positions, gt.positions)
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
            recon = Mesh(out_positions, wounded.faces, {"error": d})
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
