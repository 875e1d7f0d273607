"""Reconstruction losses between index-corresponding meshes.

The default loss is the mean per-vertex Euclidean distance, measured against
the ground-truth (pre-injury) mesh rather than the network input; both the
target and the metric are switchable. The L1 option is the mean absolute
coordinate difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MeshError
from .mesh import Mesh, _norm

__all__ = ["LossSpec", "reconstruction_loss", "vertex_distance"]

TARGETS = ("ground_truth", "input")
METRICS = ("l2", "l1")


@dataclass(frozen=True)
class LossSpec:
    """What the loss compares against (target) and how (metric)."""

    target: str = "ground_truth"
    metric: str = "l2"

    def validate(self):
        if self.target not in TARGETS:
            raise ConfigError(f"loss target must be one of {TARGETS}, got {self.target!r}")
        if self.metric not in METRICS:
            raise ConfigError(f"loss metric must be one of {METRICS}, got {self.metric!r}")


def _positions(m) -> np.ndarray:
    if isinstance(m, Mesh):
        return m.positions
    return np.asarray(m, dtype=np.float64)


def vertex_distance(a, b) -> np.ndarray:
    """Euclidean distance between corresponding vertices of two meshes.

    A distance too large for a float64 comes out inf, and one of a non-finite
    coordinate inf or nan, without a warning: the callers that need the
    distances finite check them.
    """
    pa, pb = _positions(a), _positions(b)
    if pa.shape != pb.shape:
        raise MeshError(f"vertex count mismatch: {pa.shape} vs {pb.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _norm(pa - pb)


def reconstruction_loss(out, target,
                        metric: str = "l2") -> tuple[float | np.ndarray, np.ndarray]:
    """(loss, gradient with respect to the output positions) of one mesh or a batch.

    out and target are (n, 3) positions, giving a float loss, or vertex-major
    batches (n, B, 3), giving the B per-sample losses as an array; each equals
    bit for bit the loss of its sample alone (its sums run over a contiguous
    copy, as they do for one sample). The gradient has out's shape, each
    sample's part the gradient of that sample's loss.

    l2: mean over vertices of the Euclidean distance; the gradient of a
        zero-distance vertex is zero (the only bounded subgradient).
    l1: mean over all coordinate entries of the absolute difference.
    """
    po, pt = _positions(out), _positions(target)
    if po.shape != pt.shape:
        raise MeshError(f"vertex count mismatch: {po.shape} vs {pt.shape}")
    n, batch = len(po), po.ndim == 3
    diff = po - pt
    if metric == "l2":
        d = np.linalg.norm(diff, axis=-1)
        grad = np.zeros_like(diff)
        nz = d > 0
        grad[nz] = diff[nz] / (n * d[nz, None])
        # per sample, a sum over its contiguous row of distances
        return (np.ascontiguousarray(d.T).mean(axis=1) if batch else float(d.mean())), grad
    if metric == "l1":
        a = np.abs(diff)
        # per sample, a sum over its contiguous row of n * 3 entries
        loss = (a.transpose(1, 0, 2).reshape(po.shape[1], -1).mean(axis=1) if batch
                else float(a.mean()))
        return loss, np.sign(diff) / (n * diff.shape[-1])
    raise ConfigError(f"unknown metric {metric!r}")
