"""Wound-filling extraction by per-vertex outlier statistics.

The wounded input and the reconstructed output share vertex indexing, so the
per-vertex distance set (losses.vertex_distance) singles out the wound:
distances there are far from the population mean. Vertices beyond k_sigma
standard deviations (population formula, strict inequality) mark the wound;
the filling solid is the volume between the two surfaces over the wound
region dilated by one ring, closed by a quad strip along the shared rim.

The whole mesh is read by one O(V) distance pass and, for each of the three
face selections (outlier faces, the one-ring dilation, the dilated faces), by
one gather of a vertex mask over its faces. Everything after that runs on the
dilated patch's faces alone, so it costs in proportion to the wound: one
table of the patch's edges gives each of its components its faces, its rim
and its non-manifold check, and each component is closed and oriented in its
own vertex numbering.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MeshError, NoFillingError, NumericalError
from .losses import vertex_distance
from .mesh import (
    Mesh,
    _directed_edges,
    _rim_loops,
    _signed_volume,
    components,
    csr_from_pairs,
    edge_key,
    is_watertight,
)

__all__ = ["FillReport", "extract_filling", "outlier_indices"]

K_SIGMA_DEFAULT = 2.0


def check_k_sigma(k_sigma: float) -> None:
    """The outlier threshold must be finite and positive: 0 < k_sigma < inf."""
    if not 0 < k_sigma < np.inf:
        raise ConfigError(f"extraction.k_sigma must be finite and > 0, got {k_sigma}")


def outlier_indices(distances: np.ndarray, k_sigma: float = K_SIGMA_DEFAULT) -> np.ndarray:
    """Indices whose distance deviates from the mean by more than k_sigma stddevs.

    Population standard deviation; strict inequality. A constant distance set
    has sigma = 0 and selects nothing; that case is detected exactly (max ==
    min) because a rounded mean of identical values could otherwise leave a
    spurious one-ulp deviation. The set is first scaled by a power of two to
    a largest magnitude in [0.5, 1): that is exact, so it selects what the
    unscaled set would, but the squared deviations of tiny distances no
    longer underflow, and the selection does not change with the scale.
    A non-finite distance is a NumericalError that names its vertex.
    """
    check_k_sigma(k_sigma)
    d = np.asarray(distances, dtype=np.float64)
    if d.size == 0:
        raise NoFillingError("empty distance set")
    hi, lo = float(d.max()), float(d.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        _require_finite(d)
    if hi == lo:
        return np.zeros(0, dtype=np.int64)
    d = np.ldexp(d, -math.frexp(max(hi, -lo))[1])
    dev = d - d.mean()
    sigma = np.sqrt(np.mean(dev**2))
    return np.flatnonzero(np.abs(dev) > k_sigma * sigma)


def _require_finite(d: np.ndarray) -> None:
    """Raise NumericalError naming the first vertex whose distance is inf or nan."""
    bad = ~np.isfinite(d)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(f"non-finite vertex distance {float(d[i])} at vertex {i}")


@dataclass
class FillReport:
    """Everything the extraction produced, including diagnostics for failures."""

    distances: np.ndarray
    mean: float
    std: float
    k_sigma: float
    outliers: np.ndarray
    filling: Mesh
    watertight: bool
    n_components: int
    notes: list[str]

    def to_json(self) -> str:
        doc = {
            "n_distances": int(len(self.distances)),
            "mean": self.mean,
            "std": self.std,
            "k_sigma": self.k_sigma,
            "n_outliers": int(len(self.outliers)),
            "outliers": self.outliers.tolist(),
            "watertight": self.watertight,
            "n_components": self.n_components,
            "filling_vertices": int(self.filling.n_vertices),
            "filling_faces": int(self.filling.n_faces),
            "notes": self.notes,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _close_component(
    faces: np.ndarray, uses: np.ndarray, bottom: np.ndarray, top: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool, list[str]]:
    """Bottom (input) and top (output) copies of one patch component plus a rim quad strip.

    faces: (m, 3) indices into bottom and top, the component's input and
    output positions; uses: for each edge of _directed_edges(faces), how many
    of the component's faces hold it. Returns (positions, faces, closed_flag,
    notes); a rim that is not simple leaves the two shells open, with a note.
    """
    notes: list[str] = []
    nv = len(bottom)
    try:
        rims = _rim_loops(_directed_edges(faces), uses)
        closed = True
    except MeshError as exc:  # pinched rim or non-manifold patch
        notes.append(f"open patches emitted: {exc}")
        rims, closed = [], False

    # bottom shell: input positions, reversed winding; top shell: output positions
    positions = np.concatenate([bottom, top])
    parts = [faces[:, ::-1], faces + nv]
    if closed and not rims:
        notes.append("patch is already closed; no bridge needed")
    for a in rims:
        b = np.concatenate([a[1:], a[:1]])
        # top boundary edge runs (a, b); the strip supplies (b, a) on top
        # and (a, b) on the reversed bottom
        parts += [np.column_stack([b + nv, a + nv, a]), np.column_stack([a, b, b + nv])]
    return positions, np.concatenate(parts), closed, notes


def _faces_within(mark: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """The rows of `faces` whose three corners are all set in the vertex mask `mark`."""
    corners = mark[faces]
    return np.compress(corners[:, 0] & corners[:, 1] & corners[:, 2], faces, axis=0)


def extract_filling(input_mesh: Mesh, output_mesh: Mesh,
                    k_sigma: float = K_SIGMA_DEFAULT) -> FillReport:
    """Build the printable filling between the wounded input and the reconstruction.

    Steps: outlier vertices -> faces whose three corners are all outliers ->
    dilate by one vertex ring with induced faces -> per edge-connected patch
    component, in order of its lowest face, take the input-side and
    output-side copies and bridge the shared rim with index-corresponding
    quads (two triangles each). Components are oriented to positive signed
    volume. A pinched rim downgrades that component to its two open shells,
    with a note in the report. A non-finite distance is a NumericalError.
    """
    check_k_sigma(k_sigma)
    faces = input_mesh.faces
    if not np.array_equal(faces, output_mesh.faces):
        raise NoFillingError("input and output meshes must share face topology")
    d = vertex_distance(input_mesh, output_mesh)
    # rejects an empty or non-finite set before its mean is taken
    outliers = outlier_indices(d, k_sigma)
    mu = float(d.mean())
    sigma = float(np.sqrt(np.mean((d - mu) ** 2)))
    if outliers.size == 0:
        raise NoFillingError("no filling detected: no distances beyond the outlier threshold")

    mark = np.zeros(input_mesh.n_vertices, dtype=bool)
    mark[outliers] = True
    patch = _faces_within(mark, faces)
    if len(patch) == 0:
        raise NoFillingError("no filling detected: outlier vertices do not form a face patch")
    # dilate by one ring: outlier-patch vertices plus direct mesh neighbors
    mark[:] = False
    mark[patch] = True
    corners = mark[faces]
    mark[np.compress(corners[:, 0] | corners[:, 1] | corners[:, 2], faces, axis=0)] = True
    dilated = _faces_within(mark, faces)

    # one table of the patch's edges links each face to the first face holding
    # each of its edges, which gives the components, ordered by lowest face
    n, m = input_mesh.n_vertices, len(dilated)
    directed = _directed_edges(dilated)
    _, first, inverse, counts = np.unique(
        edge_key(directed[:, 0], directed[:, 1], n),
        return_index=True, return_inverse=True, return_counts=True,
    )
    face = np.tile(np.arange(m), 3)
    hub = face[first][inverse]
    label = components(csr_from_pairs(m, np.concatenate([face, hub]), np.concatenate([hub, face])))
    groups = np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])
    uses = counts[inverse].reshape(3, m)
    # number each component's vertices apart, ascending, in one range per component
    corner, local = np.unique(label[:, None] * n + dilated, return_inverse=True)
    local = local.reshape(m, 3)
    vertex = corner % n
    bottom, top = input_mesh.positions[vertex], output_mesh.positions[vertex]
    bounds = np.searchsorted(corner // n, np.arange(len(groups) + 1))

    all_positions, all_faces, notes = [], [], []
    closed_all = True
    for comp, lo, hi in zip(groups, bounds[:-1].tolist(), bounds[1:].tolist()):
        pos, fcs, closed, comp_notes = _close_component(
            local[comp] - lo, uses[:, comp].ravel(), bottom[lo:hi], top[lo:hi]
        )
        closed_all = closed_all and closed
        notes.extend(comp_notes)
        if closed and _signed_volume(pos, fcs) < 0:
            fcs = fcs[:, ::-1]
        all_positions.append(pos)
        all_faces.append(fcs + 2 * lo)
    filling = Mesh._adopt(np.concatenate(all_positions), np.concatenate(all_faces))
    watertight = closed_all and is_watertight(filling)
    return FillReport(
        distances=d,
        mean=mu,
        std=sigma,
        k_sigma=k_sigma,
        outliers=outliers,
        filling=filling,
        watertight=watertight,
        n_components=len(groups),
        notes=notes,
    )
