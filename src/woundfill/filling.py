"""Wound-filling extraction by per-vertex outlier statistics.

The wounded input and the reconstructed output share vertex indexing, so the
per-vertex distance set (losses.vertex_distance) singles out the wound:
distances there are far from the population mean. Vertices beyond k_sigma
standard deviations (population formula, strict inequality) mark the wound;
the filling solid is the volume between the two surfaces over the wound
region dilated by one ring, closed by a quad strip along the shared rim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MeshError, NoFillingError
from .losses import vertex_distance
from .mesh import (
    Mesh,
    _distinct,
    boundary_loops,
    components,
    csr_from_pairs,
    edge_key,
    is_watertight,
    signed_volume,
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
    """
    check_k_sigma(k_sigma)
    d = np.asarray(distances, dtype=np.float64)
    if d.size == 0:
        raise NoFillingError("empty distance set")
    if d.max() == d.min():
        return np.zeros(0, dtype=np.int64)
    d = np.ldexp(d, -np.frexp(np.abs(d).max())[1])
    mu = d.mean()
    sigma = np.sqrt(np.mean((d - mu) ** 2))
    return np.flatnonzero(np.abs(d - mu) > k_sigma * sigma)


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


def _face_components(faces: np.ndarray) -> list[np.ndarray]:
    """Group faces into edge-connected components (indices into `faces`), ascending.

    Every face is linked to the first face listing each of its edges, and
    components are ordered by their lowest face index.
    """
    face = np.tile(np.arange(len(faces)), 3)
    key = edge_key(faces.ravel("F"), faces[:, [1, 2, 0]].ravel("F"), int(faces.max()) + 1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    hub = face[first][inverse]
    label = components(csr_from_pairs(len(faces), np.r_[face, hub], np.r_[hub, face]))
    return np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])


def _close_component(
    comp_faces: np.ndarray, input_pos: np.ndarray, output_pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool, list[str]]:
    """Bottom (input) and top (output) copies of the patch plus a rim quad strip.

    Returns (positions, faces, closed_flag, notes) with local vertex indexing.
    """
    notes: list[str] = []
    verts = _distinct(comp_faces.ravel())
    nv = len(verts)
    local_faces = np.searchsorted(verts, comp_faces)

    # probe the open patch for simple rims before committing to a bridge
    patch = Mesh(output_pos[verts], local_faces)
    try:
        rims = boundary_loops(patch)
        closed = True
    except MeshError as exc:  # pinched rim or non-manifold patch
        notes.append(f"open patches emitted: {exc}")
        rims, closed = [], False

    # bottom shell: input positions, reversed winding; top shell: output positions
    positions = np.concatenate([input_pos[verts], output_pos[verts]])
    bottom = local_faces[:, ::-1]
    top = local_faces + nv
    parts = [bottom, top]
    if closed:
        if not rims:
            notes.append("patch is already closed; no bridge needed")
        for rim in rims:
            a = rim
            b = np.roll(rim, -1)
            # top boundary edge runs (a, b); the strip supplies (b, a) on top
            # and (a, b) on the reversed bottom
            tri1 = np.column_stack([b + nv, a + nv, a])
            tri2 = np.column_stack([a, b, b + nv])
            parts += [tri1, tri2]
    faces = np.concatenate(parts)
    return positions, faces, closed, notes


def extract_filling(input_mesh: Mesh, output_mesh: Mesh,
                    k_sigma: float = K_SIGMA_DEFAULT) -> FillReport:
    """Build the printable filling between the wounded input and the reconstruction.

    Steps: outlier vertices -> faces whose three corners are all outliers ->
    dilate by one vertex ring with induced faces -> per connected patch, take
    the input-side and output-side copies and bridge the shared rim with
    index-corresponding quads (two triangles each). Components are oriented
    to positive signed volume. A pinched rim downgrades that component to its
    two open shells, with a note in the report.
    """
    check_k_sigma(k_sigma)
    if not np.array_equal(input_mesh.faces, output_mesh.faces):
        raise NoFillingError("input and output meshes must share face topology")
    d = vertex_distance(input_mesh, output_mesh)
    outliers = outlier_indices(d, k_sigma)  # rejects an empty set before its mean is taken
    mu = float(d.mean())
    sigma = float(np.sqrt(np.mean((d - mu) ** 2)))
    if outliers.size == 0:
        raise NoFillingError("no filling detected: no distances beyond the outlier threshold")

    is_outlier = np.zeros(input_mesh.n_vertices, dtype=bool)
    is_outlier[outliers] = True
    faces = input_mesh.faces
    patch_faces = faces[is_outlier[faces].all(axis=1)]
    if len(patch_faces) == 0:
        raise NoFillingError("no filling detected: outlier vertices do not form a face patch")

    # dilate by one ring: outlier-patch vertices plus direct mesh neighbors
    in_patch = np.zeros(input_mesh.n_vertices, dtype=bool)
    in_patch[patch_faces] = True
    dilated = in_patch.copy()
    dilated[faces[in_patch[faces].any(axis=1)]] = True
    dilated_faces = faces[dilated[faces].all(axis=1)]

    all_positions, all_faces, notes = [], [], []
    offset = 0
    closed_all = True
    n_components = 0
    for comp in _face_components(dilated_faces):
        n_components += 1
        pos, fcs, closed, comp_notes = _close_component(
            dilated_faces[comp], input_mesh.positions, output_mesh.positions
        )
        closed_all = closed_all and closed
        notes.extend(comp_notes)
        if closed:
            part = Mesh(pos, fcs)
            if signed_volume(part) < 0:
                fcs = fcs[:, ::-1]
        all_positions.append(pos)
        all_faces.append(fcs + offset)
        offset += len(pos)
    filling = Mesh(np.concatenate(all_positions), np.concatenate(all_faces))
    watertight = closed_all and is_watertight(filling)
    return FillReport(
        distances=d,
        mean=mu,
        std=sigma,
        k_sigma=k_sigma,
        outliers=outliers,
        filling=filling,
        watertight=watertight,
        n_components=n_components,
        notes=notes,
    )
