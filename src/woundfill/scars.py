"""Seeded synthesis of concave facial scars and of the synthetic head dataset.

A scar is a radially symmetric inward dent: pick a focal vertex, gather its
neighborhood out to a hop radius, and push vertices in along their normals
with a quadratic falloff so the focal point is deepest. Heads are deformed
icospheres, so everything here runs at desk scale and is reproducible from
a single integer seed. Subdivision keys edges with mesh.edge_key and numbers
each pass's midpoints by their edge's first appearance in face order.

Each dataclass here checks its values when it is built, so no function
re-checks one it is handed: a bad ScarSpec is a DataError, a bad ScarRanges
or DatasetManifest header a ConfigError, which is what a bad make_dataset
argument raises. manifest.json is the DatasetManifest dataclass written by
errors.as_json and read back by errors.from_json, each value checked against
its field's annotation and then by the record it builds, so a damaged
manifest, one with a key the dataclasses do not declare, or one holding
values make_dataset would refuse, raises DataError naming the file.

The manifest stores only what cannot be derived: the header, one split per
head and one ScarSpec per scar, ordered by head and then by scar; tuples that
do not fit the header are a DataError. Each pair's head and scar follow from
its position, and its files from those, as HHHH_gt.ply and HHHH_SS.ply
(_pair_files, the one place that names them).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, MeshError, as_json, from_json
from .mesh import (
    UNREACHED,
    Mesh,
    _mean_length,
    bfs,
    edge_key,
    is_watertight,
    unique_edges,
    vertex_adjacency,
    vertex_normals,
)
from .meshio import save_mesh_path

__all__ = [
    "DatasetManifest",
    "ManifestEntry",
    "ScarMask",
    "ScarRanges",
    "ScarSpec",
    "generate_scar",
    "icosahedron",
    "icosphere",
    "load_manifest",
    "make_dataset",
    "sample_scar_spec",
    "synth_head",
]

SPLITS = ("train", "val", "test")
# concrete classes: an isinstance check against numbers.Integral or Real costs ~1 us
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class ScarSpec:
    """Parameters of one synthetic scar; identical specs give identical scars."""

    center: int
    radius: int  # hop count
    max_depth: float  # model units
    profile: str = "quadratic"
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.center, _INTEGERS):
            raise DataError(f"scar center must be an integer vertex index, got {self.center!r}")
        if not isinstance(self.radius, _INTEGERS) or self.radius <= 0:
            raise DataError(f"scar radius must be an integer hop count > 0, got {self.radius!r}")
        if not isinstance(self.max_depth, _REALS) or not 0 < self.max_depth < np.inf:
            raise DataError(f"scar max_depth must be finite and > 0, got {self.max_depth!r}")
        if self.profile != "quadratic":
            raise DataError(f"unknown scar profile {self.profile!r}")


@dataclass(frozen=True)
class ScarMask:
    """Ground truth of which vertices moved and by how much."""

    affected: np.ndarray  # sorted vertex indices with displacement > 0
    displacement: np.ndarray  # (n,) magnitudes, zero off the affected set


@dataclass(frozen=True)
class ScarRanges:
    """Sampling ranges: hop radius (inclusive) and depth in mean-edge-length units."""

    radius: tuple[int, int] = (3, 8)
    depth: tuple[float, float] = (0.5, 2.0)

    def __post_init__(self):
        if len(self.radius) != 2 or not 1 <= self.radius[0] <= self.radius[1]:
            raise ConfigError(f"bad radius range {self.radius}: need [lo, hi] with 1 <= lo <= hi")
        if len(self.depth) != 2 or not 0 < self.depth[0] <= self.depth[1] < np.inf:
            raise ConfigError(f"bad depth range {self.depth}: need finite [lo, hi], 0 < lo <= hi")


def generate_scar(mesh: Mesh, spec: ScarSpec) -> tuple[Mesh, ScarMask]:
    """Dent the mesh around spec.center; returns the wounded mesh and its mask.

    Displacement is max_depth * (1 - (r/R)^2) inward along the vertex normal,
    with r the hop distance, so it peaks at the center and reaches zero at the
    rim. Vertices outside the dent keep bit-identical coordinates. The edge
    graph and normals are derived here; make_dataset derives them once per
    dataset and once per head, and dents with the same code.
    """
    if not 0 <= spec.center < mesh.n_vertices:
        raise DataError(f"scar center {spec.center} outside mesh of {mesh.n_vertices} vertices")
    if not is_watertight(mesh):
        raise MeshError("generate_scar requires a watertight mesh")
    return _dent(mesh, vertex_adjacency(mesh), vertex_normals(mesh), spec)


def _dent(mesh: Mesh, adj, normals: np.ndarray, spec: ScarSpec) -> tuple[Mesh, ScarMask]:
    """The scar of spec on a watertight mesh, its edge graph adj and its normals.

    The search stops at spec.radius hops, where the dent ends; one that empties
    sooner has reached the center's eccentricity, the radius it clamps to.
    """
    hops, _ = bfs(adj, [spec.center], max_hops=spec.radius)
    radius = spec.radius
    deepest = int(hops[hops < UNREACHED].max())
    if radius > deepest:
        warnings.warn(
            f"scar radius {radius} exceeds component eccentricity {deepest}; clamping",
            stacklevel=3,
        )
        radius = deepest
    inside = hops < radius
    displacement = np.zeros(len(hops))
    displacement[inside] = spec.max_depth * (1.0 - (hops[inside] / radius) ** 2)
    affected = np.flatnonzero(displacement > 0)
    positions = np.array(mesh.positions)
    positions[affected] -= displacement[affected, None] * normals[affected]
    return Mesh._on_faces_of(mesh, positions, mesh.attributes), ScarMask(affected, displacement)


def sample_scar_spec(
    rng: np.random.Generator,
    n_vertices: int,
    mean_edge: float,
    ranges: ScarRanges = ScarRanges(),
) -> ScarSpec:
    """Draw a uniform ScarSpec; advances rng by exactly four draws."""
    center = int(rng.integers(0, n_vertices))
    radius = int(rng.integers(ranges.radius[0], ranges.radius[1] + 1))
    depth = float(rng.uniform(ranges.depth[0], ranges.depth[1])) * mean_edge
    seed = int(rng.integers(0, 2**63))
    return ScarSpec(center=center, radius=radius, max_depth=depth, seed=seed)


# --- synthetic heads ----------------------------------------------------


def icosahedron() -> Mesh:
    """Unit icosahedron (12 vertices, 20 faces), outward winding."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return Mesh._adopt(verts, faces)


def icosphere(subdivisions: int) -> Mesh:
    """Icosahedron subdivided `subdivisions` times and reprojected to the unit sphere.

    Vertex count is 10 * 4**s + 2. Each pass appends one midpoint per edge,
    numbered by the edge's first appearance among the faces' ab, bc, ca edges
    in face order, and splits every face into four.
    """
    mesh = icosahedron()
    verts, faces = mesh.positions, mesh.faces
    for _ in range(subdivisions):
        n = len(verts)
        ends = np.stack([faces, faces[:, [1, 2, 0]]], axis=-1).reshape(-1, 2)
        _, first, inverse = np.unique(
            edge_key(ends[:, 0], ends[:, 1], n), return_index=True, return_inverse=True
        )
        new = ends[np.sort(first)]  # each edge once, in order of first appearance
        p = (verts[new[:, 0]] + verts[new[:, 1]]) / 2.0
        # one BLAS dot per row rounds like np.linalg.norm of a single vector
        p /= np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
        verts = np.concatenate([verts, p])
        a, b, c = faces.T
        ab, bc, ca = (n + np.argsort(np.argsort(first)))[inverse].reshape(-1, 3).T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return Mesh._adopt(verts, faces)


def synth_head(seed: int, subdivisions: int = 2) -> Mesh:
    """Watertight genus-0 stand-in head: icosphere with seeded smooth bumps.

    All heads with the same subdivision count share topology; the seed only
    moves vertices (low-frequency radial lobes plus a mild axis scaling).
    """
    if subdivisions < 1:
        raise DataError("subdivisions must be >= 1")
    return _bump(icosphere(subdivisions), seed)


def _bump(base: Mesh, seed: int) -> Mesh:
    """The head of `seed` on the unit-sphere vertices of `base`."""
    rng = np.random.default_rng(seed)
    axes = rng.uniform(0.85, 1.15, size=3)
    n_lobes = 6
    dirs = rng.normal(size=(n_lobes, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    amps = rng.uniform(-0.12, 0.12, size=n_lobes)
    widths = rng.uniform(0.15, 0.5, size=n_lobes)
    d = base.positions  # already unit length
    factor = 1.0 + sum(
        amps[i] * np.exp((d @ dirs[i] - 1.0) / widths[i]) for i in range(n_lobes)
    )
    return Mesh._on_faces_of(base, d * factor[:, None] * axes[None, :], base.attributes)


# --- dataset ------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    """One (wounded, ground truth) pair of a DatasetManifest, derived from its position."""

    head: int
    scar: int
    gt_file: str
    wounded_file: str
    split: str
    spec: ScarSpec


def _pair_files(head: int, scar: int) -> tuple[str, str]:
    """The ground-truth and wounded file names of a head's scar in a dataset directory."""
    return f"{head:04d}_gt.ply", f"{head:04d}_{scar:02d}.ply"


@dataclass(frozen=True)
class DatasetManifest:
    """A dataset's header, one split per head and one ScarSpec per pair, ordered by head
    and then by scar; no splits and no specs is a header only, as the config builds."""

    seed: int
    count: int
    scars_per_mesh: int
    subdivisions: int
    split_ratios: tuple[float, float, float]
    ranges: ScarRanges
    splits: tuple[str, ...] = ()
    specs: tuple[ScarSpec, ...] = ()

    def __post_init__(self):
        if min(self.count, self.scars_per_mesh, self.subdivisions) < 1:
            raise ConfigError("count, scars_per_mesh and subdivisions must be >= 1, got "
                              f"{self.count}, {self.scars_per_mesh}, {self.subdivisions}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        ratios = self.split_ratios
        if len(ratios) != 3 or not (all(r >= 0 for r in ratios)
                                    and abs(sum(ratios) - 1.0) <= 1e-9):
            raise ConfigError(f"split_ratios must be three split ratios (train, val, test), "
                              f"each >= 0, that sum to 1; got {ratios}")
        if self.splits or self.specs:
            if len(self.splits) != self.count:
                raise DataError(f"{len(self.splits)} splits for a count of {self.count} heads")
            if len(self.specs) != self.count * self.scars_per_mesh:
                raise DataError(f"{len(self.specs)} scar specs for {self.count} heads of "
                                f"{self.scars_per_mesh} scars")
            for split in self.splits:
                if split not in SPLITS:
                    raise DataError(f"split {split!r} is not one of {SPLITS}")

    @cached_property
    def entries(self) -> tuple[ManifestEntry, ...]:
        """Every pair, ordered by head and then by scar."""
        pairs = product(range(self.count), range(self.scars_per_mesh))
        return tuple(ManifestEntry(head, scar, *_pair_files(head, scar), self.splits[head], spec)
                     for (head, scar), spec in zip(pairs, self.specs))

    def split_entries(self, split: str) -> list[ManifestEntry]:
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}; expected one of {SPLITS}")
        return [e for e in self.entries if e.split == split]

    def to_json(self) -> str:
        return json.dumps(as_json(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes, path="manifest.json") -> "DatasetManifest":
        """Parse and schema-check a manifest; a damaged one raises DataError naming path."""
        try:
            doc = json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: manifest is not UTF-8 JSON ({exc})") from None
        return from_json(cls, doc, path, "manifest")


def load_manifest(path) -> DatasetManifest:
    return DatasetManifest.from_json(Path(path).read_bytes(), path)


def _split_assignment(count: int, ratios: tuple[float, float, float], seed: int) -> list[str]:
    """Seeded shuffle of head ids, then contiguous train/val/test slices; the ratios are
    a DatasetManifest's."""
    order = np.random.default_rng([seed, 1]).permutation(count)
    n_train = int(np.floor(ratios[0] * count))
    n_val = int(np.floor(ratios[1] * count))
    split = np.empty(count, dtype=object)
    split[order] = np.repeat(SPLITS, [n_train, n_val, count - n_train - n_val])
    return split.tolist()


def make_dataset(
    out_dir,
    count: int = 8,
    scars_per_mesh: int = 1,
    seed: int = 0,
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    subdivisions: int = 2,
    ranges: ScarRanges = ScarRanges(),
) -> DatasetManifest:
    """Write `count` ground-truth heads, their wounded variants, and manifest.json.

    Every head draws from its own rng stream derived from (seed, head index),
    so results do not depend on generation order. All variants of one head
    land in the same split, which keeps ground truths from leaking across
    splits. The heads share one closed icosphere, so its edge list and edge
    graph are built once per dataset, and each head's mean edge length (over
    that list, as mean_edge_length orders it) and vertex normals once per
    head. The arguments are checked, as the DatasetManifest they make, before
    anything is written; a bad one is a ConfigError. A manifest.json already in
    out_dir is removed first, and a write that raises removes every file this
    call wrote, so out_dir never holds a manifest over meshes it did not write.
    """
    header = DatasetManifest(seed, count, scars_per_mesh, subdivisions, tuple(split_ratios),
                             ranges)
    splits = tuple(_split_assignment(count, header.split_ratios, seed))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)  # if this call dies, an older one names new meshes
    base = icosphere(subdivisions)
    adj = vertex_adjacency(base)  # icospheres are closed, as _dent requires
    edges, _ = unique_edges(base)
    specs, written = [], []

    def save(mesh: Mesh, name: str) -> None:
        save_mesh_path(mesh, out / name)
        written.append(out / name)

    try:
        for head in range(count):
            rng = np.random.default_rng([seed, 0, head])
            gt = _bump(base, int(rng.integers(0, 2**63)))
            save(gt, _pair_files(head, 0)[0])
            edge = _mean_length(gt.positions, edges)
            normals = vertex_normals(gt)
            for scar in range(scars_per_mesh):
                spec = sample_scar_spec(rng, gt.n_vertices, edge, ranges)
                wounded, _ = _dent(gt, adj, normals, spec)
                save(wounded, _pair_files(head, scar)[1])
                specs.append(spec)
        manifest = replace(header, splits=splits, specs=tuple(specs))
        manifest_path.write_text(manifest.to_json())
    except BaseException:  # a refused write leaves no partial dataset
        for path in [*written, manifest_path]:
            path.unlink(missing_ok=True)
        raise
    return manifest
