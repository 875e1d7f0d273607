"""Indexed triangle meshes and the topology queries the rest of the package builds on.

A :class:`Mesh` is immutable: positions, faces and attribute channels are
frozen numpy arrays, so meshes can be shared freely across workers. Every
operation here is a pure function returning new meshes or plain arrays.

Graphs (the vertex edge graph, the coarse graphs of the hierarchy, the face
graph of a filling patch) share one CSR layout: a pair ``(indptr, indices)``
where the neighbors of row i are ``indices[indptr[i]:indptr[i + 1]]``, sorted
and distinct. :func:`csr_from_pairs` builds it, :func:`bfs` and
:func:`components` walk it, and :func:`edge_key` is the one integer key for an
undirected edge: unique edges, boundary loops, filling face components and the
icosphere subdivision of the synthetic heads all key their edges with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError, NonManifoldError

__all__ = [
    "Mesh",
    "UNREACHED",
    "bfs",
    "bfs_hops",
    "boundary_loops",
    "components",
    "csr_from_pairs",
    "edge_key",
    "fill_holes",
    "is_watertight",
    "keep_largest_component",
    "mean_edge_length",
    "signed_volume",
    "unique_edges",
    "vertex_adjacency",
    "vertex_normals",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _owned(given, dtype, adopt: bool) -> np.ndarray:
    """given as an array of dtype, in memory that no caller can write through.

    A writable array of the caller's, or a view of one, is copied, so the
    caller's array stays writable and its later writes do not reach the mesh;
    with adopt, the caller allocated it and hands it over, and it is kept. A
    conversion is new memory, and a read-only array, such as another mesh's,
    is kept as it is.
    """
    a = np.asarray(given, dtype=dtype)
    if not adopt and a.flags.writeable and (a is given or a.base is not None):
        return a.copy()
    return a


@dataclass(frozen=True)
class Mesh:
    """Indexed triangle surface with optional named per-vertex scalar channels.

    positions: (n, 3) float64 coordinates in model units.
    faces: (m, 3) int64 vertex-index triples; all indices valid, no face
        repeats a vertex.
    attributes: mapping of channel name to (n,) float64 values.

    The mesh holds read-only arrays. It copies a writable array it is given,
    so the caller can go on writing to it; a read-only one it keeps.
    """

    positions: np.ndarray
    faces: np.ndarray
    attributes: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self._check(self.positions, self.faces, self.attributes, adopt=False)

    @classmethod
    def _adopt(cls, positions, faces, attributes=None) -> "Mesh":
        """Mesh(positions, faces, attributes) on arrays the caller allocated and hands
        over: they are checked the same way, and frozen rather than copied."""
        out = object.__new__(cls)
        out._check(positions, faces, {} if attributes is None else attributes, adopt=True)
        return out

    def _check(self, positions, faces, attributes, adopt: bool) -> None:
        pos = _owned(positions, np.float64, adopt)
        fac = _owned(faces, np.int64, adopt)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise MeshError(f"positions must be (n, 3), got {pos.shape}")
        if fac.size == 0:
            fac = fac.reshape(0, 3)
        if fac.ndim != 2 or fac.shape[1] != 3:
            raise MeshError(f"faces must be (m, 3), got {fac.shape}")
        if not np.all(np.isfinite(pos)):
            raise MeshError("positions contain non-finite values")
        if fac.size:
            out_of_range = (fac < 0) | (fac >= len(pos))
            if out_of_range.any():
                bad = int(np.flatnonzero(out_of_range.any(axis=1))[0])
                raise MeshError(
                    f"face index out of range: face {bad} references a vertex "
                    f"outside [0, {len(pos)})"
                )
            degen = (
                (fac[:, 0] == fac[:, 1])
                | (fac[:, 1] == fac[:, 2])
                | (fac[:, 2] == fac[:, 0])
            )
            if degen.any():
                raise MeshError(f"degenerate face {int(np.flatnonzero(degen)[0])}: repeated vertex index")
        self._freeze(pos, fac, attributes, adopt)

    def _freeze(self, pos: np.ndarray, fac: np.ndarray, attributes, adopt: bool) -> None:
        """Check the attributes against the finite (n, 3) float64 `pos`, then set every field."""
        attrs = {}
        for name, vals in attributes.items():
            vals = _owned(vals, np.float64, adopt)
            if vals.shape != (len(pos),):
                raise MeshError(
                    f"attribute {name!r} must have shape ({len(pos)},), got {vals.shape}"
                )
            attrs[name] = _frozen(vals)
        object.__setattr__(self, "positions", _frozen(pos))
        object.__setattr__(self, "faces", _frozen(fac))
        object.__setattr__(self, "attributes", attrs)

    @classmethod
    def _on_faces_of(cls, mesh: "Mesh", positions: np.ndarray,
                     attributes: dict[str, np.ndarray]) -> "Mesh":
        """A mesh on `mesh`'s frozen faces array (the same object) with new positions,
        which must have mesh's shape, and attributes, both checked as __post_init__
        checks them and adopted as Mesh._adopt adopts them. The faces, which `mesh`
        has passed, are not range- and degeneracy-checked again."""
        pos = np.asarray(positions, dtype=np.float64)
        if not np.isfinite(pos).all():
            raise MeshError("positions contain non-finite values")
        out = object.__new__(cls)
        out._freeze(pos, mesh.faces, attributes, adopt=True)
        return out

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


def edge_key(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Integer key of the undirected edge (a, b) over n vertices: min * n + max.

    Keys sort like the (min, max) pairs they encode.
    """
    return np.minimum(a, b) * n + np.maximum(a, b)


def _directed_edges(faces: np.ndarray) -> np.ndarray:
    """(3m, 2) face-winding edges: every face's (0, 1), then (1, 2), then (2, 0)."""
    return np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])


def unique_edges(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges and their face-incidence counts.

    Returns (edges, counts) where edges is (e, 2) with edges[i, 0] < edges[i, 1],
    sorted lexicographically.
    """
    n = mesh.n_vertices
    d = _directed_edges(mesh.faces)
    keys, counts = np.unique(edge_key(d[:, 0], d[:, 1], n), return_counts=True)
    return np.column_stack(np.divmod(keys, max(n, 1))), counts


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values. A bare np.unique call would first import numpy.ma."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def csr_from_pairs(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR graph with n rows holding every (rows[i], cols[i]) pair once.

    Each row's columns come out ascending and distinct.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    width = int(cols.max()) + 1 if cols.size else 1
    keys = _distinct(rows * width + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // width, minlength=n), out=indptr[1:])
    return indptr, keys % width


def vertex_adjacency(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The edge graph as CSR (indptr, indices), neighbors ascending."""
    edges, _ = unique_edges(mesh)
    return csr_from_pairs(mesh.n_vertices, *np.concatenate([edges, edges[:, ::-1]]).T)


UNREACHED = np.iinfo(np.int64).max


def bfs(
    adj: tuple[np.ndarray, np.ndarray], sources, max_hops: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous multi-source breadth-first search over a CSR graph.

    Returns (dist, owner): the hop distance to the nearest source and that
    source's rank in `sources`, the lowest rank winning ties. Vertices no
    source reaches within max_hops get dist UNREACHED and owner -1. Each ring
    takes, per new vertex, the minimum owner over its claiming parents, which
    equals the lowest-rank equidistant source.
    """
    indptr, indices = adj
    dist = np.full(len(indptr) - 1, UNREACHED, dtype=np.int64)
    owner = np.full_like(dist, -1)
    frontier, rank = np.unique(np.asarray(sources, dtype=np.int64), return_index=True)
    dist[frontier] = 0
    owner[frontier] = rank
    hop = 0
    while frontier.size and (max_hops is None or hop < max_hops):
        hop += 1
        start = indptr[frontier]
        size = indptr[frontier + 1] - start
        # flat positions in `indices` of every edge leaving the frontier
        pos = np.arange(size.sum()) + np.repeat(start - (np.cumsum(size) - size), size)
        nbr = indices[pos]
        claim = np.repeat(owner[frontier], size)
        fresh = dist[nbr] == UNREACHED
        nbr, claim = nbr[fresh], claim[fresh]
        frontier = _distinct(nbr)
        dist[frontier] = hop
        owner[frontier] = len(rank)
        np.minimum.at(owner, nbr, claim)
    return dist, owner


def bfs_hops(adj: tuple[np.ndarray, np.ndarray], source: int) -> np.ndarray:
    """Hop distances from one source; unreachable vertices get UNREACHED."""
    return bfs(adj, [source])[0]


def components(adj: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Connected-component label per vertex, numbered in order of each component's lowest vertex.

    adj is an undirected graph (each edge listed both ways). Minimum-label
    hooking with full pointer jumping: every label names a root, a vertex
    labelled by itself. Each round hooks every root onto the smallest label
    next to any vertex it labels, then jumps every label to its root, until a
    round changes nothing; each component then carries its lowest vertex index.
    """
    indptr, indices = adj
    label = np.arange(len(indptr) - 1)
    rows = np.flatnonzero(np.diff(indptr) > 0)
    starts = indptr[rows]
    while True:
        lowest = label.copy()
        lowest[rows] = np.minimum.reduceat(label[indices], starts)
        hooked = label.copy()
        np.minimum.at(hooked, label, lowest)
        while not ((jumped := hooked[hooked]) == hooked).all():
            hooked = jumped
        if (hooked == label).all():
            return np.unique(label, return_inverse=True)[1]
        label = hooked


def is_watertight(mesh: Mesh) -> bool:
    """True iff every edge is shared by exactly two faces."""
    if mesh.n_faces == 0:
        return False
    _, counts = unique_edges(mesh)
    return bool(np.all(counts == 2))


def boundary_loops(mesh: Mesh) -> list[np.ndarray]:
    """Closed vertex cycles along hole rims, in face-winding order.

    A boundary edge belongs to exactly one face; the loops follow the winding
    of that face. Empty for watertight input. Raises NonManifoldError for
    edges with more than two incident faces and MeshError when the boundary
    pinches (a vertex shared by two rims), since such loops are not simple.
    """
    n = mesh.n_vertices
    directed = _directed_edges(mesh.faces)
    _, inverse, counts = np.unique(
        edge_key(directed[:, 0], directed[:, 1], n), return_inverse=True, return_counts=True
    )
    return _rim_loops(directed, counts[inverse])


def _rim_loops(directed: np.ndarray, uses: np.ndarray) -> list[np.ndarray]:
    """The rim of a patch walked into loops: boundary_loops on its edges.

    directed: the (3m, 2) edges of _directed_edges over the patch's faces;
    uses: how many of those faces hold each one's undirected edge. The edges
    held once are the rim; each loop starts at its lowest vertex, and loops
    come in the order of those. Raises NonManifoldError naming the lowest
    edge more than two faces hold, and MeshError when a vertex starts two
    rim edges, or a walk meets a vertex twice or one that starts no rim
    edge: such rims are not simple loops.
    """
    over = np.flatnonzero(uses > 2)
    if over.size:
        pairs = np.sort(directed[over], axis=1)
        lowest = np.lexsort(pairs.T[::-1])[0]
        raise NonManifoldError(pairs[lowest], int(uses[over[lowest]]))
    nxt: dict[int, int] = {}
    for a, b in directed[uses == 1].tolist():
        if a in nxt:
            raise MeshError(f"non-simple boundary: vertex {a} lies on more than one rim edge pair")
        nxt[a] = b
    loops = []
    seen: set[int] = set()
    for start in sorted(nxt):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        v = nxt[start]
        while v != start:
            if v in seen or v not in nxt:
                raise MeshError(f"boundary does not close into a simple loop near vertex {v}")
            loop.append(v)
            seen.add(v)
            v = nxt[v]
        loops.append(np.array(loop, dtype=np.int64))
    return loops


def fill_holes(mesh: Mesh) -> Mesh:
    """Cap every hole with a centroid fan.

    Each rim loop of length L gains one vertex at the arithmetic mean of the
    loop and L triangles wound opposite to the adjacent faces, so the result
    has no boundary edges. Attribute channels extend with the loop mean.
    """
    loops = boundary_loops(mesh)
    if not loops:
        return mesh
    positions = [mesh.positions]
    attrs = {name: [vals] for name, vals in mesh.attributes.items()}
    new_faces = [mesh.faces]
    next_index = mesh.n_vertices
    for loop in loops:
        centroid = mesh.positions[loop].mean(axis=0)
        positions.append(centroid[None, :])
        for name, chunks in attrs.items():
            chunks.append(np.array([mesh.attributes[name][loop].mean()]))
        ln = len(loop)
        fan = np.empty((ln, 3), dtype=np.int64)
        # rim edge (a, b) follows the adjacent face winding; the cap triangle
        # must traverse it as (b, a) to keep orientation consistent
        fan[:, 0] = np.roll(loop, -1)
        fan[:, 1] = loop
        fan[:, 2] = next_index
        new_faces.append(fan)
        next_index += 1
    return Mesh._adopt(
        np.concatenate(positions),
        np.concatenate(new_faces),
        {name: np.concatenate(chunks) for name, chunks in attrs.items()},
    )


def keep_largest_component(mesh: Mesh) -> tuple[Mesh, np.ndarray]:
    """Drop everything but the connected component with the most vertices.

    Ties go to the component containing the smallest vertex index. Returns
    the re-indexed mesh and an array mapping new vertex index -> old index.
    """
    if mesh.n_vertices == 0:
        raise MeshError("empty mesh")
    label = components(vertex_adjacency(mesh))
    sizes = np.bincount(label)
    best = int(np.argmax(sizes))  # argmax takes the first maximum: smallest-index tie-break
    keep = np.flatnonzero(label == best)
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    face_keep = np.all(label[mesh.faces] == best, axis=1)
    out = Mesh._adopt(
        mesh.positions[keep],
        remap[mesh.faces[face_keep]],
        {name: vals[keep] for name, vals in mesh.attributes.items()},
    )
    return out, keep


def vertex_normals(mesh: Mesh) -> np.ndarray:
    """Area-weighted vertex normals, unit length where defined.

    Each vertex sums its faces' cross products from 0.0: the faces where it is
    corner 0 in face order, then corner 1, then corner 2.
    """
    p = mesh.positions
    f = mesh.faces
    fn = _cross(p[f[:, 1]] - p[f[:, 0]], p[f[:, 2]] - p[f[:, 0]])
    corners = f.ravel("F")  # corner 0 of every face, then corner 1, then corner 2
    vn = np.column_stack([np.bincount(corners, np.tile(fn[:, c], 3), len(p)) for c in range(3)])
    norms = _norm(vn)
    ok = norms > 0
    vn[ok] /= norms[ok, None]
    return vn


def mean_edge_length(mesh: Mesh) -> float:
    edges, _ = unique_edges(mesh)
    if len(edges) == 0:
        raise MeshError("mesh has no edges")
    return _mean_length(mesh.positions, edges)


def _mean_length(positions: np.ndarray, edges: np.ndarray) -> float:
    """Mean length of the (e, 2) vertex pairs `edges`, summed in their order."""
    d = positions[edges[:, 0]] - positions[edges[:, 1]]
    return float(_norm(d).mean())


def signed_volume(mesh: Mesh) -> float:
    """Signed enclosed volume by the divergence theorem; meaningful for closed meshes."""
    return _signed_volume(mesh.positions, mesh.faces)


def _signed_volume(p: np.ndarray, f: np.ndarray) -> float:
    """signed_volume of the positions `p` and faces `f`, which are not checked."""
    a, b, c = p[f.T]
    return float(np.einsum("ij,ij->i", a, _cross(b, c)).sum() / 6.0)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (n, 3) arrays.

    Each component is one product minus another, as np.cross forms it, so the
    bits are np.cross's without its axis and broadcasting handling.
    """
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of an (n, 3) array.

    The squares are summed (x + y) + z, numpy's order for a length-3 axis, so
    the bits are np.linalg.norm(v, axis=1)'s.
    """
    sq = v * v
    return np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])
