"""Multi-resolution vertex hierarchy and per-layer neighborhood topology.

Coarser levels are chosen by a deterministic greedy covering of the level
graph: repeatedly select the lowest-index uncovered vertex and mark its
k-ring covered, growing k until the selection fits the target size, then
pad with the lowest-index unselected vertices. Each k-ring is one
hop-bounded walk over the CSR lists that stamps the vertices it reaches, so
a selected vertex costs the size of its ring, not of the graph, and a pass
allocates O(V) once. Every fine vertex is then assigned to its nearest
selected vertex (hop distance, lowest coarse index on ties) by one
multi-source :func:`woundfill.mesh.bfs` per level, which yields the pooling
partition; convolution neighborhoods are those cells dilated by one ring so
they overlap but still cover the level.

Every level graph, cell partition and neighborhood is a CSR graph built by
:func:`woundfill.mesh.csr_from_pairs`. A :class:`MeshHierarchy` stores only
the down topologies, which are all the model runs on: a level's size is its
topologies' n_in or n_out, and which vertices a level keeps is not recorded
(row i of a pool topology holds the i-th selected vertex). The up topologies
are the down ones' cached transposes (transposition is an involution, so an
up topology's transpose is its down one), and every hierarchy, built or
loaded, checks that it has at least one level below the mesh and that its
topologies join level to level.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshError
from .mesh import Mesh, bfs, components, csr_from_pairs, unique_edges, vertex_adjacency

__all__ = ["ConvTopology", "MeshHierarchy", "build_hierarchy", "faces_digest"]

M_CLAMP_DEFAULT = (4, 17)
MIN_LEVEL_VERTICES = 4


@dataclass(frozen=True)
class ConvTopology:
    """Per-output-vertex neighborhoods in CSR form.

    Output vertex i draws from input vertices indices[indptr[i]:indptr[i+1]],
    stored strictly ascending, which construction checks. basis_count is the
    layer's kernel-basis size M.
    """

    n_in: int
    n_out: int
    indptr: np.ndarray  # (n_out + 1,) int64
    indices: np.ndarray  # (edge_count,) int64
    basis_count: int

    def __post_init__(self):
        if self.n_in < 0 or self.n_out < 0:
            raise MeshError(f"negative vertex count: n_in {self.n_in}, n_out {self.n_out}")
        indptr = np.array(self.indptr, dtype=np.int64)
        indices = np.array(self.indices, dtype=np.int64)
        if indptr.shape != (self.n_out + 1,) or indptr[0] != 0 or indptr[-1] != len(indices):
            raise MeshError("malformed CSR indptr")
        sizes = np.diff(indptr)
        if (sizes <= 0).any():
            raise MeshError(f"empty neighborhood for output vertex {int(np.argmin(sizes))}")
        if len(indices) and (indices.min() < 0 or indices.max() >= self.n_in):
            raise MeshError("neighbor index out of range")
        steps = np.diff(indices)
        steps[indptr[1:-1] - 1] = 1  # a row's first index follows the previous row's last
        if (steps <= 0).any():
            row = int(np.searchsorted(indptr, np.argmin(steps), side="right")) - 1
            raise MeshError(f"neighbors of output vertex {row} are not strictly ascending")
        if self.n_in > len(indices):  # each input vertex needs an edge; bounds `covered`
            raise MeshError(f"{len(indices)} edges cannot cover {self.n_in} input vertices")
        covered = np.zeros(self.n_in, dtype=bool)
        covered[indices] = True
        if not covered.all():
            raise MeshError(
                f"neighborhoods do not cover input vertex {int(np.flatnonzero(~covered)[0])}"
            )
        if self.basis_count < 1:
            raise MeshError("basis_count must be >= 1")
        for a in (indptr, indices):
            a.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    @property
    def edge_count(self) -> int:
        return len(self.indices)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def rows(self) -> np.ndarray:
        """Output-vertex index of every CSR edge; built once per topology, read-only."""
        rows = self.memo.get("rows")
        if rows is None:
            rows = self.memo["rows"] = np.repeat(np.arange(self.n_out), self.sizes)
            rows.flags.writeable = False
        return rows

    @cached_property
    def transpose_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(perm, indptr) of the edge transpose, computed once per topology.

        Input vertex j's edges are perm[indptr[j]:indptr[j+1]], ascending by
        edge id and therefore by output vertex.
        """
        perm = np.argsort(self.indices, kind="stable")
        indptr = np.zeros(self.n_in + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=self.n_in), out=indptr[1:])
        for a in (perm, indptr):
            a.flags.writeable = False
        return perm, indptr

    @cached_property
    def memo(self) -> dict:
        """Per-topology store for index arrays that kernels derive from the CSR once."""
        return {}

    @property
    def transposed(self) -> "ConvTopology":
        """Exact edge transpose: j in N'(i) iff i in N(j). basis_count carries over.

        An involution: a topology keeps the transpose it builds, and that
        transpose keeps a weak reference back, so t.transposed.transposed is t
        while t lives and no reference cycle holds either one (or its plans)
        past its last user. The transpose's transpose_order is (the inverse of
        perm, this indptr): ascending per row because rows are stored ascending.
        """
        t = vars(self).get("_transposed")
        if isinstance(t, weakref.ref):
            t = t()
        if t is None:
            perm, indptr = self.transpose_order
            t = ConvTopology(self.n_out, self.n_in, indptr, self.rows()[perm], self.basis_count)
            inverse = np.empty_like(perm)
            inverse[perm] = np.arange(len(perm))
            inverse.flags.writeable = False
            vars(t).update(_transposed=weakref.ref(self), transpose_order=(inverse, self.indptr))
            vars(self)["_transposed"] = t
        return t


def _topology(n_in: int, csr: tuple[np.ndarray, np.ndarray], m_clamp) -> ConvTopology:
    """ConvTopology over a CSR graph; basis_count is the rounded mean row size, clamped."""
    indptr, indices = csr
    n_out = len(indptr) - 1
    m = int(np.floor(indptr[-1] / max(n_out, 1) + 0.5))
    return ConvTopology(n_in, n_out, indptr, indices, min(max(m, m_clamp[0]), m_clamp[1]))


@dataclass(frozen=True)
class MeshHierarchy:
    """The down topologies between a mesh's vertex levels, finest first.

    conv_down[l] and pool_down[l] join level l to level l+1: n_in is the size
    of level l, n_out that of level l+1, and level 0 is the full mesh. There
    is at least one pair, and each pair's n_in is the previous pair's n_out;
    construction checks this. The up topologies are not stored: they are the
    down ones' cached transposes. faces_sha256 is the faces_digest of the
    level-0 mesh, which binds the hierarchy (and a checkpoint that carries it)
    to that face list.
    """

    conv_down: tuple[ConvTopology, ...]
    pool_down: tuple[ConvTopology, ...]
    faces_sha256: str

    def __post_init__(self):
        if not self.conv_down or len(self.conv_down) != len(self.pool_down):
            raise MeshError(f"hierarchy has inconsistent level counts: {len(self.conv_down)} "
                            f"conv_down and {len(self.pool_down)} pool_down topologies; it "
                            "needs as many of each, and at least one")
        sizes = self.level_sizes()
        for l, join in enumerate(zip(sizes, sizes[1:])):
            if any((t.n_in, t.n_out) != join for t in (self.conv_down[l], self.pool_down[l])):
                raise MeshError(f"conv_down[{l}] or pool_down[{l}] does not join levels of "
                                f"{join[0]} and {join[1]} vertices")

    @property
    def conv_up(self) -> tuple[ConvTopology, ...]:
        return tuple(t.transposed for t in self.conv_down)

    @property
    def pool_up(self) -> tuple[ConvTopology, ...]:
        return tuple(t.transposed for t in self.pool_down)

    def level_sizes(self) -> list[int]:
        return [self.conv_down[0].n_in, *(t.n_out for t in self.conv_down)]


def faces_digest(mesh: Mesh) -> str:
    """sha256 hex digest of the faces as little-endian int64: the topology, not the shape."""
    return hashlib.sha256(mesh.faces.astype("<i8", copy=False).tobytes()).hexdigest()


def _greedy_cover(adj: tuple[np.ndarray, np.ndarray], target: int) -> np.ndarray:
    """Lowest-index greedy k-ring cover, k grown until the selection fits target,
    padded with the lowest-index unselected vertices to exactly target.

    Each selected vertex v marks its k-ring covered with one hop-bounded walk
    over the CSR lists. The walk goes through already covered vertices (ring
    membership is graph distance) and stamps what it reaches with
    seen[w] = v, so no V-length array is cleared or allocated per vertex and
    v costs the edges of its (k-1)-ring. A pass that selects more than target
    stops there, except the last (k = n + 1), whose selection stands when no
    k fits.
    """
    indptr, indices = adj[0].tolist(), adj[1].tolist()
    n = len(indptr) - 1
    target = min(target, n)
    selection: list[int] = []
    for k in range(1, n + 2):
        covered = [False] * n
        seen = [-1] * n
        selection = []
        for v in range(n):
            if covered[v]:
                continue
            selection.append(v)
            if len(selection) > target and k <= n:
                break
            seen[v] = v
            frontier = [v]
            for _ in range(k):
                if not frontier:
                    break
                ring = []
                for u in frontier:
                    for w in indices[indptr[u]:indptr[u + 1]]:
                        if seen[w] != v:
                            seen[w] = v
                            covered[w] = True
                            ring.append(w)
                frontier = ring
        if len(selection) <= target:
            break
    chosen = np.zeros(n, dtype=bool)
    chosen[selection] = True
    chosen[np.flatnonzero(~chosen)[: max(target - len(selection), 0)]] = True
    return np.flatnonzero(chosen)


def build_hierarchy(
    mesh: Mesh,
    ratios: tuple[float, ...],
    m_clamp: tuple[int, int] = M_CLAMP_DEFAULT,
) -> MeshHierarchy:
    """Deterministic hierarchy for a connected watertight mesh.

    ratios are level sizes as fractions of the full vertex count, starting
    at 1.0 and strictly decreasing; level l has floor(n * ratios[l]) vertices.
    A lone 1.0 leaves no level below the mesh, which MeshHierarchy refuses.
    """
    ratios = tuple(float(r) for r in ratios)
    if not ratios or ratios[0] != 1.0:
        raise MeshError(f"ratios must start at 1.0, got {ratios}")
    for a, b in zip(ratios, ratios[1:]):
        if not (0.0 < b < a <= 1.0):
            raise MeshError(f"ratios must be strictly decreasing in (0, 1], got {ratios}")
    n = mesh.n_vertices
    _, counts = unique_edges(mesh)
    if (counts != 2).any():
        raise MeshError("build_hierarchy requires a watertight mesh")
    level_adj = vertex_adjacency(mesh)
    if n == 0 or components(level_adj).any():
        raise MeshError("build_hierarchy requires a connected mesh")

    conv_down, pool_down = [], []
    for ratio in ratios[1:]:
        target = int(np.floor(n * ratio))
        if target < MIN_LEVEL_VERTICES:
            raise MeshError(f"ratio {ratio} yields {target} of {n} vertices; "
                            f"need at least {MIN_LEVEL_VERTICES}")
        n_fine = len(level_adj[0]) - 1
        selected = _greedy_cover(level_adj, target)
        _, owner = bfs(level_adj, selected)
        if (owner < 0).any():
            raise MeshError("hierarchy level graph is disconnected")
        fine = np.arange(n_fine)
        u = np.repeat(fine, np.diff(level_adj[0]))  # level graph edges (u, w)
        w = level_adj[1]
        pool_down.append(_topology(n_fine, csr_from_pairs(len(selected), owner, fine), m_clamp))
        # each cell plus the one-ring of its vertices
        dilated = csr_from_pairs(
            len(selected), np.concatenate([owner, owner[u]]), np.concatenate([fine, w])
        )
        conv_down.append(_topology(n_fine, dilated, m_clamp))
        # coarse graph: cells are adjacent when any of their fine vertices are
        cross = owner[u] != owner[w]
        level_adj = csr_from_pairs(len(selected), owner[u][cross], owner[w][cross])

    return MeshHierarchy(tuple(conv_down), tuple(pool_down), faces_digest(mesh))

