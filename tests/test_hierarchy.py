import hashlib

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from woundfill import Mesh, build_hierarchy, hierarchy, icosphere, synth_head
from woundfill.errors import MeshError
from woundfill.hierarchy import ConvTopology, MeshHierarchy, _greedy_cover
from woundfill.mesh import bfs, csr_from_pairs, vertex_adjacency


def test_single_level_rejected(sphere2):
    # no level below the mesh: the hierarchy itself refuses it
    with pytest.raises(MeshError, match="at least one"):
        build_hierarchy(sphere2, (1.0,))


def test_level_sizes_from_ratios(sphere2):
    h = build_hierarchy(sphere2, (1.0, 0.25))
    assert h.level_sizes() == [162, 40]


def test_three_levels(sphere2):
    h = build_hierarchy(sphere2, (1.0, 0.25, 0.05))
    assert h.level_sizes() == [162, 40, 8]
    assert len(h.conv_down) == len(h.pool_down) == 2


def test_pool_topology_partitions_fine_level(sphere2):
    h = build_hierarchy(sphere2, (1.0, 0.25))
    pool = h.pool_down[0]
    seen = pool.indices
    assert len(seen) == 162  # each fine vertex in exactly one cell
    assert set(seen.tolist()) == set(range(162))
    assert np.array_equal(np.sort(seen), np.unique(seen))


def test_conv_topology_covers_and_overlaps(sphere2):
    h = build_hierarchy(sphere2, (1.0, 0.25))
    conv = h.conv_down[0]
    seen = conv.indices
    assert set(seen.tolist()) == set(range(162))
    assert len(seen) > 162  # one-ring dilation makes neighborhoods overlap


def test_selected_vertices_own_their_cell(sphere2):
    h = build_hierarchy(sphere2, (1.0, 0.25))
    pool = h.pool_down[0]
    selected = _greedy_cover(vertex_adjacency(sphere2), 40)
    assert len(selected) == pool.n_out
    for i, v in enumerate(selected):
        assert v in pool.indices[pool.indptr[i]:pool.indptr[i + 1]]


def test_m_is_mean_neighborhood_size_clamped(sphere2):
    h = build_hierarchy(sphere2, (1.0, 0.25))
    conv = h.conv_down[0]
    expected = int(np.floor(conv.edge_count / conv.n_out + 0.5))
    assert conv.basis_count == min(max(expected, 4), 17)
    pool = h.pool_down[0]
    assert pool.basis_count >= 4  # 162/40 rounds to 4 after the clamp


def test_hierarchy_deterministic(sphere2):
    a = build_hierarchy(sphere2, (1.0, 0.25, 0.08))
    b = build_hierarchy(sphere2, (1.0, 0.25, 0.08))
    for ta, tb in zip(a.conv_down + a.pool_down, b.conv_down + b.pool_down):
        assert np.array_equal(ta.indptr, tb.indptr)
        assert np.array_equal(ta.indices, tb.indices)
        assert ta.basis_count == tb.basis_count


def test_transpose_is_involution(sphere2):
    h = build_hierarchy(sphere2, (1.0, 0.25))
    for t in (h.conv_down[0], h.pool_down[0]):
        tt = t.transposed.transposed
        assert np.array_equal(t.indptr, tt.indptr)
        assert np.array_equal(t.indices, tt.indices)
        assert t.basis_count == tt.basis_count


def test_transpose_identity_topology():
    n = 5
    ident = ConvTopology(n, n, np.arange(n + 1), np.arange(n), basis_count=2)
    t = ident.transposed
    assert np.array_equal(t.indptr, ident.indptr)
    assert np.array_equal(t.indices, ident.indices)
    assert t.basis_count == 2


def test_transpose_preserves_edge_count_and_edges(sphere2):
    h = build_hierarchy(sphere2, (1.0, 0.25))
    t = h.conv_down[0]
    tr = t.transposed
    assert tr.edge_count == t.edge_count
    fwd = set(zip(t.rows().tolist(), t.indices.tolist()))
    bwd = set(zip(tr.indices.tolist(), tr.rows().tolist()))
    assert fwd == bwd


def test_transpose_is_cached_and_matches_pair_transpose():
    from conftest import random_topology
    from woundfill.mesh import csr_from_pairs

    rng = np.random.default_rng(21)
    for n_in, n_out, degree in ((30, 20, 6), (12, 25, 1), (9, 4, 4)):
        t = random_topology(rng, n_in, n_out, max_degree=degree)
        tr = t.transposed
        assert tr is t.transposed
        indptr, indices = csr_from_pairs(t.n_in, t.indices, t.rows())
        assert np.array_equal(tr.indptr, indptr)
        assert np.array_equal(tr.indices, indices)
        # transposed edge k is edge perm[k] of t
        perm, _ = t.transpose_order
        assert np.array_equal(t.indices[perm], tr.rows())
        assert np.array_equal(t.rows()[perm], tr.indices)


def test_transpose_of_the_transpose_is_the_topology_itself(sphere2):
    from conftest import random_topology

    rng = np.random.default_rng(34)
    h = build_hierarchy(sphere2, (1.0, 0.25))
    for t in (h.conv_down[0], h.pool_down[0],
              *(random_topology(rng, *shape) for shape in ((30, 20, 6), (12, 25, 1), (9, 4, 4)))):
        up = t.transposed
        assert up.transposed is t
        # the order up would derive from its own CSR: its edges per input row, ascending
        perm, indptr = up.transpose_order
        assert np.array_equal(perm, np.argsort(up.indices, kind="stable"))
        assert indptr is t.indptr
        assert not perm.flags.writeable


@pytest.mark.parametrize("indptr, indices", [
    ([0, 2, 3], [2, 1, 0]),
    ([0, 3, 4], [1, 1, 2, 0]),
], ids=["reversed", "repeated"])
def test_topology_rows_must_be_strictly_ascending(indptr, indices):
    with pytest.raises(MeshError, match="output vertex 0 are not strictly ascending"):
        ConvTopology(3, 2, np.array(indptr), np.array(indices), basis_count=1)


def test_hierarchy_up_topologies_are_the_cached_transposes(sphere2):
    h = build_hierarchy(sphere2, (1.0, 0.25, 0.0625))
    for down, up in ((h.conv_down, h.conv_up), (h.pool_down, h.pool_up)):
        assert all(u is d.transposed for d, u in zip(down, up))


def test_ratio_too_small_rejected(sphere2):
    with pytest.raises(MeshError, match="at least 4"):
        build_hierarchy(sphere2, (1.0, 0.01))


def test_bad_ratio_order_rejected(sphere2):
    with pytest.raises(MeshError):
        build_hierarchy(sphere2, (1.0, 0.5, 0.5))
    with pytest.raises(MeshError, match="start at 1.0"):
        build_hierarchy(sphere2, (0.5, 0.25))


def test_disconnected_mesh_rejected(ico):
    two = Mesh(
        np.concatenate([ico.positions, ico.positions + 5.0]),
        np.concatenate([ico.faces, ico.faces + ico.n_vertices]),
    )
    with pytest.raises(MeshError, match="connected"):
        build_hierarchy(two, (1.0, 0.5))


def test_open_mesh_rejected(ico):
    holed = Mesh(ico.positions, ico.faces[1:])
    with pytest.raises(MeshError, match="watertight"):
        build_hierarchy(holed, (1.0, 0.5))


def test_topology_validates_coverage():
    with pytest.raises(MeshError, match="cover"):
        ConvTopology(3, 1, np.array([0, 2]), np.array([0, 1]), basis_count=1)


def test_topology_rejects_empty_neighborhood():
    with pytest.raises(MeshError, match="empty neighborhood"):
        ConvTopology(2, 2, np.array([0, 0, 2]), np.array([0, 1]), basis_count=1)


@pytest.mark.parametrize("n_in, n_out, indptr, indices, match", [
    (3, -1, [], [0, 1, 2], "negative"),
    (-1, 1, [0, 1], [0], "negative"),
    (10**11, 1, [0, 3], [0, 1, 2], "cannot cover"),
], ids=["negative-n-out", "negative-n-in", "n-in-above-edge-count"])
def test_topology_rejects_impossible_vertex_counts(n_in, n_out, indptr, indices, match):
    with pytest.raises(MeshError, match=match):
        ConvTopology(n_in, n_out, np.array(indptr), np.array(indices), basis_count=4)


def test_hierarchy_checks_level_counts_and_joins():
    conv = ConvTopology(6, 2, np.array([0, 4, 8]), np.array([0, 1, 2, 3, 2, 3, 4, 5]), 4)
    pool = ConvTopology(6, 2, np.array([0, 3, 6]), np.arange(6), 3)
    digest = "0" * 64  # hand-built: no mesh behind it
    h = MeshHierarchy((conv,), (pool,), digest)
    assert h.level_sizes() == [6, 2]
    assert h.conv_up[0] is conv.transposed and h.pool_up[0] is pool.transposed
    with pytest.raises(MeshError, match="level counts"):
        MeshHierarchy((), (), digest)
    with pytest.raises(MeshError, match="level counts"):
        MeshHierarchy((conv, conv), (pool,), digest)
    with pytest.raises(MeshError, match=r"conv_down\[1\] or pool_down\[1\] does not join"):
        MeshHierarchy((conv, conv), (pool, pool), digest)  # level 1 has 2 vertices, not 6
    with pytest.raises(MeshError, match="join"):
        MeshHierarchy((conv,), (conv.transposed,), digest)


def test_hierarchy_works_on_synth_heads():
    h = build_hierarchy(synth_head(3, 3), (1.0, 0.25, 0.0625))
    assert h.level_sizes() == [642, 160, 40]


# sha256 of every int64 array of build_hierarchy(synth_head(7, 3), (1.0, 0.25, 0.0625)),
# computed with the original per-vertex BFS and adjacency code; pins byte identity
HEAD7_HIERARCHY_SHA256 = {
    "conv_down[0].indptr": "c6c3443c1accc1498ff872b052a769511b53fb1492143c9e96108d1396166713",
    "conv_down[0].indices": "7c07a41b68ae7ad24899fce35ca9e09c34c1e6efb9f8667e20a3882e22d51abf",
    "conv_down[1].indptr": "802a0b91cfaf17bde4090c66726266d2306d0078b5c8c03cb86a18ee8f2b2bb7",
    "conv_down[1].indices": "efc9a04346ecf1c7ba61f60a96a0fdb732886570758d5e221f36944a7aed75a3",
    "pool_down[0].indptr": "38677196069792c094b5048d632e56800cd086bc315da1a8857ab0800890d29b",
    "pool_down[0].indices": "218ba5d1d7bc0f155638031206b9f8afe7cb35826b013ab5b748bbf8c367df79",
    "pool_down[1].indptr": "ba83a04632a794f1f7f25897fba5aa2f2ee15fd96847e7dc80224a4088cfcade",
    "pool_down[1].indices": "987ac78f828ce8779d91b455c7d24bcc6ec33120c0c37b0d536a0d58d6998b0d",
    "conv_up[0].indptr": "610469d45ed5b3e45d0128d9a977ce37af6246da900d87b0dada753c785df21e",
    "conv_up[0].indices": "b19b945b938854da64dfe3f5b096a87c0477bd619d202e1c6b245b703630e7a9",
    "conv_up[1].indptr": "7646cbc97e23021e1d03d9267a40f4b798e09cecae035616e60d14e37188b38e",
    "conv_up[1].indices": "411fef3b30c0179c0361d8dd046b78abf40c74b09374ae6d41262e5bf0b01433",
    "pool_up[0].indptr": "2f6f1d212a0d6f4ad3995e428a0089c962d87f5ead324cbab15fe5626785988e",
    "pool_up[0].indices": "9274fdd641a9f5e988b0cdfaa7a2bef978da8317c0abd4721408c555a1218001",
    "pool_up[1].indptr": "a50bb33f109160854c0c228244ae1a99fafcefd99cc09f53c32bd8b5af85260b",
    "pool_up[1].indices": "89e714f7db616ba687d96208bf08b27b9f5df29dc680d3be17bfb6c9fcb987bb",
}


def test_hierarchy_arrays_are_pinned():
    h = build_hierarchy(synth_head(7, 3), (1.0, 0.25, 0.0625))
    arrays = {}
    for name in ("conv_down", "pool_down", "conv_up", "pool_up"):
        for i, t in enumerate(getattr(h, name)):
            arrays[f"{name}[{i}].indptr"] = t.indptr
            arrays[f"{name}[{i}].indices"] = t.indices
            assert t.basis_count == (14 if name.startswith("conv") else 4)
    sha = {k: hashlib.sha256(a.astype(np.int64).tobytes()).hexdigest() for k, a in arrays.items()}
    assert sha == HEAD7_HIERARCHY_SHA256


def reference_cover(adj, target):
    """The greedy cover with one full-graph bfs per selected vertex (the oracle)."""
    n = len(adj[0]) - 1
    target = min(target, n)
    selection = []
    for k in range(1, n + 2):
        covered = np.zeros(n, dtype=bool)
        selection = []
        for v in range(n):
            if not covered[v]:
                selection.append(v)
                covered[bfs(adj, [v], max_hops=k)[0] <= k] = True
        if len(selection) <= target:
            break
    chosen = np.zeros(n, dtype=bool)
    chosen[selection] = True
    chosen[np.flatnonzero(~chosen)[: max(target - len(selection), 0)]] = True
    return np.flatnonzero(chosen)


def graph_from_pairs(n, pairs):
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return csr_from_pairs(n, np.concatenate([a, b]), np.concatenate([b, a]))


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus extra edges, vertices relabelled at random."""
    n = draw(st.integers(1, 40))
    label = draw(st.permutations(range(n)))
    pairs = [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    return graph_from_pairs(n, pairs)


@seed(4242)
@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_greedy_cover_matches_reference(adj):
    n = len(adj[0]) - 1
    for target in range(1, n + 1):
        assert np.array_equal(_greedy_cover(adj, target), reference_cover(adj, target))


@pytest.mark.parametrize("target", [640, 5])
def test_greedy_cover_matches_reference_on_icosphere(target):
    adj = vertex_adjacency(icosphere(4))
    assert np.array_equal(_greedy_cover(adj, target), reference_cover(adj, target))


def test_greedy_cover_keeps_last_pass_on_disconnected_graph():
    # three components never fit two vertices; the last pass picks each one's lowest
    adj = graph_from_pairs(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (7, 8)])
    for target in (1, 2, 3, 5):
        assert np.array_equal(_greedy_cover(adj, target), reference_cover(adj, target))
    assert _greedy_cover(adj, 2).tolist() == [0, 3, 7]


def test_build_hierarchy_runs_one_bfs_per_coarse_level(monkeypatch):
    calls = []

    def counting_bfs(*args, **kwargs):
        calls.append(args[1])
        return bfs(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "bfs", counting_bfs)
    h = build_hierarchy(synth_head(1, 4), (1.0, 0.25, 0.0625))
    assert h.level_sizes() == [2562, 640, 160]
    assert len(calls) == 2
