from collections import deque

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import euler_characteristic, k_ring, reference_components
from woundfill import (
    Mesh,
    boundary_loops,
    fill_holes,
    icosphere,
    is_watertight,
    keep_largest_component,
    signed_volume,
    synth_head,
    vertex_normals,
)
from woundfill.errors import MeshError, NonManifoldError
from woundfill.mesh import (
    UNREACHED,
    _cross,
    _norm,
    bfs,
    components,
    csr_from_pairs,
    vertex_adjacency,
)


def test_mesh_rejects_out_of_range_face():
    with pytest.raises(MeshError, match="out of range"):
        Mesh(np.zeros((3, 3)), [[0, 1, 9]])


def test_mesh_rejects_repeated_vertex_in_face():
    with pytest.raises(MeshError, match="degenerate"):
        Mesh(np.zeros((3, 3)), [[0, 1, 1]])


def test_mesh_rejects_nonfinite_positions():
    pos = np.zeros((3, 3))
    pos[1, 2] = np.nan
    with pytest.raises(MeshError, match="non-finite"):
        Mesh(pos, [[0, 1, 2]])


def test_new_positions_on_a_meshs_faces_are_checked(ico):
    bad = np.array(ico.positions)
    bad[4, 0] = np.inf
    with pytest.raises(MeshError, match="non-finite"):
        Mesh(bad, ico.faces)
    # another vertex count is checked in full: here a face indexes a vertex that is gone
    with pytest.raises(MeshError, match="face index out of range"):
        Mesh(ico.positions[:-1], ico.faces)


def test_mesh_leaves_the_callers_arrays_writable_and_unseen(ico):
    positions, faces, error = ico.positions.copy(), ico.faces.copy(), np.zeros(ico.n_vertices)
    meshes = [Mesh(positions, faces, {"error": error}), Mesh(positions, ico.faces),
              Mesh(positions[:, :3], faces[:])]  # views of the caller's arrays too
    positions[0], faces[0], error[0] = 5.0, faces[1], 1.0  # the caller's arrays stay writable
    for mesh in meshes:
        assert np.array_equal(mesh.positions, ico.positions)
        assert np.array_equal(mesh.faces, ico.faces)
        assert not mesh.positions.flags.writeable and not mesh.faces.flags.writeable
    assert meshes[0].attributes["error"][0] == 0.0
    # read-only arrays, such as another mesh's, are kept; so are arrays handed over
    assert Mesh(ico.positions, ico.faces).faces is ico.faces
    handed = np.array(ico.positions)
    assert Mesh._adopt(handed, ico.faces).positions is handed


def test_mesh_is_immutable(ico):
    with pytest.raises(ValueError):
        ico.positions[0, 0] = 5.0
    with pytest.raises(ValueError):
        ico.faces[0, 0] = 3


def test_attribute_shape_checked():
    with pytest.raises(MeshError, match="attribute"):
        Mesh(np.zeros((3, 3)), [[0, 1, 2]], {"error": np.zeros(2)})


def test_watertight_icosahedron(ico):
    assert is_watertight(ico)
    assert euler_characteristic(ico) == 2


def test_watertight_fails_with_missing_face(ico):
    broken = Mesh(ico.positions, ico.faces[1:])
    assert not is_watertight(broken)


def test_row_cross_and_norm_are_numpys_bit_for_bit():
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.integers(-320, 308, size=(500, 1))
    a, b = rng.normal(size=(500, 3)) * scale, rng.normal(size=(500, 3)) * scale[::-1]
    a[:20] = 0.0
    a[20:40] *= -0.0
    b[40:45, 1] = np.inf
    with np.errstate(all="ignore"):
        assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
        for v in (a, b, a - b):
            assert _norm(v).tobytes() == np.linalg.norm(v, axis=1).tobytes()


def test_boundary_loops_empty_for_closed(ico):
    assert boundary_loops(ico) == []


def test_boundary_loop_cube_minus_quad(cube):
    # drop the two triangles of the bottom quad: rim is that quad's 4 edges
    open_cube = Mesh(cube.positions, cube.faces[2:])
    loops = boundary_loops(open_cube)
    assert len(loops) == 1
    assert len(loops[0]) == 4
    assert set(loops[0].tolist()) == {0, 1, 2, 3}


def test_boundary_loop_of_plane_patch():
    # single triangle: the rim is the triangle itself
    tri = Mesh(np.eye(3), [[0, 1, 2]])
    loops = boundary_loops(tri)
    assert len(loops) == 1
    assert set(loops[0].tolist()) == {0, 1, 2}


def test_boundary_loops_reports_nonmanifold_edge():
    pos = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1.0]])
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]  # edge (0,1) on three faces
    with pytest.raises(NonManifoldError, match=r"\(0, 1\)"):
        boundary_loops(Mesh(pos, faces))


def test_fill_holes_cube_euler(cube):
    open_cube = Mesh(cube.positions, cube.faces[2:])
    filled = fill_holes(open_cube)
    assert filled.n_vertices == 9
    assert filled.n_faces == 14
    assert euler_characteristic(filled) == 2  # 9 - 21 + 14
    assert is_watertight(filled)


def test_fill_holes_noop_on_watertight(ico):
    assert fill_holes(ico) is ico


def test_fill_holes_extends_each_channel_with_its_rim_mean():
    sphere = icosphere(1)
    index = np.arange(sphere.n_vertices, dtype=np.float64)
    filled = fill_holes(Mesh(sphere.positions, sphere.faces[1:], {"error": index}))
    assert is_watertight(filled) and filled.n_vertices == 43
    np.testing.assert_array_equal(filled.attributes["error"][:42], index)
    assert filled.attributes["error"][42] == index[sphere.faces[0]].mean() == 26 / 3


def test_fill_holes_two_holes_adds_per_loop(sphere2):
    # two vertex-disjoint holes: one single face (rim 3) and one adjacent
    # face pair (rim 4, their shared edge vanishes)
    faces = sphere2.faces
    f0 = 0
    f0_verts = set(faces[f0])
    pair = None
    for i in range(1, len(faces)):
        if set(faces[i]) & f0_verts:
            continue
        for j in range(i + 1, len(faces)):
            if len(set(faces[i]) & set(faces[j])) == 2 and not (set(faces[j]) & f0_verts):
                pair = (i, j)
                break
        if pair:
            break
    keep = np.ones(len(faces), dtype=bool)
    keep[[f0, pair[0], pair[1]]] = False
    holed = Mesh(sphere2.positions, faces[keep])
    filled = fill_holes(holed)
    assert filled.n_vertices == holed.n_vertices + 2
    assert filled.n_faces == holed.n_faces + 3 + 4
    assert is_watertight(filled)
    assert euler_characteristic(filled) == 2


def test_fill_holes_keeps_orientation(sphere2):
    holed = Mesh(sphere2.positions, sphere2.faces[1:])
    filled = fill_holes(holed)
    vol_before = signed_volume(sphere2)
    vol_after = signed_volume(filled)
    assert vol_after > 0
    assert abs(vol_after - vol_before) < 0.05 * vol_before


def test_fill_holes_refuses_pinched_rim(sphere2):
    # removing two faces that share exactly one vertex pinches the boundary
    faces = sphere2.faces
    f0 = 0
    j = next(
        i for i in range(1, len(faces))
        if len(set(faces[i]) & set(faces[f0])) == 1
    )
    keep = np.ones(len(faces), dtype=bool)
    keep[[f0, j]] = False
    with pytest.raises(MeshError, match="non-simple"):
        fill_holes(Mesh(sphere2.positions, faces[keep]))


def test_keep_largest_component_head_plus_eyeballs(sphere2):
    head = sphere2
    eye = icosphere(1)
    parts_pos = [head.positions]
    parts_faces = [head.faces]
    offset = head.n_vertices
    for shift in ([3.0, 0, 0], [-3.0, 0, 0]):
        parts_pos.append(eye.positions * 0.2 + shift)
        parts_faces.append(eye.faces + offset)
        offset += eye.n_vertices
    combined = Mesh(np.concatenate(parts_pos), np.concatenate(parts_faces))
    out, mapping = keep_largest_component(combined)
    assert out.n_vertices == head.n_vertices
    assert out.n_faces == head.n_faces
    assert np.array_equal(out.positions, head.positions)
    assert np.array_equal(mapping, np.arange(head.n_vertices))


def test_keep_largest_component_single_unchanged(ico):
    out, mapping = keep_largest_component(ico)
    assert np.array_equal(out.positions, ico.positions)
    assert np.array_equal(out.faces, ico.faces)
    assert np.array_equal(mapping, np.arange(ico.n_vertices))


def test_keep_largest_component_tie_keeps_vertex_zero(ico):
    two = Mesh(
        np.concatenate([ico.positions, ico.positions + 10.0]),
        np.concatenate([ico.faces, ico.faces + ico.n_vertices]),
    )
    out, mapping = keep_largest_component(two)
    assert np.array_equal(mapping, np.arange(ico.n_vertices))
    assert np.allclose(out.positions, ico.positions)


def test_keep_largest_component_empty_mesh():
    with pytest.raises(MeshError, match="empty"):
        keep_largest_component(Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)))


def test_k_ring_zero_is_center(ico):
    assert k_ring(ico, 3, 0).tolist() == [3]


def test_k_ring_icosahedron_one(ico):
    # every icosahedron vertex has degree 5
    assert len(k_ring(ico, 0, 1)) == 6


def test_k_ring_saturates(ico):
    full = k_ring(ico, 0, 100)
    assert len(full) == ico.n_vertices


@settings(max_examples=30, deadline=None)
@given(center=st.integers(0, 161), k=st.integers(0, 8))
def test_k_ring_monotone(center, k):
    mesh = icosphere(2)
    inner = set(k_ring(mesh, center, k).tolist())
    outer = set(k_ring(mesh, center, k + 1).tolist())
    assert inner <= outer


# --- CSR graph primitive ------------------------------------------------------


def reference_hops(neighbors: list[set[int]], source: int) -> list[float]:
    """Plain queue BFS; math.inf where unreachable."""
    hops = [float("inf")] * len(neighbors)
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in sorted(neighbors[u]):
            if hops[w] == float("inf"):
                hops[w] = hops[u] + 1
                queue.append(w)
    return hops


@st.composite
def random_graphs(draw):
    """Undirected graphs with up to 24 vertices, often disconnected, self-loops allowed."""
    n = draw(st.integers(1, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    max_hops = draw(st.one_of(st.none(), st.integers(0, 4)))
    return n, pairs, sources, max_hops


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_graph_primitive_matches_reference(graph):
    n, pairs, sources, max_hops = graph
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    indptr, indices = adj = csr_from_pairs(n, np.concatenate([a, b]), np.concatenate([b, a]))

    neighbors = [set() for _ in range(n)]
    for u, w in pairs:
        neighbors[u].add(w)
        neighbors[w].add(u)
    for v in range(n):
        row = indices[indptr[v]:indptr[v + 1]]
        assert row.tolist() == sorted(neighbors[v])  # ascending and distinct

    per_source = [reference_hops(neighbors, s) for s in sources]
    dist, owner = bfs(adj, sources, max_hops=max_hops)
    for v in range(n):
        nearest = min(h[v] for h in per_source)
        if nearest == float("inf") or (max_hops is not None and nearest > max_hops):
            assert (dist[v], owner[v]) == (UNREACHED, -1)
        else:
            assert dist[v] == nearest
            assert owner[v] == min(r for r, h in enumerate(per_source) if h[v] == nearest)

    label = components(adj)
    for v in range(n):
        reach = reference_hops(neighbors, v)
        assert all((label[w] == label[v]) == (reach[w] != float("inf")) for w in range(n))
    _, first = np.unique(label, return_index=True)
    assert label[np.sort(first)].tolist() == list(range(len(first)))  # ordered by lowest vertex


@pytest.mark.parametrize("graph_seed", range(40))
def test_components_match_a_bfs_labelling(graph_seed):
    # a few hundred vertices in several components, some of them isolated vertices
    rng = np.random.default_rng([2026, graph_seed])
    n = int(rng.integers(1, 400))
    group = rng.integers(0, int(rng.integers(1, 12)), size=n)
    a, b = rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n))))
    a, b = a[group[a] == group[b]], b[group[a] == group[b]]
    adj = csr_from_pairs(n, np.concatenate([a, b]), np.concatenate([b, a]))
    assert np.array_equal(components(adj), reference_components(adj))


def test_components_of_a_mesh_edge_graph():
    # the V=2562 sphere is one component; its edges within latitude bands leave several
    mesh = icosphere(4)
    indptr, indices = adj = vertex_adjacency(mesh)
    assert not components(adj).any()
    u = np.repeat(np.arange(mesh.n_vertices), np.diff(indptr))
    band = np.floor(mesh.positions[:, 2] * 3)
    same = band[u] == band[indices]
    banded = csr_from_pairs(mesh.n_vertices, u[same], indices[same])
    label = components(banded)
    assert label.max() >= 5
    assert np.array_equal(label, reference_components(banded))


def vertex_normals_oracle(mesh):
    """Face cross products scattered with np.add.at, corner 0, then 1, then 2."""
    p, f = mesh.positions, mesh.faces
    fn = np.cross(p[f[:, 1]] - p[f[:, 0]], p[f[:, 2]] - p[f[:, 0]])
    vn = np.zeros_like(p)
    for c in range(3):
        np.add.at(vn, f[:, c], fn)
    norms = np.linalg.norm(vn, axis=1)
    ok = norms > 0
    vn[ok] /= norms[ok, None]
    return vn


def with_unreferenced_vertex():
    sphere = icosphere(1)
    return Mesh(np.vstack([sphere.positions, [[2.0, 0.0, 0.0]]]), sphere.faces)


@pytest.mark.parametrize("name, make", [
    *((f"icosphere{s}", lambda s=s: icosphere(s)) for s in range(5)),
    *((f"head{seed}-{s}", lambda seed=seed, s=s: synth_head(seed, s))
      for seed, s in [(1, 2), (7, 3), (11, 4)]),
    ("unreferenced-vertex", with_unreferenced_vertex),
])
def test_vertex_normals_are_bitwise_the_add_at_oracle(name, make):
    mesh = make()
    normals = vertex_normals(mesh)
    assert normals.tobytes() == vertex_normals_oracle(mesh).tobytes()  # bitwise: no tolerance
    if name == "unreferenced-vertex":
        assert np.array_equal(normals[-1], np.zeros(3))
