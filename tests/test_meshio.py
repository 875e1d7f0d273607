import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from woundfill import Mesh, icosahedron, icosphere, load_mesh, load_mesh_path, save_mesh, save_mesh_path
from conftest import reference_stl_body
from woundfill import meshio
from woundfill.errors import MeshError, MeshFormatError, NumericalError, WoundfillError


def test_obj_minimal():
    data = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    mesh = load_mesh(data, "obj")
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_obj_index_out_of_range():
    data = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n"
    with pytest.raises(MeshFormatError, match="line 4.*out of range"):
        load_mesh(data, "obj")


def test_obj_bad_coordinate_reports_line():
    with pytest.raises(MeshFormatError, match="line 2"):
        load_mesh(b"v 0 0 0\nv 1 oops 0\n", "obj")


def test_obj_ignores_other_directives_with_warning():
    data = b"vn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\nusemtl skin\nf 1 2 3\n"
    with pytest.warns(UserWarning, match="ignored directives"):
        mesh = load_mesh(data, "obj")
    assert mesh.n_faces == 1


def test_obj_slash_indices():
    data = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n"
    assert load_mesh(data, "obj").faces.tolist() == [[0, 1, 2]]


def test_obj_round_trip(ico):
    data = save_mesh(ico, "obj")
    again = load_mesh(data, "obj")
    assert again.n_vertices == ico.n_vertices
    assert np.array_equal(again.faces, ico.faces)
    assert np.abs(again.positions - ico.positions).max() < 1e-6
    assert save_mesh(again, "obj") == data


def test_ply_round_trip_with_error_attribute(sphere2):
    error = np.linspace(0, 1, sphere2.n_vertices)
    mesh = Mesh(sphere2.positions, sphere2.faces, {"error": error})
    data = save_mesh(mesh, "ply")
    again = load_mesh(data, "ply")
    assert "error" in again.attributes
    assert np.abs(again.positions - mesh.positions).max() < 1e-6
    assert np.abs(again.attributes["error"] - mesh.attributes["error"]).max() < 1e-6
    assert np.array_equal(again.faces, mesh.faces)


def test_ply_deterministic(sphere2):
    assert save_mesh(sphere2, "ply") == save_mesh(sphere2, "ply")


def test_ply_float32_exact_round_trip(ico):
    # positions pass through float32 on disk; reload and re-save must be stable
    once = save_mesh(ico, "ply")
    again = save_mesh(load_mesh(once, "ply"), "ply")
    assert once == again


def test_ply_rejects_garbage():
    with pytest.raises(MeshFormatError):
        load_mesh(b"not a ply at all", "ply")


def test_ply_rejects_big_endian():
    data = b"ply\nformat binary_big_endian 1.0\nelement vertex 0\nend_header\n"
    with pytest.raises(MeshFormatError, match="binary_big_endian"):
        load_mesh(data, "ply")


def test_ply_non_triangle_face_is_named(ico):
    data = bytearray(save_mesh(ico, "ply"))
    faces_at = len(data) - ico.n_faces * 13  # uchar count + three int32 indices per face
    data[faces_at + 2 * 13] = 4
    with pytest.raises(MeshFormatError, match="face 2 has 4 vertices"):
        load_mesh(bytes(data) + bytes(4), "ply")


def test_ply_rejects_negative_element_count():
    data = b"ply\nformat binary_little_endian 1.0\nelement vertex -3\nend_header\n"
    with pytest.raises(MeshFormatError, match="bad element line"):
        load_mesh(data, "ply")


def test_ply_bare_format_line_is_format_error():
    data = b"ply\nformat\nelement vertex 0\nend_header\n"
    with pytest.raises(MeshFormatError, match="line 2: unsupported PLY format"):
        load_mesh(data, "ply")


def test_ply_duplicate_vertex_property_is_format_error():
    data = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float x\nproperty float z\n"
        b"end_header\n" + bytes(16)
    )
    with pytest.raises(MeshFormatError, match="line 6: duplicate vertex property 'x'"):
        load_mesh(data, "ply")


@pytest.mark.parametrize("element,line", [("vertex", 7), ("face", 9)])
def test_ply_duplicate_element_is_format_error(element, line):
    # a repeated element block used to replace the first: the icosahedron with a second
    # 12-vertex block of zeros loaded as 12 vertices at the origin
    data = save_mesh(icosahedron(), "ply")
    end = data.index(b"end_header\n")
    header, body = data[:end], data[end:]
    vertex_block = b"element vertex 12\nproperty float x\nproperty float y\nproperty float z\n"
    face_block = b"element face 20\nproperty list uchar int vertex_indices\n"
    assert header.count(vertex_block) == header.count(face_block) == 1
    if element == "vertex":
        data = header.replace(vertex_block, 2 * vertex_block) + body.replace(
            b"end_header\n", b"end_header\n" + bytes(12 * 12), 1)
    else:
        data = header + face_block + body + body[len(b"end_header\n") + 12 * 12:]
    with pytest.raises(MeshFormatError, match=f"line {line}: duplicate element '{element}'"):
        load_mesh(data, "ply")


@pytest.mark.parametrize("prop", [b"property", b"property list uchar int"])
def test_ply_malformed_face_property_is_format_error(prop):
    data = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"element face 0\n" + prop + b"\nend_header\n"
    )
    with pytest.raises(MeshFormatError, match="single list property"):
        load_mesh(data, "ply")


@pytest.mark.parametrize("other", ["same", "attribute", "permuted", "extra_vertex"])
def test_load_against_like(tmp_path, other):
    save_mesh_path(icosphere(1), tmp_path / "first.ply")
    like = load_mesh_path(tmp_path / "first.ply")
    positions, faces, attributes = like.positions * 1.5, like.faces, {}
    if other == "attribute":  # another header, the same faces
        attributes = {"error": np.arange(like.n_vertices, dtype=float)}
    elif other == "permuted":
        faces = faces[::-1]
    elif other == "extra_vertex":  # the same face records over one more vertex
        positions = np.vstack([positions, [[0.0, 0.0, 0.0]]])
    save_mesh_path(Mesh(positions, faces, attributes), tmp_path / "other.ply")
    got = load_mesh_path(tmp_path / "other.ply", like=like)
    alone = load_mesh_path(tmp_path / "other.ply")
    assert (got.faces is like.faces) == (other != "permuted")
    assert np.array_equal(got.positions, alone.positions)
    assert np.array_equal(got.faces, alone.faces)
    assert got.attributes.keys() == alone.attributes.keys()
    for name, values in alone.attributes.items():
        assert np.array_equal(got.attributes[name], values)


def test_files_loaded_against_one_like_build_its_face_records_once(tmp_path, monkeypatch):
    like = icosphere(1)
    for k in range(3):
        save_mesh_path(Mesh(like.positions * (k + 2), like.faces), tmp_path / f"{k}.ply")
    built = []
    real = meshio._face_records
    monkeypatch.setattr(meshio, "_face_records",
                        lambda faces, dtype: built.append(dtype) or real(faces, dtype))
    for k in range(3):
        assert load_mesh_path(tmp_path / f"{k}.ply", like=like).faces is like.faces
    assert len(built) == 1
    assert load_mesh_path(tmp_path / "0.ply", like=icosphere(1)).faces is not like.faces
    assert len(built) == 2  # another like builds its own


def test_load_against_like_checks_its_faces_on_fewer_vertices(tmp_path):
    like = icosphere(1)
    data = save_mesh(like, "ply")
    start = data.index(b"end_header\n") + len(b"end_header\n")
    n = like.n_vertices
    header = data[:start].replace(b"element vertex %d" % n, b"element vertex %d" % (n - 1))
    path = tmp_path / "short.ply"
    path.write_bytes(header + data[start + 12:])  # vertex 0's three float32s dropped
    with pytest.raises(MeshError, match="face index out of range"):
        load_mesh_path(path, like=like)


def test_load_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"ply\nformat binary_big_endian 1.0\nelement vertex 0\nend_header\n")
    with pytest.raises(MeshFormatError, match=f"^{re.escape(str(path))}: line 2: unsupported") as exc:
        load_mesh_path(path)
    assert exc.value.line == 2


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@seed(6162)
@settings(max_examples=100, deadline=None)
@given(flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 255)), min_size=1, max_size=3))
def test_fuzzed_file_loaded_against_like_fails_as_alone(saved_icosphere, fuzz_dir, flips):
    like = load_mesh(saved_icosphere["ply"], "ply")
    raw = bytearray(saved_icosphere["ply"])
    for where, value in flips:
        raw[min(int(where * len(raw)), len(raw) - 1)] = value
    path = fuzz_dir / "fuzzed.ply"
    path.write_bytes(bytes(raw))
    try:
        alone = load_mesh_path(path)
    except WoundfillError as exc:
        with pytest.raises(WoundfillError) as again:
            load_mesh_path(path, like=like)
        assert type(again.value) is type(exc) and str(again.value) == str(exc)
    else:
        got = load_mesh_path(path, like=like)
        assert np.array_equal(got.positions, alone.positions)
        assert np.array_equal(got.faces, alone.faces)


def test_stl_single_triangle_is_134_bytes():
    tri = Mesh(np.eye(3), [[0, 1, 2]])
    data = save_mesh(tri, "stl")
    assert len(data) == 80 + 4 + 50
    assert int.from_bytes(data[80:84], "little") == 1


def test_stl_deterministic(ico):
    assert save_mesh(ico, "stl") == save_mesh(ico, "stl")


def test_stl_rejects_attributes(ico):
    mesh = Mesh(ico.positions, ico.faces, {"error": np.zeros(ico.n_vertices)})
    with pytest.raises(MeshError, match="STL carries no attributes"):
        save_mesh(mesh, "stl")


@pytest.mark.parametrize("fmt, channel, what", [
    ("ply", None, "vertex positions"), ("ply", "error", "vertex positions or channels"),
    ("stl", None, "face corners"),
], ids=["ply-position", "ply-channel", "stl-position"])
def test_value_beyond_float32_is_refused_without_a_file(tmp_path, ico, fmt, channel, what):
    positions, attributes = ico.positions.copy(), {}
    if channel:
        attributes[channel] = np.zeros(ico.n_vertices)
        attributes[channel][5] = 1e39
    else:
        positions[5] *= 1e39
    path = tmp_path / f"big.{fmt}"
    with pytest.raises(NumericalError, match=re.escape(f"{path}: {what}") + ".* float32"):
        save_mesh_path(Mesh(positions, ico.faces, attributes), path)
    assert not path.exists()


def test_stl_vertex_payload(ico):
    data = save_mesh(ico, "stl")
    rec = np.frombuffer(
        data[84:], dtype=np.dtype([("n", "<f4", (3,)), ("v", "<f4", (3, 3)), ("a", "<u2")])
    )
    assert len(rec) == ico.n_faces
    assert np.allclose(rec["v"], ico.positions[ico.faces].astype(np.float32))
    # normals are unit length for a non-degenerate mesh
    assert np.allclose(np.linalg.norm(rec["n"], axis=1), 1.0, atol=1e-6)


def test_stl_bytes_equal_the_masked_normal_formula(ico):
    # zero-area faces: two corners at one point, three collinear corners, and edges of
    # 1e-85 whose cross product (-1e-170) is non-zero but whose squared length underflows
    extra = np.array([ico.positions[0], [2.0, 0.0, 0.0], [4.0, 0.0, 0.0], [6.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0], [0.0, 1e-85, 0.0], [1e-85, 0.0, 0.0]])
    n = ico.n_vertices
    faces = [[0, n, 1], [n + 1, n + 2, n + 3], [n + 4, n + 5, n + 6]]
    mesh = Mesh(np.vstack([ico.positions, extra]), np.vstack([ico.faces, faces]))
    data = save_mesh(mesh, "stl")
    assert data[80:] == reference_stl_body(mesh)
    normals = np.frombuffer(data[84:], dtype=[("n", "<f4", (3,)), ("rest", "V38")])["n"]
    assert not normals[-3:].any() and not np.signbit(normals[-3:]).any()


def test_unknown_format_rejected(ico):
    with pytest.raises(MeshFormatError, match="unsupported"):
        save_mesh(ico, "gltf")
    with pytest.raises(MeshFormatError, match="unsupported"):
        load_mesh(b"", "stl")


@pytest.fixture(scope="module")
def saved_icosphere():
    return {fmt: save_mesh(icosphere(1), fmt) for fmt in ("ply", "obj")}


@pytest.mark.parametrize("fmt", ["ply", "obj"])
@seed(6161)
@settings(max_examples=200, deadline=None)
@given(
    cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
    flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 255)), max_size=3),
    in_header=st.booleans(),
)
def test_fuzzed_mesh_raises_only_woundfill_errors(saved_icosphere, fmt, cut, flips, in_header):
    raw = bytearray(saved_icosphere[fmt])
    # a PLY's header is a small share of it, so half the examples flip only there
    span = raw.index(b"end_header\n") + 11 if in_header and fmt == "ply" else len(raw)
    for where, value in flips:
        raw[min(int(where * span), len(raw) - 1)] = value
    if cut is not None:
        raw = raw[:int(cut * len(raw))]
    try:
        load_mesh(bytes(raw), fmt)
    except WoundfillError:
        pass
