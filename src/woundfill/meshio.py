"""Mesh file formats: OBJ and PLY in, OBJ/PLY/binary STL out.

Output is byte-deterministic for a given mesh. PLY is binary little-endian
with float32 positions; attribute channels are stored as float32 scalars.
STL is the 80-byte-header binary layout and carries geometry only. A value
that float32 cannot hold is a NumericalError, and save_mesh_path serializes
before it opens the file, so a refused mesh leaves no file behind.
"""

from __future__ import annotations

import functools
import struct
import warnings

import numpy as np

from .errors import MeshError, MeshFormatError, NumericalError
from .mesh import Mesh, _cross, _norm

__all__ = ["load_mesh", "save_mesh", "load_mesh_path", "save_mesh_path"]

_FORMATS_LOAD = ("obj", "ply")
_FORMATS_SAVE = ("obj", "ply", "stl")

_STL_HEADER = b"binary STL written by woundfill".ljust(80, b"\x00")


def load_mesh(data: bytes, fmt: str) -> Mesh:
    """Parse mesh bytes in the declared format ("obj" or "ply")."""
    fmt = fmt.lower().lstrip(".")
    if fmt == "obj":
        return _load_obj(data)
    if fmt == "ply":
        return _load_ply(data)
    raise MeshFormatError(f"unsupported load format {fmt!r}; expected one of {_FORMATS_LOAD}")


def save_mesh(mesh: Mesh, fmt: str) -> bytes:
    """Serialize a mesh to bytes ("obj", "ply" or "stl")."""
    fmt = fmt.lower().lstrip(".")
    if fmt == "obj":
        return _save_obj(mesh)
    if fmt == "ply":
        return _save_ply(mesh)
    if fmt == "stl":
        return _save_stl(mesh)
    raise MeshFormatError(f"unsupported save format {fmt!r}; expected one of {_FORMATS_SAVE}")


def load_mesh_path(path, like: Mesh | None = None) -> Mesh:
    """Read the mesh file at path in the format its extension names; any MeshError
    raised on its content is prefixed with the path.

    like: a mesh this file is expected to share its faces with, such as the
    first mesh of a dataset split. When a PLY file's vertex count and face
    records equal like's, the result holds like's frozen faces array (the same
    object), whose indices were checked when like was built; every other check
    still runs on the file. Other files, and OBJ files, are parsed as without it.
    """
    path = str(path)
    fmt = path.rsplit(".", 1)[-1].lower()
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _load_ply(data, like) if fmt == "ply" else load_mesh(data, fmt)
    except MeshError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def save_mesh_path(mesh: Mesh, path) -> None:
    """Write mesh to path in the format its extension names; a NumericalError raised
    on its content is prefixed with the path."""
    data = _encoded_for(mesh, path)
    with open(path, "wb") as fh:
        fh.write(data)


def _encoded_for(mesh: Mesh, path) -> bytes:
    """The bytes save_mesh_path writes to path, which it does not touch."""
    path = str(path)
    try:
        return save_mesh(mesh, path.rsplit(".", 1)[-1])
    except NumericalError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _check_float32(values: np.ndarray, what: str) -> None:
    """Refuse cast float32 values that are not finite: the mesh's float64 ones are."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} do not fit the file's float32 values")


# --- OBJ ---------------------------------------------------------------


def _load_obj(data: bytes) -> Mesh:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"OBJ is not valid UTF-8: {exc}") from None
    positions = []
    faces = []
    ignored: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise MeshFormatError("vertex line needs 3 coordinates", line=lineno)
            try:
                positions.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except ValueError as exc:
                raise MeshFormatError(f"bad vertex coordinate: {exc}", line=lineno) from None
        elif tag == "f":
            if len(parts) != 4:
                raise MeshFormatError(
                    f"face line needs exactly 3 vertices, got {len(parts) - 1}", line=lineno
                )
            idx = []
            for token in parts[1:]:
                head = token.split("/", 1)[0]
                try:
                    i = int(head)
                except ValueError:
                    raise MeshFormatError(f"bad face index {token!r}", line=lineno) from None
                if i < 1:
                    raise MeshFormatError(f"face index {i} must be 1-based positive", line=lineno)
                if i > len(positions):
                    raise MeshFormatError(
                        f"face index {i} out of range: only {len(positions)} vertices so far",
                        line=lineno,
                    )
                idx.append(i - 1)
            faces.append(idx)
        else:
            ignored.add(tag)
    if ignored:
        warnings.warn(f"OBJ: ignored directives {sorted(ignored)}", stacklevel=3)
    if not positions:
        raise MeshFormatError("OBJ contains no vertices")
    return Mesh._adopt(np.array(positions), np.array(faces, dtype=np.int64).reshape(-1, 3))


def _save_obj(mesh: Mesh) -> bytes:
    if mesh.attributes:
        warnings.warn("OBJ carries no attribute channels; dropping "
                      f"{sorted(mesh.attributes)}", stacklevel=3)
    lines = []
    for x, y, z in mesh.positions:
        lines.append(f"v {x:.9g} {y:.9g} {z:.9g}")
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# --- PLY ---------------------------------------------------------------

_PLY_SCALARS = {
    "float": ("<f4", np.float32),
    "float32": ("<f4", np.float32),
    "double": ("<f8", np.float64),
    "float64": ("<f8", np.float64),
}
_PLY_LIST_COUNTS = {"uchar": "<u1", "uint8": "<u1"}
_PLY_LIST_ITEMS = {"int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4"}


def _load_ply(data: bytes, like: Mesh | None = None) -> Mesh:
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        raise MeshFormatError("not a PLY file (missing 'ply'/'end_header')")
    layout = _ply_layout(data[:end])
    start = end + len(b"end_header\n")
    needed = sum(count * dtype.itemsize for _, count, dtype in layout)
    if len(data) - start < needed:
        raise MeshFormatError(
            f"PLY body is truncated: header declares {needed} bytes, file has {len(data) - start}"
        )

    positions = None
    attributes: dict[str, np.ndarray] = {}
    faces = np.zeros((0, 3), dtype=np.int64)
    offset = start
    for name, count, dtype in layout:
        size = dtype.itemsize * count
        if (name == "face" and like is not None and count == like.n_faces
                and data[offset:offset + size] == _like_records(like, dtype)):
            faces = like.faces  # the same records, so every count is 3
        else:
            raw = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
            if name == "vertex":
                positions = np.empty((count, 3))
                for j, axis in enumerate(("x", "y", "z")):
                    positions[:, j] = raw[axis]
                for n in dtype.names:
                    if n not in ("x", "y", "z"):
                        attributes[n] = raw[n].astype(np.float64)
            else:
                bad = np.flatnonzero(raw["n"] != 3)
                if bad.size:
                    k = int(raw["n"][bad[0]])
                    raise MeshFormatError(f"face {bad[0]} has {k} vertices; only triangles supported")
                faces = raw["idx"]
        offset += size
    if positions is None:
        raise MeshFormatError("PLY has no vertex element")
    if like is not None and faces is like.faces and len(positions) == like.n_vertices:
        return Mesh._on_faces_of(like, positions, attributes)
    return Mesh._adopt(positions, faces, attributes)


def _like_records(like: Mesh, dtype: np.dtype) -> bytes:
    """_face_records of like's (frozen) faces, built once per like and dtype and kept on
    like: every file of a split is compared with the same records."""
    memo = vars(like).setdefault("_ply_face_records", {})
    if dtype not in memo:
        memo[dtype] = _face_records(like.faces, dtype)
    return memo[dtype]


def _face_records(faces: np.ndarray, dtype: np.dtype) -> bytes:
    """Triangle faces as PLY face records of `dtype`: a count of 3, then the three indices."""
    records = np.empty(len(faces), dtype=dtype)
    records["n"] = 3
    records["idx"] = faces
    return records.tobytes()


@functools.lru_cache(maxsize=16)
def _ply_layout(header: bytes) -> tuple[tuple[str, int, np.dtype], ...]:
    """(element name, count, record dtype) per element of a PLY header (the bytes
    before end_header), so the body length can be checked before reading.

    Memoised: the files of a dataset split repeat one header.
    """
    lines = header.decode("ascii", errors="replace").splitlines()
    elements: list[tuple[str, int, list]] = []  # (name, count, [(lineno, property tokens)])
    fmt_seen = False
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            fmt = parts[1] if len(parts) > 1 else ""
            if fmt != "binary_little_endian":
                raise MeshFormatError(f"unsupported PLY format {fmt!r}", line=lineno)
            fmt_seen = True
        elif parts[0] == "element":
            if len(parts) != 3 or not parts[2].isdigit():
                raise MeshFormatError(f"bad element line {line!r}", line=lineno)
            if any(name == parts[1] for name, _, _ in elements):
                raise MeshFormatError(f"duplicate element {parts[1]!r}", line=lineno)
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise MeshFormatError("property before any element", line=lineno)
            elements[-1][2].append((lineno, parts[1:]))
        else:
            raise MeshFormatError(f"unsupported header line {line!r}", line=lineno)
    if not fmt_seen:
        raise MeshFormatError("PLY header missing format line")

    layout = []
    for name, count, props in elements:
        if name == "vertex":
            fields: dict[str, str] = {}
            for lineno, p in props:
                if len(p) != 2 or p[0] not in _PLY_SCALARS:
                    raise MeshFormatError(
                        f"unsupported vertex property {' '.join(p)!r}", line=lineno
                    )
                if p[1] in fields:
                    raise MeshFormatError(f"duplicate vertex property {p[1]!r}", line=lineno)
                fields[p[1]] = _PLY_SCALARS[p[0]][0]
            dtype = np.dtype(list(fields.items()))
            if not {"x", "y", "z"} <= fields.keys():
                raise MeshFormatError("vertex element must provide x, y, z")
        elif name == "face":
            if len(props) != 1 or len(props[0][1]) != 4 or props[0][1][0] != "list":
                raise MeshFormatError("face element must be a single list property")
            _, cnt_t, item_t, _pname = props[0][1]
            if cnt_t not in _PLY_LIST_COUNTS or item_t not in _PLY_LIST_ITEMS:
                raise MeshFormatError(f"unsupported face list types {cnt_t}/{item_t}")
            # only triangles are supported, so every record is n = 3 plus three indices
            item = _PLY_LIST_ITEMS[item_t]
            dtype = np.dtype([("n", _PLY_LIST_COUNTS[cnt_t]), ("idx", item, (3,))])
        else:
            raise MeshFormatError(f"unsupported PLY element {name!r}")
        layout.append((name, count, dtype))
    return tuple(layout)


def _save_ply(mesh: Mesh) -> bytes:
    attr_names = sorted(mesh.attributes)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {mesh.n_vertices}"]
    header += ["property float x", "property float y", "property float z"]
    header += [f"property float {name}" for name in attr_names]
    header += [
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    out = bytearray(("\n".join(header) + "\n").encode("ascii"))

    vert = np.empty((mesh.n_vertices, 3 + len(attr_names)), dtype="<f4")
    with np.errstate(over="ignore"):
        vert[:, :3] = mesh.positions
        for j, name in enumerate(attr_names):
            vert[:, 3 + j] = mesh.attributes[name]
    _check_float32(vert, "vertex positions or channels")
    out += vert.tobytes()

    out += _face_records(mesh.faces, np.dtype([("n", "<u1"), ("idx", "<i4", (3,))]))
    return bytes(out)


# --- STL ---------------------------------------------------------------


def _save_stl(mesh: Mesh) -> bytes:
    if mesh.attributes:
        raise MeshError(
            f"STL carries no attributes; mesh has {sorted(mesh.attributes)}"
        )
    p = mesh.positions
    f = mesh.faces
    corners = p[f]
    record = np.zeros(mesh.n_faces, dtype=np.dtype([("n", "<f4", (3,)),
                                                    ("v", "<f4", (3, 3)),
                                                    ("attr", "<u2")]))
    # positions near the float64 limit overflow the normals, and the cast above float32's
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = corners.swapaxes(0, 1)
        normals = _cross(b - a, c - a)
        lens = _norm(normals)[:, None]
        unit = np.zeros_like(normals)  # stays zero where a face has no area
        np.divide(normals, lens, out=unit, where=lens > 0)
        record["n"] = unit
        record["v"] = corners
    _check_float32(record["v"], "face corners")
    _check_float32(record["n"], "face normals")
    return _STL_HEADER + struct.pack("<I", mesh.n_faces) + record.tobytes()
