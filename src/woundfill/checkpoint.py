"""Single-file checkpoints: magic, JSON header, raw little-endian float64 blocks.

The header carries the architecture, the full hierarchy (levels, parents and
down topologies; up topologies are rebuilt by transposition) and the ordered
block index, so inference never has to rebuild the hierarchy from a mesh.
Writes go to a temp file in the same directory followed by an atomic rename.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .hierarchy import ConvTopology, MeshHierarchy
from .model import Architecture, Autoencoder

__all__ = ["load_checkpoint", "save_checkpoint"]

MAGIC = b"WNDFILL1"


def _topology_to_dict(t: ConvTopology) -> dict:
    return {
        "n_in": t.n_in,
        "n_out": t.n_out,
        "indptr": t.indptr.tolist(),
        "indices": t.indices.tolist(),
        "basis_count": t.basis_count,
    }


def _topology_from_dict(d: dict) -> ConvTopology:
    return ConvTopology(
        n_in=int(d["n_in"]),
        n_out=int(d["n_out"]),
        indptr=np.array(d["indptr"], dtype=np.int64),
        indices=np.array(d["indices"], dtype=np.int64),
        basis_count=int(d["basis_count"]),
    )


def _hierarchy_to_dict(h: MeshHierarchy) -> dict:
    return {
        "levels": [lv.tolist() for lv in h.levels],
        "parents": [p.tolist() for p in h.parents],
        "conv_down": [_topology_to_dict(t) for t in h.conv_down],
        "pool_down": [_topology_to_dict(t) for t in h.pool_down],
    }


def _hierarchy_from_dict(d: dict) -> MeshHierarchy:
    conv_down = tuple(_topology_from_dict(t) for t in d["conv_down"])
    pool_down = tuple(_topology_from_dict(t) for t in d["pool_down"])
    return MeshHierarchy(
        levels=tuple(np.array(lv, dtype=np.int64) for lv in d["levels"]),
        parents=tuple(np.array(p, dtype=np.int64) for p in d["parents"]),
        conv_down=conv_down,
        pool_down=pool_down,
        conv_up=tuple(t.transposed for t in conv_down),
        pool_up=tuple(t.transposed for t in pool_down),
    )


def save_checkpoint(path, model: Autoencoder, extra: dict | None = None) -> None:
    params = model.parameters()
    header = {
        "format_version": 1,
        "architecture": model.architecture.to_dict(),
        "hierarchy": _hierarchy_to_dict(model.hierarchy),
        "blocks": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for v in params.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[Autoencoder, dict]:
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        raise DataError(f"{path}: not a woundfill checkpoint (bad magic)")
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(data[start:start + header_len].decode("utf-8"))
    if header.get("format_version") != 1:
        raise DataError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
    architecture = Architecture.from_dict(header["architecture"])
    hierarchy = _hierarchy_from_dict(header["hierarchy"])
    model = Autoencoder.init(hierarchy, architecture, seed=0)
    offset = start + header_len
    params = {}
    for block in header["blocks"]:
        shape = tuple(block["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape)
        params[block["name"]] = arr.astype(np.float64)
        offset += count * 8
    if offset != len(data):
        raise DataError(f"{path}: trailing bytes after parameter blocks")
    expected = set(model.parameters())
    if expected != set(params):
        raise DataError(f"{path}: parameter blocks do not match the architecture")
    model.set_parameters(params)
    return model, header.get("extra", {})
