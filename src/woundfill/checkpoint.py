"""Single-file checkpoints: magic, JSON header, raw little-endian float64 blocks.

The header (format 2) carries the architecture, the hierarchy's stored fields
(levels, parents, the down topologies, and faces_sha256: the digest of the
faces it was built on, which train.evaluate checks against a dataset; the
hierarchy derives the up topologies by transposition and checks that its
topologies join its levels) and the ordered block index, so inference never
has to rebuild the hierarchy from a mesh. Writes go to a temp file in the
same directory followed by an atomic rename.
Loading refuses every format version but 2, then reads the header as the
_Header dataclass (errors.from_json), so a damaged file, or one with a key
the reader does not know, raises DataError naming it. The block index and
the byte count after the header must then equal exactly what
model.parameter_shapes gives for that architecture and hierarchy, before any
block is read. A block holding a NaN or an infinity is refused by name; the
model is built from the file's blocks, drawing nothing.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, MeshError, as_json, from_json
from .hierarchy import MeshHierarchy
from .model import Architecture, Autoencoder, parameter_shapes

__all__ = ["load_checkpoint", "save_checkpoint"]

MAGIC = b"WNDFILL1"
FORMAT_VERSION = 2


@dataclass(frozen=True)
class _BlockEntry:
    name: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class _Header:
    format_version: int
    architecture: Architecture
    hierarchy: MeshHierarchy
    blocks: tuple[_BlockEntry, ...]  # in Autoencoder.parameters() order
    extra: dict


def save_checkpoint(path, model: Autoencoder, extra: dict | None = None) -> None:
    params = model.parameters()
    header = _Header(FORMAT_VERSION, model.architecture, model.hierarchy,
                     tuple(_BlockEntry(k, v.shape) for k, v in params.items()), extra or {})
    header_bytes = json.dumps(as_json(header), sort_keys=True).encode("utf-8")
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
    start = len(MAGIC) + 8
    if len(data) < start:
        raise DataError(f"{path}: checkpoint truncated inside the header length")
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    if header_len > len(data) - start:
        raise DataError(
            f"{path}: header length {header_len} runs past the end of the file "
            f"({len(data)} bytes)"
        )
    try:
        header = json.loads(data[start:start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: checkpoint header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    if (version := header.get("format_version")) != FORMAT_VERSION:
        raise DataError(f"{path}: checkpoint format version {version!r} is not supported; "
                        f"this build reads version {FORMAT_VERSION} only")
    try:
        header = from_json(_Header, header, path, "checkpoint header")
    except (ConfigError, MeshError) as exc:
        raise DataError(f"{path}: invalid checkpoint: {exc}") from exc
    architecture, hierarchy = header.architecture, header.hierarchy
    if len(architecture.widths) != hierarchy.n_levels:
        raise DataError(f"{path}: architecture widths do not match the hierarchy levels")
    shapes = parameter_shapes(hierarchy, architecture)
    if [(b.name, b.shape) for b in header.blocks] != list(shapes.items()):
        raise DataError(f"{path}: parameter blocks do not match the architecture")
    offset = start + header_len
    body = 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(data) - offset < body:
        raise DataError(f"{path}: parameter blocks run past the end of the file")
    if len(data) - offset > body:
        raise DataError(f"{path}: trailing bytes after parameter blocks")
    params = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: parameter block {name} holds non-finite values")
        params[name] = arr.astype(np.float64)
        offset += count * 8
    model = Autoencoder.from_parameters(hierarchy, architecture, params)
    return model, header.extra
