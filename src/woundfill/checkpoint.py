"""Single-file checkpoints: magic, scalar JSON header, float64 then int64 blocks.

Format 4 lays a file out as: MAGIC; the header length as <Q; the JSON
header; the parameter blocks as <f8, in Autoencoder.parameters() order,
which is the model's parameter vector written in one piece;
the hierarchy's index blocks as <i8: each down topology's indptr and
indices, conv_down before pool_down. The header holds scalars only: the
architecture, `extra`, the block index and the hierarchy's faces_sha256
(the digest of the faces it was built on, which train.evaluate checks
against a dataset) and each down topology's n_in, n_out, edge_count and
basis_count, from which every level size and index block length follows.
Writes go to a temp file in the same directory followed by an atomic
rename; a failed write removes the temp file.

Loading refuses every format version but 4, then reads the header as the
_Header dataclass (errors.from_json), so a damaged file, one with a key
the reader does not know, or an architecture the writer would refuse,
raises DataError naming it. The byte count after
the header must equal what the header declares before any array is made;
the index blocks then build the hierarchy, whose own checks (ascending
rows, coverage, topologies joined level to level) become DataErrors, and
the block index must equal exactly what model.parameter_shapes gives for
it. The parameter blocks are read with one readinto into the vector the
model then adopts, drawing nothing; a NaN or an infinity anywhere in it is
refused, naming its block.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, MeshError, as_json, from_json
from .hierarchy import ConvTopology, MeshHierarchy
from .model import Architecture, Autoencoder, parameter_shapes

__all__ = ["load_checkpoint", "save_checkpoint"]

MAGIC = b"WNDFILL1"
FORMAT_VERSION = 4


@dataclass(frozen=True)
class _BlockEntry:
    name: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class _TopologyEntry:
    n_in: int
    n_out: int
    edge_count: int
    basis_count: int


@dataclass(frozen=True)
class _HierarchyEntry:
    faces_sha256: str
    conv_down: tuple[_TopologyEntry, ...]
    pool_down: tuple[_TopologyEntry, ...]

    def index_lengths(self) -> list[int]:
        """Element count of every index block, in file order."""
        return [n for t in self.conv_down + self.pool_down for n in (t.n_out + 1, t.edge_count)]


@dataclass(frozen=True)
class _Header:
    format_version: int
    architecture: Architecture
    hierarchy: _HierarchyEntry
    blocks: tuple[_BlockEntry, ...]  # in Autoencoder.parameters() order
    extra: dict


def save_checkpoint(path, model: Autoencoder, extra: dict | None = None) -> None:
    h = model.hierarchy
    topologies = [tuple(_TopologyEntry(t.n_in, t.n_out, t.edge_count, t.basis_count) for t in ts)
                  for ts in (h.conv_down, h.pool_down)]
    header = _Header(FORMAT_VERSION, model.architecture,
                     _HierarchyEntry(h.faces_sha256, *topologies),
                     tuple(_BlockEntry(k, v) for k, v in model.shapes.items()), extra or {})
    header_bytes = json.dumps(as_json(header), sort_keys=True).encode("utf-8")
    index_blocks = [a for t in h.conv_down + h.pool_down for a in (t.indptr, t.indices)]
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(np.ascontiguousarray(model.vector, dtype="<f8"))
            for a in index_blocks:
                fh.write(np.ascontiguousarray(a, dtype="<i8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_into(fh, arr: np.ndarray, path) -> np.ndarray:
    if fh.readinto(arr) != arr.nbytes:  # the size was checked: the file shrank meanwhile
        raise DataError(f"{path}: checkpoint blocks run past the end of the file")
    return arr


def load_checkpoint(path) -> tuple[Autoencoder, dict]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + 8)
        if not head.startswith(MAGIC):
            raise DataError(f"{path}: not a woundfill checkpoint (bad magic)")
        start = len(MAGIC) + 8
        if len(head) < start:
            raise DataError(f"{path}: checkpoint truncated inside the header length")
        (header_len,) = struct.unpack_from("<Q", head, len(MAGIC))
        if header_len > size - start:
            raise DataError(f"{path}: header length {header_len} runs past the end of the "
                            f"file ({size} bytes)")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: checkpoint header is not UTF-8 JSON ({exc})") from None
        if not isinstance(header, dict):
            raise DataError(f"{path}: checkpoint header is not a JSON object")
        if (version := header.get("format_version")) != FORMAT_VERSION:
            raise DataError(f"{path}: checkpoint format version {version!r} is not supported; "
                            f"this build reads version {FORMAT_VERSION} only")
        header = from_json(_Header, header, path, "checkpoint header")
        architecture, h = header.architecture, header.hierarchy
        if len(architecture.widths) != len(h.conv_down) + 1:
            raise DataError(f"{path}: architecture widths do not match the hierarchy levels")
        lengths = h.index_lengths()
        if min([*lengths, *(d for b in header.blocks for d in b.shape)], default=0) < 0:
            raise DataError(f"{path}: checkpoint header declares a negative size")
        counts = [math.prod(b.shape) for b in header.blocks]
        body = 8 * (sum(counts) + sum(lengths))
        if size - start - header_len < body:
            raise DataError(f"{path}: checkpoint blocks run past the end of the file")
        if size - start - header_len > body:
            raise DataError(f"{path}: trailing bytes after the checkpoint blocks")
        vector = _read_into(fh, np.empty(sum(counts), dtype="<f8"), path)
        ints = _read_into(fh, np.empty(sum(lengths), dtype="<i8"), path)
    arrays = iter(np.split(ints, np.cumsum(lengths)[:-1]))
    try:
        conv_down, pool_down = (
            tuple(ConvTopology(t.n_in, t.n_out, next(arrays), next(arrays), t.basis_count)
                  for t in ts)
            for ts in (h.conv_down, h.pool_down))
        hierarchy = MeshHierarchy(conv_down, pool_down, h.faces_sha256)
    except MeshError as exc:
        raise DataError(f"{path}: invalid checkpoint: {exc}") from exc
    shapes = parameter_shapes(hierarchy, architecture)
    if [(b.name, b.shape) for b in header.blocks] != list(shapes.items()):
        raise DataError(f"{path}: parameter blocks do not match the architecture")
    finite = np.isfinite(vector)
    if not finite.all():
        block = int(np.searchsorted(np.cumsum(counts), np.argmin(finite), side="right"))
        raise DataError(f"{path}: parameter block {header.blocks[block].name} holds non-finite "
                        "values")
    model = Autoencoder(hierarchy, architecture, vector.astype(np.float64, copy=False))
    return model, header.extra
