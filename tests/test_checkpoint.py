import hashlib
import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import format_2_hierarchy
from woundfill import Architecture, Autoencoder, icosphere
from woundfill import model as model_mod
from woundfill.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from woundfill.errors import DataError, WoundfillError
from woundfill.hierarchy import ConvTopology, MeshHierarchy


@pytest.fixture
def model():
    return Autoencoder.build(icosphere(1), Architecture(ratios=(1.0, 0.3), widths=(3, 5)),
                             seed=3)


def test_round_trip_exact(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, extra={"epoch": 4})
    loaded, extra = load_checkpoint(path)
    assert extra == {"epoch": 4}
    assert loaded.architecture == model.architecture
    for k, v in model.parameters().items():
        assert np.array_equal(loaded.parameters()[k], v)
    x = icosphere(1).positions
    assert np.array_equal(loaded.forward(x), model.forward(x))


def test_hierarchy_survives_round_trip(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    for ta, tb in zip(model.hierarchy.conv_down + model.hierarchy.pool_down,
                      loaded.hierarchy.conv_down + loaded.hierarchy.pool_down):
        assert np.array_equal(ta.indptr, tb.indptr)
        assert np.array_equal(ta.indices, tb.indices)
        assert ta.basis_count == tb.basis_count


def test_write_is_deterministic(tmp_path, model):
    save_checkpoint(tmp_path / "a.ckpt", model)
    save_checkpoint(tmp_path / "b.ckpt", model)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_no_temp_file_left_behind(tmp_path, model):
    save_checkpoint(tmp_path / "m.ckpt", model)
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_failed_write_removes_the_temp_file(tmp_path, model, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, extra={"epoch": 1})
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, model, extra={"epoch": 2})
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    assert path.read_bytes() == before


def test_magic_checked(tmp_path):
    bad = tmp_path / "x.ckpt"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(bad)


def test_truncation_detected(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    data = path.read_bytes()
    path.write_bytes(data + b"\x00" * 8)
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(path)


def test_magic_is_stable(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    assert path.read_bytes().startswith(MAGIC)


def _saved(model, tmp_path):
    """(raw file, header, parameter bytes, index bytes) of a fresh checkpoint of model."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(raw[start:start + header_len])
    split = start + header_len + 8 * sum(math.prod(b["shape"]) for b in header["blocks"])
    return raw, header, raw[start + header_len:split], raw[split:]


def _with_header(header, body: bytes = b"") -> bytes:
    header_bytes = header if isinstance(header, bytes) else json.dumps(header).encode()
    return MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + body


def _index_blocks(header) -> dict[str, tuple[int, int]]:
    """(offset into the index bytes, element count) of every index block, in file order."""
    h = header["hierarchy"]
    counts = []
    for kind in ("conv_down", "pool_down"):
        for l, t in enumerate(h[kind]):
            counts += [(f"{kind}{l}.indptr", t["n_out"] + 1),
                       (f"{kind}{l}.indices", t["edge_count"])]
    blocks, offset = {}, 0
    for name, n in counts:
        blocks[name] = (offset, n)
        offset += 8 * n
    return blocks


def _read_index(header, index: bytes, name: str) -> np.ndarray:
    offset, n = _index_blocks(header)[name]
    return np.frombuffer(index, dtype="<i8", count=n, offset=offset).copy()


def _write_index(header, index: bytes, name: str, values) -> bytes:
    offset, _ = _index_blocks(header)[name]
    new = np.asarray(values, dtype="<i8").tobytes()
    return index[:offset] + new + index[offset + len(new):]


def _damage(kind, raw, header, params, index):
    h = header["hierarchy"]
    conv, pool = h["conv_down"][0], h["pool_down"][0]
    if kind == "short":
        return raw[:12]
    if kind == "header-past-end":
        return MAGIC + struct.pack("<Q", len(raw)) + raw[16:]
    if kind == "not-utf8":
        return _with_header(b"\xff\xfe{}", params + index)
    if kind == "not-json":
        return _with_header(b"{format_version: 1}", params + index)
    if kind == "json-list":
        return _with_header(b"[1, 2]", params + index)
    if kind == "no-architecture":
        del header["architecture"]
    elif kind == "string-ratio":
        header["architecture"]["ratios"] = ["x", "y"]
    elif kind == "bool-ratio":
        header["architecture"]["ratios"] = [1.0, True]
    elif kind == "rising-ratios":
        header["architecture"]["ratios"] = [0.5, 0.9]
    elif kind == "index-out-of-range":
        indices = _read_index(header, index, "conv_down0.indices")
        indices[3] = conv["n_in"]
        index = _write_index(header, index, "conv_down0.indices", indices)
    elif kind == "negative-index":
        indices = _read_index(header, index, "conv_down0.indices")
        indices[0] = -1
        index = _write_index(header, index, "conv_down0.indices", indices)
    elif kind == "descending-indptr":
        indptr = _read_index(header, index, "conv_down0.indptr")
        indptr[1], indptr[2] = indptr[2], indptr[1]
        index = _write_index(header, index, "conv_down0.indptr", indptr)
    elif kind == "short-index-block":
        # conv_down[0] loses its last index, and the header its count, while its
        # indptr still ends at the old count
        at, n = _index_blocks(header)["conv_down0.indices"]
        index = index[:at + 8 * (n - 1)] + index[at + 8 * n:]
        conv["edge_count"] -= 1
    elif kind == "huge-index":
        index = _write_index(header, index, "conv_down0.indices", [2**63 - 1])
    elif kind == "negative-n-out":
        conv["n_out"] = -1
    elif kind == "negative-edge-count":
        conv["edge_count"] = -1
    elif kind == "negative-block-dim":
        header["blocks"][0]["shape"][0] = -1
    elif kind == "huge-n-in":
        conv["n_in"] = 10**11
    elif kind == "huge-edge-count":
        conv["edge_count"] = 10**11
    elif kind == "huge-level-size":
        # level 1 as both topologies declare it
        conv["n_out"] = pool["n_out"] = 10**11
    elif kind == "extra-level":
        h["conv_down"].append(dict(conv, n_in=conv["n_out"], n_out=4))
        h["pool_down"].append(dict(pool, n_in=pool["n_out"], n_out=4))
    elif kind == "unjoined-levels":
        # conv_down[0] (the first index blocks) gains a one-neighbor output vertex, so its
        # level 1 is one vertex larger than pool_down[0]'s
        indptr = _read_index(header, index, "conv_down0.indptr")
        indices = _read_index(header, index, "conv_down0.indices")
        grown = np.concatenate([indptr, [indptr[-1] + 1], indices, [0]]).astype("<i8")
        index = grown.tobytes() + index[8 * (len(indptr) + len(indices)):]
        conv["n_out"] += 1
        conv["edge_count"] += 1
    elif kind == "huge-width":
        header["architecture"]["widths"][1] = 10**9
    elif kind == "huge-basis-count":
        conv["basis_count"] = 10**9
    elif kind == "truncated-block":
        index = index[:-12]
    return _with_header(header, params + index)


# what the error names, for the damage that only the index blocks or their counts show
INDEX_DAMAGE = {
    "index-out-of-range": "neighbor index out of range",
    "negative-index": "neighbor index out of range",
    "descending-indptr": "empty neighborhood",
    "short-index-block": "malformed CSR indptr",
    "huge-index": "neighbor index out of range",
    "negative-edge-count": "negative size",
    "negative-block-dim": "negative size",
    "huge-edge-count": "run past the end",
    "huge-level-size": "run past the end",
    "extra-level": "widths do not match the hierarchy levels",
    "unjoined-levels": "does not join levels",
    "truncated-block": "run past the end",
}


@pytest.mark.parametrize("kind", [
    "short", "header-past-end", "not-utf8", "not-json", "json-list", "no-architecture",
    "string-ratio", "bool-ratio", "rising-ratios", "index-out-of-range", "negative-index",
    "descending-indptr", "short-index-block", "huge-index", "negative-n-out",
    "negative-edge-count", "negative-block-dim", "huge-n-in", "huge-edge-count",
    "huge-level-size", "extra-level", "unjoined-levels", "huge-width", "huge-basis-count",
    "truncated-block",
])
def test_damaged_checkpoint_is_data_error(tmp_path, model, kind):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_damage(kind, *_saved(model, tmp_path)))
    tracemalloc.start()
    try:
        with pytest.raises(DataError) as exc:
            load_checkpoint(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(bad) in str(exc.value)
    assert INDEX_DAMAGE.get(kind, "") in str(exc.value)
    assert peak < 2**24  # nothing is sized by a header number before it is checked


@pytest.mark.parametrize("change", ["reversed", "repeated"])
def test_unordered_neighbors_in_a_checkpoint_are_data_error(tmp_path, model, change):
    raw, header, params, index = _saved(model, tmp_path)
    first, second = _read_index(header, index, "conv_down0.indptr")[:2]
    assert second - first >= 2
    indices = _read_index(header, index, "conv_down0.indices")
    row = indices[first:second].copy()
    indices[first:second] = row[::-1] if change == "reversed" else [row[0], *row[:-1]]
    index = _write_index(header, index, "conv_down0.indices", indices)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(header, params + index))
    with pytest.raises(DataError, match="not strictly ascending") as exc:
        load_checkpoint(bad)
    assert str(bad) in str(exc.value)


def test_block_shape_must_match_architecture(tmp_path, model):
    raw, header, params, index = _saved(model, tmp_path)
    header["hierarchy"]["conv_down"][0]["basis_count"] += 1
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(header, params + index))
    with pytest.raises(DataError, match="do not match the architecture"):
        load_checkpoint(bad)


@pytest.mark.parametrize("change", ["renamed", "reordered", "missing", "extra", "reshaped"])
def test_block_list_must_equal_the_architecture(tmp_path, model, change):
    raw, header, params, index = _saved(model, tmp_path)
    blocks = header["blocks"]
    if change == "renamed":
        blocks[0]["name"] = "enc9.conv.basis"
    elif change == "reordered":
        blocks[0], blocks[1] = blocks[1], blocks[0]
    elif change == "missing":
        params = params[:-8 * math.prod(blocks.pop()["shape"])]
    elif change == "extra":
        blocks.append({"name": "dec0.res.extra", "shape": [1]})
        params += bytes(8)
    else:  # same float count, another shape
        blocks[0]["shape"] = blocks[0]["shape"][::-1]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(header, params + index))
    with pytest.raises(DataError, match="do not match the architecture"):
        load_checkpoint(bad)


@pytest.mark.parametrize("where, key", [
    ("architecture", "activation"),  # as a header from before ELU was fixed carries it
    ("hierarchy", "extra_field"),
    ("topology", "memo"),
    ("header", "notes"),
    ("block", "dtype"),
])
def test_unknown_header_key_is_data_error(tmp_path, model, where, key):
    raw, header, params, index = _saved(model, tmp_path)
    owner = {"architecture": header["architecture"], "hierarchy": header["hierarchy"],
             "topology": header["hierarchy"]["conv_down"][0], "header": header,
             "block": header["blocks"][0]}[where]
    owner[key] = "relu"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(header, params + index))
    with pytest.raises(DataError, match=f"unknown key '{key}'") as exc:
        load_checkpoint(bad)
    assert str(bad) in str(exc.value)


def test_format_version_1_is_data_error(tmp_path, model):
    raw, header, params, index = _saved(model, tmp_path)
    assert header["format_version"] == 4
    header["format_version"] = 1
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(header, params + index))
    with pytest.raises(DataError, match="format version 1 is not supported") as exc:
        load_checkpoint(bad)
    assert str(bad) in str(exc.value)


def test_format_version_2_is_data_error(tmp_path, model):
    # the layout format 2 wrote: the hierarchy's index arrays as JSON lists, no index blocks
    raw, header, params, index = _saved(model, tmp_path)
    header.update(format_version=2, hierarchy=format_2_hierarchy(model.hierarchy))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(json.dumps(header, sort_keys=True).encode(), params))
    with pytest.raises(DataError, match="format version 2 is not supported") as exc:
        load_checkpoint(bad)
    assert str(bad) in str(exc.value)


def test_format_version_3_is_data_error(tmp_path, model):
    # the layout format 3 wrote: level sizes in the header, and the levels' and parents'
    # index blocks before the topologies' (placeholder level ids, as in format_2_hierarchy)
    raw, header, params, index = _saved(model, tmp_path)
    sizes = model.hierarchy.level_sizes()
    header["format_version"] = 3
    header["hierarchy"]["level_sizes"] = sizes
    blocks = [*(np.arange(n) for n in sizes), *(t.indices for t in model.hierarchy.pool_up)]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(header, params + np.concatenate(blocks).astype("<i8").tobytes()
                                 + index))
    with pytest.raises(DataError, match="format version 3 is not supported") as exc:
        load_checkpoint(bad)
    assert str(bad) in str(exc.value)


def test_header_records_the_faces_digest(tmp_path, model):
    header = _saved(model, tmp_path)[1]
    faces = icosphere(1).faces.astype("<i8").tobytes()
    assert header["hierarchy"]["faces_sha256"] == hashlib.sha256(faces).hexdigest()


def _block_offset(header, name):
    """Byte offset of block `name` in the parameter bytes after the header."""
    offset = 0
    for block in header["blocks"]:
        if block["name"] == name:
            return offset
        offset += 8 * math.prod(block["shape"])
    raise KeyError(name)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("block", ["enc0.conv.basis", "dec0.conv.bias", "dec0.res.rho"])
def test_non_finite_parameter_is_data_error(tmp_path, model, value, block):
    raw, header, params, index = _saved(model, tmp_path)
    at = _block_offset(header, block) + 8  # the block's second value
    params = params[:at] + struct.pack("<d", value) + params[at + 8:]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(header, params + index))
    with pytest.raises(DataError, match=f"block {block} holds non-finite") as exc:
        load_checkpoint(bad)
    assert str(bad) in str(exc.value)


@pytest.mark.parametrize("where", ["first", "last"])
def test_non_finite_value_at_a_block_edge_names_that_block(tmp_path, model, where):
    # the blocks are checked as one vector; the bad entry's offset picks the block
    raw, header, params, index = _saved(model, tmp_path)
    block = header["blocks"][1]
    at = _block_offset(header, block["name"])
    if where == "last":
        at += 8 * (math.prod(block["shape"]) - 1)
    params = params[:at] + struct.pack("<d", math.nan) + params[at + 8:]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(header, params + index))
    with pytest.raises(DataError, match=f"block {block['name']} holds non-finite"):
        load_checkpoint(bad)


def test_loaded_parameters_are_views_of_one_vector(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    assert loaded.vector.tobytes() == model.vector.tobytes()
    assert all(np.shares_memory(v, loaded.vector) for v in loaded.parameters().values())


def test_loading_draws_no_parameters(tmp_path, model, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)

    def refuse(*args):
        raise AssertionError("load_checkpoint drew initial parameters")

    monkeypatch.setattr(model_mod, "init_vc_conv", refuse)
    monkeypatch.setattr(model_mod, "init_vd", refuse)
    loaded, _ = load_checkpoint(path)
    assert list(loaded.parameters()) == list(model.parameters())
    for k, v in model.parameters().items():
        assert np.array_equal(loaded.parameters()[k], v)


# sha256 of the format-4 header below
HEADER_SHA256 = "98f9c6f7b0674667e39ea43c8644d434a4731c5665cece09c030ea59da0b94c4"
# its index blocks: conv_down[0] indptr and indices, then pool_down[0]'s
INDEX_BLOCKS = [0, 4, 8, 0, 1, 2, 3, 2, 3, 4, 5, 0, 3, 6, 0, 1, 2, 3, 4, 5]


def test_header_json_is_pinned(tmp_path):
    # a hand-built two-level hierarchy: literal values only, so the digest
    # holds on any libm or BLAS (the header carries no parameter values)
    conv = ConvTopology(6, 2, np.array([0, 4, 8]), np.array([0, 1, 2, 3, 2, 3, 4, 5]), 4)
    pool = ConvTopology(6, 2, np.array([0, 3, 6]), np.arange(6), 3)
    hierarchy = MeshHierarchy(conv_down=(conv,), pool_down=(pool,), faces_sha256="0" * 64)
    arch = Architecture(ratios=(1.0, 0.5), widths=(3, 4), m_clamp=(3, 9))
    model = Autoencoder.init(hierarchy, arch, seed=0)
    save_checkpoint(tmp_path / "m.ckpt", model, extra={"epoch": 3, "loss": 0.125})
    raw = (tmp_path / "m.ckpt").read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header = raw[len(MAGIC) + 8:len(MAGIC) + 8 + header_len]
    assert hashlib.sha256(header).hexdigest() == HEADER_SHA256
    floats = sum(v.size for v in model.parameters().values())
    assert raw[len(MAGIC) + 8 + header_len + 8 * floats:] == struct.pack(
        f"<{len(INDEX_BLOCKS)}q", *INDEX_BLOCKS)
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert loaded.architecture == arch


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    model = Autoencoder.build(icosphere(1), Architecture(ratios=(1.0, 0.3), widths=(3, 5)),
                              seed=3)
    save_checkpoint(path, model)
    return path


@seed(9091)
@settings(max_examples=200, deadline=None)
@given(
    cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
    flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 255)), max_size=3),
    region=st.sampled_from(["header", "index", "file"]),
)
def test_fuzzed_checkpoint_raises_only_woundfill_errors(small_checkpoint, cut, flips, region):
    raw = bytearray(small_checkpoint.read_bytes())
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header = json.loads(raw[16:16 + header_len])
    index_start = len(raw) - 8 * sum(n for _, n in _index_blocks(header).values())
    start, end = {"header": (0, 16 + header_len), "index": (index_start, len(raw)),
                  "file": (0, len(raw))}[region]
    for where, value in flips:
        raw[min(start + int(where * (end - start)), len(raw) - 1)] = value
    if cut is not None:
        raw = raw[:int(cut * len(raw))]
    bad = small_checkpoint.with_name("fuzz.ckpt")
    bad.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        load_checkpoint(bad)
    except WoundfillError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 2**24
