import hashlib
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    return raw, json.loads(raw[start:start + header_len]), raw[start + header_len:]


def _with_header(header_bytes: bytes, body: bytes = b"") -> bytes:
    return MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + body


def _damage(kind, raw, header, body):
    if kind == "short":
        return raw[:12]
    if kind == "header-past-end":
        return MAGIC + struct.pack("<Q", len(raw)) + raw[16:]
    if kind == "not-utf8":
        return _with_header(b"\xff\xfe{}", body)
    if kind == "not-json":
        return _with_header(b"{format_version: 1}", body)
    if kind == "json-list":
        return _with_header(b"[1, 2]", body)
    if kind == "no-architecture":
        del header["architecture"]
    elif kind == "string-ratio":
        header["architecture"]["ratios"] = ["x", "y"]
    elif kind == "bool-ratio":
        header["architecture"]["ratios"] = [1.0, True]
    elif kind == "rising-ratios":
        header["architecture"]["ratios"] = [0.5, 0.9]
    elif kind == "string-index":
        header["hierarchy"]["conv_down"][0]["indices"][3] = "x"
    elif kind == "integral-string-index":
        header["hierarchy"]["conv_down"][0]["indices"][3] = "7"
    elif kind == "float-index":
        header["hierarchy"]["conv_down"][0]["indices"][3] = 7.7
    elif kind == "bool-index":
        header["hierarchy"]["conv_down"][0]["indices"][3] = True
    elif kind == "negative-n-out":
        header["hierarchy"]["conv_down"][0].update(n_out=-1, indptr=[])
    elif kind == "huge-n-in":
        header["hierarchy"]["conv_down"][0]["n_in"] = 10**11
    elif kind == "extra-level":
        header["hierarchy"]["levels"].append([0, 1, 2, 3])
    elif kind == "unjoined-levels":
        header["hierarchy"]["levels"][1].append(0)
    elif kind == "huge-width":
        header["architecture"]["widths"][1] = 10**9
    elif kind == "huge-basis-count":
        header["hierarchy"]["conv_down"][0]["basis_count"] = 10**9
    elif kind == "truncated-block":
        body = body[:-12]
    return _with_header(json.dumps(header).encode(), body)


@pytest.mark.parametrize("kind", [
    "short", "header-past-end", "not-utf8", "not-json", "json-list", "no-architecture",
    "string-ratio", "bool-ratio", "rising-ratios", "string-index", "integral-string-index",
    "float-index", "bool-index", "negative-n-out", "huge-n-in", "extra-level",
    "unjoined-levels", "huge-width", "huge-basis-count", "truncated-block",
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
    assert peak < 2**24  # nothing is sized by a header number before it is checked


def test_block_shape_must_match_architecture(tmp_path, model):
    raw, header, body = _saved(model, tmp_path)
    header["hierarchy"]["conv_down"][0]["basis_count"] += 1
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(json.dumps(header).encode(), body))
    with pytest.raises(DataError, match="do not match the architecture"):
        load_checkpoint(bad)


@pytest.mark.parametrize("change", ["renamed", "reordered", "missing", "extra", "reshaped"])
def test_block_list_must_equal_the_architecture(tmp_path, model, change):
    raw, header, body = _saved(model, tmp_path)
    blocks = header["blocks"]
    if change == "renamed":
        blocks[0]["name"] = "enc9.conv.basis"
    elif change == "reordered":
        blocks[0], blocks[1] = blocks[1], blocks[0]
    elif change == "missing":
        body = body[:-8 * math.prod(blocks.pop()["shape"])]
    elif change == "extra":
        blocks.append({"name": "dec0.res.extra", "shape": [1]})
        body += bytes(8)
    else:  # same float count, another shape
        blocks[0]["shape"] = blocks[0]["shape"][::-1]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(json.dumps(header).encode(), body))
    with pytest.raises(DataError, match="do not match the architecture"):
        load_checkpoint(bad)


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


# sha256 of the header below as the writer wrote it before it was derived from the fields
HEADER_SHA256 = "5444899ab6813fb0b5da9b252637382e90da018fb80417858b1b6d0b7d702f2c"


def test_header_json_is_pinned(tmp_path):
    # a hand-built two-level hierarchy: literal values only, so the digest
    # holds on any libm or BLAS (the header carries no parameter values)
    conv = ConvTopology(6, 2, np.array([0, 4, 8]), np.array([0, 1, 2, 3, 2, 3, 4, 5]), 4)
    pool = ConvTopology(6, 2, np.array([0, 3, 6]), np.arange(6), 3)
    hierarchy = MeshHierarchy(
        levels=(np.arange(6), np.array([0, 3])), parents=(np.array([0, 0, 0, 1, 1, 1]),),
        conv_down=(conv,), pool_down=(pool,),
    )
    arch = Architecture(ratios=(1.0, 0.5), widths=(3, 4), activation="relu", m_clamp=(3, 9))
    save_checkpoint(tmp_path / "m.ckpt", Autoencoder.init(hierarchy, arch, seed=0),
                    extra={"epoch": 3, "loss": 0.125})
    raw = (tmp_path / "m.ckpt").read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header = raw[len(MAGIC) + 8:len(MAGIC) + 8 + header_len]
    assert hashlib.sha256(header).hexdigest() == HEADER_SHA256
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
    in_header=st.booleans(),
)
def test_fuzzed_checkpoint_raises_only_woundfill_errors(small_checkpoint, cut, flips, in_header):
    raw = bytearray(small_checkpoint.read_bytes())
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    span = 16 + header_len if in_header else len(raw)
    for where, value in flips:
        raw[min(int(where * span), len(raw) - 1)] = value
    if cut is not None:
        raw = raw[:int(cut * len(raw))]
    bad = small_checkpoint.with_name("fuzz.ckpt")
    bad.write_bytes(bytes(raw))
    try:
        load_checkpoint(bad)
    except WoundfillError:
        pass
