import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import clamps_ignored, k_ring
from woundfill import (
    ScarRanges,
    ScarSpec,
    generate_scar,
    icosahedron,
    icosphere,
    is_watertight,
    load_manifest,
    make_dataset,
    mean_edge_length,
    sample_scar_spec,
    save_mesh,
    synth_head,
    vertex_distance,
)
from woundfill.errors import ConfigError, DataError, WoundfillError
from woundfill.scars import DatasetManifest, ManifestEntry, _split_assignment
from woundfill.mesh import bfs_hops, vertex_adjacency


@pytest.fixture
def head():
    return synth_head(11, 2)


def test_scar_profile_boundary_and_peak(head):
    spec = ScarSpec(center=5, radius=4, max_depth=0.3)
    _, mask = generate_scar(head, spec)
    hops = bfs_hops(vertex_adjacency(head), 5)
    assert mask.displacement[5] == pytest.approx(0.3)  # r = 0
    rim = np.flatnonzero(hops == 4)
    assert np.all(mask.displacement[rim] == 0.0)  # r = R
    inside = np.flatnonzero(hops == 2)
    assert np.allclose(mask.displacement[inside], 0.3 * (1 - (2 / 4) ** 2))


def test_scar_affected_set_matches_displacement(head):
    spec = ScarSpec(center=0, radius=3, max_depth=0.2)
    _, mask = generate_scar(head, spec)
    assert np.array_equal(mask.affected, np.flatnonzero(mask.displacement > 0))
    hops = bfs_hops(vertex_adjacency(head), 0)
    assert set(mask.affected.tolist()) == set(np.flatnonzero(hops < 3).tolist())


def test_scar_changes_only_masked_vertices(head):
    spec = ScarSpec(center=7, radius=4, max_depth=0.25)
    wounded, mask = generate_scar(head, spec)
    untouched = np.setdiff1d(np.arange(head.n_vertices), mask.affected)
    assert np.array_equal(wounded.positions[untouched], head.positions[untouched])
    assert np.array_equal(wounded.faces, head.faces)


def test_scar_deterministic(head):
    spec = ScarSpec(center=7, radius=4, max_depth=0.25)
    a, _ = generate_scar(head, spec)
    b, _ = generate_scar(head, spec)
    assert np.array_equal(a.positions, b.positions)


def test_scar_hausdorff_equals_max_depth(head):
    spec = ScarSpec(center=9, radius=5, max_depth=0.2)
    wounded, mask = generate_scar(head, spec)
    d = vertex_distance(wounded, head)
    assert abs(d.max() - mask.displacement.max()) < 1e-9
    assert mask.displacement.max() == pytest.approx(0.2)
    # symmetric point-set Hausdorff distance equals the max displacement
    cross = np.linalg.norm(wounded.positions[:, None, :] - head.positions[None, :, :], axis=2)
    hausdorff = max(cross.min(axis=1).max(), cross.min(axis=0).max())
    assert abs(hausdorff - mask.displacement.max()) < 1e-9


def test_scar_displacement_monotone_in_hops(head):
    spec = ScarSpec(center=3, radius=6, max_depth=0.4)
    _, mask = generate_scar(head, spec)
    hops = bfs_hops(vertex_adjacency(head), 3)
    for r in range(1, 6):
        inner = mask.displacement[hops == r - 1]
        outer = mask.displacement[hops == r]
        if inner.size and outer.size:
            assert inner.min() >= outer.max()


def test_scar_radius_clamped_with_warning(head):
    spec = ScarSpec(center=0, radius=500, max_depth=0.1)
    with pytest.warns(UserWarning, match="clamp"):
        wounded, mask = generate_scar(head, spec)
    assert len(mask.affected) < head.n_vertices  # rim ring stays put
    assert is_watertight(wounded)


def scar_warnings(mesh, spec):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        generate_scar(mesh, spec)
    return [w for w in caught if "clamp" in str(w.message)]


@pytest.mark.parametrize("center", [0, 77])
def test_scar_clamp_starts_one_hop_past_the_eccentricity(head, center):
    eccentricity = int(bfs_hops(vertex_adjacency(head), center).max())
    assert scar_warnings(head, ScarSpec(center=center, radius=eccentricity, max_depth=0.1)) == []
    (clamp,) = scar_warnings(head, ScarSpec(center=center, radius=eccentricity + 1, max_depth=0.1))
    assert f"eccentricity {eccentricity};" in str(clamp.message)
    assert clamp.filename == __file__  # names the caller, not woundfill's own frames


def test_make_dataset_clamp_warning_names_its_caller(tmp_path):
    # on icosphere(1) every eccentricity is below the radius range, so every scar clamps
    with pytest.warns(UserWarning, match="clamp") as caught:
        make_dataset(tmp_path / "d", count=1, scars_per_mesh=2, subdivisions=1,
                     ranges=ScarRanges(radius=(8, 8)))
    assert [w.filename for w in caught] == [__file__, __file__]


def test_scar_center_out_of_range(head):
    with pytest.raises(DataError, match="center"):
        generate_scar(head, ScarSpec(center=9999, radius=3, max_depth=0.1))


def test_scar_spec_validation():
    with pytest.raises(DataError):
        ScarSpec(center=0, radius=0, max_depth=0.1)
    with pytest.raises(DataError):
        ScarSpec(center=0, radius=3, max_depth=-1.0)
    with pytest.raises(DataError):
        ScarSpec(center=0, radius=3, max_depth=0.1, profile="gaussian")


BAD_SPECS = {  # name: (the field the error names, the spec's keywords)
    "nan-depth": ("max_depth", dict(center=0, radius=3, max_depth=float("nan"))),
    "inf-depth": ("max_depth", dict(center=0, radius=3, max_depth=float("inf"))),
    "fractional-center": ("center", dict(center=1.5, radius=3, max_depth=0.1)),
    "fractional-radius": ("radius", dict(center=0, radius=2.5, max_depth=0.1)),
}


@pytest.mark.parametrize("name", BAD_SPECS)
def test_bad_scar_spec_is_data_error(name):
    field, keywords = BAD_SPECS[name]
    with pytest.raises(DataError, match=field):
        ScarSpec(**keywords)


def test_sample_scar_spec_degenerate_ranges():
    rng = np.random.default_rng(0)
    ranges = ScarRanges(radius=(4, 4), depth=(1.5, 1.5))
    spec = sample_scar_spec(rng, 100, 0.2, ranges)
    assert spec.radius == 4
    assert spec.max_depth == pytest.approx(1.5 * 0.2)


def test_sample_scar_spec_reproducible():
    a = [sample_scar_spec(np.random.default_rng(5), 100, 0.1) for _ in range(3)]
    b = [sample_scar_spec(np.random.default_rng(5), 100, 0.1) for _ in range(3)]
    assert a == b


def test_sample_scar_spec_ranges_hold():
    rng = np.random.default_rng(1)
    ranges = ScarRanges(radius=(3, 8), depth=(0.5, 2.0))
    radii, depths, centers = [], [], []
    for _ in range(10_000):
        s = sample_scar_spec(rng, 50, 1.0, ranges)
        radii.append(s.radius)
        depths.append(s.max_depth)
        centers.append(s.center)
    assert min(radii) == 3 and max(radii) == 8
    assert 0.5 <= min(depths) and max(depths) <= 2.0
    assert min(centers) >= 0 and max(centers) < 50


def test_synth_head_vertex_count_formula():
    for s in (1, 2, 3):
        assert synth_head(0, s).n_vertices == 10 * 4**s + 2


def test_icosphere_counts():
    assert icosphere(2).n_vertices == 162


def icosphere_oracle(subdivisions):
    """Per-edge dict-and-closure subdivision, one midpoint per new key in face order."""
    mesh = icosahedron()
    verts = [list(p) for p in mesh.positions]
    faces = mesh.faces
    for _ in range(subdivisions):
        midpoint = {}

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = (np.array(verts[a]) + np.array(verts[b])) / 2.0
                p /= np.linalg.norm(p)
                midpoint[key] = len(verts)
                verts.append(list(p))
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.array(new_faces, dtype=np.int64)
    return np.array(verts), faces


@pytest.mark.parametrize("subdivisions", range(6))
def test_icosphere_is_bitwise_the_per_edge_oracle(subdivisions):
    positions, faces = icosphere_oracle(subdivisions)
    mesh = icosphere(subdivisions)
    assert mesh.faces.dtype == np.int64
    assert np.array_equal(mesh.faces, faces)
    assert np.array_equal(mesh.positions, positions)  # bitwise: no tolerance


# sha256 of icosphere(4).faces as little-endian int64, as the per-edge dict numbered them;
# positions are not pinned because their last bits depend on the BLAS build
ICOSPHERE4_FACES_SHA256 = "1d19353ebb1a280dd705a884e8db6ef144348417dd5324e62326249995dddb35"


def test_icosphere_faces_are_pinned():
    faces = icosphere(4).faces.astype("<i8")
    assert hashlib.sha256(faces.tobytes()).hexdigest() == ICOSPHERE4_FACES_SHA256


def test_synth_head_watertight_and_seed_behavior():
    a = synth_head(1, 2)
    b = synth_head(2, 2)
    assert is_watertight(a)
    assert np.array_equal(a.faces, b.faces)
    assert not np.allclose(a.positions, b.positions)
    assert np.array_equal(a.positions, synth_head(1, 2).positions)


def test_synth_head_rejects_zero_subdivisions():
    with pytest.raises(DataError):
        synth_head(0, 0)


def test_make_dataset_counts_and_splits(tmp_path):
    manifest = make_dataset(tmp_path / "d", count=10, scars_per_mesh=10, seed=7)
    files = sorted(p.name for p in (tmp_path / "d").glob("*.ply"))
    assert len(files) == 110
    assert len(manifest.entries) == 100
    per_split = {s: {e.head for e in manifest.split_entries(s)} for s in ("train", "val", "test")}
    assert len(per_split["train"]) == 8
    assert len(per_split["val"]) == 1
    assert len(per_split["test"]) == 1
    # no head straddles splits
    assert not (per_split["train"] & per_split["val"])
    assert not (per_split["train"] & per_split["test"])
    assert not (per_split["val"] & per_split["test"])


def test_make_dataset_deterministic(tmp_path):
    make_dataset(tmp_path / "a", count=3, scars_per_mesh=2, seed=9)
    make_dataset(tmp_path / "b", count=3, scars_per_mesh=2, seed=9)
    ma = (tmp_path / "a" / "manifest.json").read_bytes()
    mb = (tmp_path / "b" / "manifest.json").read_bytes()
    assert ma == mb
    for f in sorted((tmp_path / "a").glob("*.ply")):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_manifest_round_trip(tmp_path):
    manifest = make_dataset(tmp_path / "d", count=2, scars_per_mesh=2, seed=3)
    loaded = load_manifest(tmp_path / "d" / "manifest.json")
    assert loaded == manifest


def test_manifest_is_valid_json(tmp_path):
    make_dataset(tmp_path / "d", count=1, scars_per_mesh=1, seed=0)
    doc = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert doc["count"] == 1
    assert len(doc["entries"]) == 1


def test_make_dataset_bad_ratios(tmp_path):
    with pytest.raises(ConfigError, match="sum to 1"):
        make_dataset(tmp_path / "d", count=2, split_ratios=(0.5, 0.2, 0.2))
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("ratios", [(np.nan, 0.5, 0.5), (0.5, 0.5, np.nan),
                                    (np.inf, -np.inf, 1.0)], ids=["first", "last", "inf"])
def test_make_dataset_rejects_non_finite_ratios(tmp_path, ratios):
    with pytest.raises(ConfigError, match="split ratios"):
        make_dataset(tmp_path / "d", count=2, split_ratios=ratios)
    assert not (tmp_path / "d").exists()


def test_manifest_specs_replay_each_heads_rng(tmp_path):
    # each head draws its bump seed, then its scars with the head's own mean edge length
    seed, count, scars, subdivisions = 17, 3, 3, 3
    ranges = ScarRanges(radius=(2, 5))
    manifest = make_dataset(tmp_path / "d", count=count, scars_per_mesh=scars, seed=seed,
                            subdivisions=subdivisions, ranges=ranges)
    for head in range(count):
        rng = np.random.default_rng([seed, 0, head])
        gt = synth_head(int(rng.integers(0, 2**63)), subdivisions)
        edge = mean_edge_length(gt)
        replayed = [sample_scar_spec(rng, gt.n_vertices, edge, ranges) for _ in range(scars)]
        assert [e.spec for e in manifest.entries if e.head == head] == replayed


def test_make_dataset_rejects_two_split_ratios(tmp_path):
    # the manifest field is a 3-tuple, so such a dataset could not be read back
    with pytest.raises(ConfigError, match="split_ratios"):
        make_dataset(tmp_path / "d", count=2, split_ratios=(0.5, 0.5))
    assert not (tmp_path / "d").exists()


def test_make_dataset_rejects_negative_seed(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        make_dataset(tmp_path / "d", count=2, seed=-1)
    assert not (tmp_path / "d").exists()


def test_make_dataset_rejects_zero_subdivisions(tmp_path):
    with pytest.raises(ConfigError, match="subdivisions"):
        make_dataset(tmp_path / "d", count=2, subdivisions=0)
    assert not (tmp_path / "d").exists()


def split_assignment_oracle(count, ratios, seed):
    order = np.random.default_rng([seed, 1]).permutation(count)
    n_train = int(np.floor(ratios[0] * count))
    n_val = int(np.floor(ratios[1] * count))
    split = [""] * count
    for pos, head in enumerate(order):
        split[head] = "train" if pos < n_train else "val" if pos < n_train + n_val else "test"
    return split


def test_split_assignment_matches_per_head_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        count = int(rng.integers(1, 40))
        train, val = rng.dirichlet([1.0, 1.0, 1.0])[:2]
        ratios = (train, val, 1.0 - train - val)
        seed = int(rng.integers(0, 2**32))
        split = _split_assignment(count, ratios, seed)
        assert split == split_assignment_oracle(count, ratios, seed)
        assert all(type(s) is str for s in split)


@pytest.mark.filterwarnings("ignore:scar radius .* clamping:UserWarning")
def test_wounded_meshes_match_specs(tmp_path):
    # several scars per head, so make_dataset reuses its graph and normals; on
    # icosphere(1) some radii exceed the eccentricity and clamp
    seed = 13
    for subdivisions, radius in [(1, (3, 8)), (2, (1, 6))]:
        out = tmp_path / f"s{subdivisions}"
        manifest = make_dataset(out, count=2, scars_per_mesh=4, seed=seed,
                                subdivisions=subdivisions, ranges=ScarRanges(radius=radius))
        heads = []
        for head in range(manifest.count):
            rng = np.random.default_rng([seed, 0, head])  # the stream make_dataset draws from
            heads.append(synth_head(int(rng.integers(0, 2**63)), subdivisions))
        for entry in manifest.entries:
            gt = heads[entry.head]
            assert (out / entry.gt_file).read_bytes() == save_mesh(gt, "ply")
            wounded, mask = generate_scar(gt, entry.spec)
            assert (out / entry.wounded_file).read_bytes() == save_mesh(wounded, "ply")
            ring = k_ring(gt, entry.spec.center, entry.spec.radius)
            assert set(mask.affected.tolist()) <= set(ring.tolist())


def test_scar_ranges_validation():
    for keywords in (dict(radius=(3,)), dict(radius=(8, 3)), dict(radius=(0, 3)),
                     dict(depth=(0.5, 1.0, 2.0)), dict(depth=(0.0, 1.0)),
                     dict(depth=(0.5, float("inf")))):
        with pytest.raises(ConfigError, match="range"):
            ScarRanges(**keywords)


# sha256 of the manifest below as the writer wrote it before it was derived from the fields
MANIFEST_SHA256 = "219ca902e64da2c037fb54e21bca07120d6502c9b2af48d447733bb11f41400f"


def test_manifest_json_is_pinned():
    # literal values only, so the digest holds on any libm or BLAS
    manifest = DatasetManifest(
        seed=5, count=2, scars_per_mesh=1, subdivisions=1, split_ratios=(0.5, 0.5, 0.0),
        ranges=ScarRanges(radius=(2, 4), depth=(0.5, 1.5)),
        entries=(
            ManifestEntry(0, 0, "0000_gt.ply", "0000_00.ply", "train",
                          ScarSpec(center=3, radius=2, max_depth=0.25, seed=11)),
            ManifestEntry(1, 0, "0001_gt.ply", "0001_00.ply", "val",
                          ScarSpec(center=40, radius=4, max_depth=0.125, seed=2**62)),
        ),
    )
    text = manifest.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST_SHA256
    assert DatasetManifest.from_json(text) == manifest


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    with clamps_ignored():
        make_dataset(root, count=2, scars_per_mesh=2, seed=5, subdivisions=1)
    return root / "manifest.json"


EDITS = {
    "no-entries": lambda doc: doc.pop("entries"),
    "string-seed": lambda doc: doc.update(seed="5"),
    "bool-count": lambda doc: doc.update(count=True),
    "ranges-list": lambda doc: doc.update(ranges=[3, 8]),
    "entry-not-object": lambda doc: doc["entries"].__setitem__(0, 7),
    "unknown-split": lambda doc: doc["entries"][0].update(split="tset"),
    "spec-lacks-seed": lambda doc: doc["entries"][1]["spec"].pop("seed"),
    "float-center": lambda doc: doc["entries"][1]["spec"].update(center=1.5),
    "split-ratios-length": lambda doc: doc.update(split_ratios=[1, "a", None, 4, 5]),
    "string-radius": lambda doc: doc["ranges"].update(radius=["a"]),
    # well-typed values that break a rule make_dataset keeps
    "zero-spec-radius": lambda doc: doc["entries"][1]["spec"].update(radius=0),
    "negative-spec-depth": lambda doc: doc["entries"][1]["spec"].update(max_depth=-1),
    "gaussian-profile": lambda doc: doc["entries"][1]["spec"].update(profile="gaussian"),
    "reversed-radius-range": lambda doc: doc["ranges"].update(radius=[8, 3]),
    "negative-split-ratio": lambda doc: doc.update(split_ratios=[2, -0.5, -0.5]),
    "zero-count": lambda doc: doc.update(count=0),
}


@pytest.mark.parametrize("damage", ["not-json", "not-utf8", "json-list", *EDITS])
def test_damaged_manifest_is_data_error(manifest_path, damage):
    raw = manifest_path.read_bytes()
    if damage == "not-json":
        raw = raw[: len(raw) // 2]
    elif damage == "not-utf8":
        raw = b"\x80" + raw
    elif damage == "json-list":
        raw = b"[]"
    else:
        doc = json.loads(raw)
        EDITS[damage](doc)
        raw = json.dumps(doc).encode()
    bad = manifest_path.with_name(f"{damage}.json")
    bad.write_bytes(raw)
    with pytest.raises(DataError) as exc:
        load_manifest(bad)
    assert str(bad) in str(exc.value)


@pytest.mark.parametrize("where", ["manifest", "entry", "spec"])
def test_manifest_with_an_added_key_is_data_error(manifest_path, where):
    doc = json.loads(manifest_path.read_bytes())
    owner = {"manifest": doc, "entry": doc["entries"][0], "spec": doc["entries"][0]["spec"]}
    owner[where]["added"] = 1
    bad = manifest_path.with_name(f"added-{where}.json")
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="unknown key 'added'") as exc:
        load_manifest(bad)
    assert str(bad) in str(exc.value)


@seed(2024)
@settings(max_examples=200, deadline=None)
@given(
    cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
    flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 255)), max_size=3),
)
def test_fuzzed_manifest_raises_only_woundfill_errors(manifest_path, cut, flips):
    raw = bytearray(manifest_path.read_bytes())
    for where, value in flips:
        raw[min(int(where * len(raw)), len(raw) - 1)] = value
    if cut is not None:
        raw = raw[:int(cut * len(raw))]
    bad = manifest_path.with_name("fuzz.json")
    bad.write_bytes(bytes(raw))
    try:
        load_manifest(bad)
    except WoundfillError:
        pass
