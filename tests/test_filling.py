import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import euler_characteristic, k_ring, pinched_rim_pair
from woundfill import (
    Mesh,
    ScarRanges,
    ScarSpec,
    extract_filling,
    generate_scar,
    is_watertight,
    load_mesh_path,
    make_dataset,
    mean_edge_length,
    outlier_indices,
    sample_scar_spec,
    save_mesh,
    signed_volume,
    synth_head,
    vertex_distance,
)
from woundfill import filling
from woundfill.mesh import components, vertex_adjacency
from woundfill.errors import ConfigError, NoFillingError, NumericalError


def brute_force_outliers(values, k_sigma=2.0):
    """Literal mean/variance/threshold evaluation in exact rational arithmetic.

    |d - mu| > k*sigma is compared squared, so no square root is needed and
    the oracle has no rounding error at all.
    """
    from fractions import Fraction

    vals = [Fraction(v) for v in values]
    n = len(vals)
    mu = sum(vals) / n
    var = sum((v - mu) ** 2 for v in vals) / n
    k2 = Fraction(k_sigma) ** 2
    return {i for i, v in enumerate(vals) if (v - mu) ** 2 > k2 * var}


def test_distance_set_identical(ico):
    assert not vertex_distance(ico, ico).any()


def test_distance_set_translation(ico):
    moved = Mesh(ico.positions + [0.0, 0.0, 2.0], ico.faces)
    assert np.allclose(vertex_distance(ico, moved), 2.0)


def test_distance_set_hand_pairs():
    a = Mesh(np.array([[0.0, 0, 0], [1, 2, 2], [0, 0, 0]]), [[0, 1, 2]])
    b = Mesh(np.array([[1.0, 0, 0], [1, 2, 2], [3, 4, 0]]), [[0, 1, 2]])
    assert vertex_distance(a, b).tolist() == [1.0, 0.0, 5.0]


def test_outliers_hand_case():
    d = np.array([0.0] * 9 + [10.0])
    # mu = 1, sigma = 3, threshold 6: only the 10 sticks out
    assert outlier_indices(d, 2.0).tolist() == [9]


@pytest.mark.parametrize("values, vertex", [([0.0, math.nan, 1.0], 1),
                                            ([0.0, 1.0, math.inf, math.nan], 2),
                                            ([-math.inf, 0.0], 0)])
def test_non_finite_distance_is_a_numerical_error_naming_its_vertex(values, vertex):
    with pytest.raises(NumericalError, match=f"non-finite vertex distance .* at vertex {vertex}$"):
        outlier_indices(values)


def test_outliers_constant_set_empty():
    assert outlier_indices(np.full(20, 3.3)).size == 0


def test_outliers_huge_k_sigma_empty():
    d = np.random.default_rng(0).uniform(size=50)
    assert outlier_indices(d, 1e300).size == 0


def test_outliers_match_brute_force_oracle():
    rng = np.random.default_rng(1)
    for case in range(300):
        n = int(rng.integers(1, 40))
        if case % 7 == 0:
            d = np.full(n, float(rng.uniform(0, 5)))  # sigma = 0 branch
        elif case % 7 == 1:
            d = rng.integers(0, 4, size=n).astype(float)  # heavy ties
        else:
            d = rng.uniform(0, 10, size=n)
        k = float(rng.uniform(0.5, 3.0))
        assert set(outlier_indices(d, k).tolist()) == brute_force_outliers(d.tolist(), k)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    st.integers(-6, 6),
)
def test_outlier_selection_invariant_under_power_of_two_scaling(values, exponent):
    # scaling by 2**k is exact in binary floating point, so the selected set
    # must match exactly, not just approximately
    d = np.array(values)
    scaled = d * 2.0**exponent
    assert np.array_equal(outlier_indices(d), outlier_indices(scaled))


def test_outlier_selection_of_tiny_distances_is_scale_free():
    # the squared deviations of these underflow unless the set is normalized first
    d = np.array([0.0, 6.3699823964096665e-162])
    assert np.array_equal(outlier_indices(d), outlier_indices(d * 0.25))


def test_outlier_selection_invariant_under_shift_and_scale_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = rng.uniform(0, 10, size=int(rng.integers(2, 60)))
        c = float(rng.uniform(0.1, 10.0))
        a = float(rng.uniform(-5.0, 5.0))
        base = outlier_indices(d).tolist()
        assert outlier_indices(d * c).tolist() == base
        assert outlier_indices(d + a).tolist() == base


def test_extract_identity_raises_no_filling(sphere2):
    with pytest.raises(NoFillingError, match="no filling detected"):
        extract_filling(sphere2, sphere2)


def test_overflowing_distance_is_a_numerical_error_without_warnings(sphere2):
    far, near = np.array(sphere2.positions), np.array(sphere2.positions)
    far[7], near[7] = [1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite vertex distance inf at vertex 7$"):
            extract_filling(Mesh(far, sphere2.faces), Mesh(near, sphere2.faces))


def test_extract_requires_shared_topology(sphere2, ico):
    with pytest.raises(NoFillingError, match="face topology"):
        extract_filling(sphere2, ico)


def planted_case(case: int, subdivisions: int = 3, radius=(3, 4)):
    rng = np.random.default_rng([77, case])
    head = synth_head(int(rng.integers(0, 2**63)), subdivisions)
    spec = sample_scar_spec(rng, head.n_vertices, mean_edge_length(head),
                            ScarRanges(radius=radius))
    wounded, mask = generate_scar(head, spec)
    return head, wounded, mask


def test_extract_planted_scar_iou():
    hits = 0
    for case in range(20):
        head, wounded, mask = planted_case(case)
        report = extract_filling(wounded, head)
        pred = set(report.outliers.tolist())
        true = set(mask.affected.tolist())
        iou = len(pred & true) / len(pred | true)
        hits += iou >= 0.6
    assert hits >= 18


def test_extract_filling_is_watertight_closed_solid():
    head, wounded, _ = planted_case(3)
    report = extract_filling(wounded, head)
    assert report.watertight
    assert is_watertight(report.filling)
    assert report.n_components == 1
    assert euler_characteristic(report.filling) == 2
    assert signed_volume(report.filling) > 0


def test_swapped_pair_is_reoriented_to_positive_volume(monkeypatch):
    # with the ground truth as input, the closed component comes out inside-out
    # and extract_filling flips its faces
    head = synth_head(5, 3)
    wounded, _ = generate_scar(head, ScarSpec(center=100, radius=4, max_depth=0.2))
    closed = filling._close_component
    before = []

    def spy(*args):
        pos, fcs, is_closed, notes = closed(*args)
        before.append(signed_volume(Mesh(pos, fcs)))
        return pos, fcs, is_closed, notes

    monkeypatch.setattr(filling, "_close_component", spy)
    report = extract_filling(head, wounded)
    assert before == [pytest.approx(-0.0884, abs=1e-4)]
    assert report.watertight and is_watertight(report.filling)
    volume = signed_volume(extract_filling(wounded, head).filling)
    assert volume == pytest.approx(0.0884, abs=1e-4)
    assert signed_volume(report.filling) == pytest.approx(volume, rel=1e-12)


def test_extract_filling_volume_bounded_by_patch_bbox():
    head, wounded, _ = planted_case(5)
    report = extract_filling(wounded, head)
    vol = signed_volume(report.filling)
    span = report.filling.positions.max(0) - report.filling.positions.min(0)
    assert 0 < vol < float(np.prod(span))


def test_extract_report_statistics_match_distance_set():
    head, wounded, _ = planted_case(7)
    report = extract_filling(wounded, head)
    d = vertex_distance(wounded, head)
    assert np.array_equal(report.distances, d)
    assert report.mean == pytest.approx(d.mean())
    assert report.std == pytest.approx(np.sqrt(((d - d.mean()) ** 2).mean()))
    assert np.array_equal(report.outliers, outlier_indices(d, report.k_sigma))


def test_extract_respects_k_sigma_flag():
    head, wounded, _ = planted_case(9)
    narrow = extract_filling(wounded, head, k_sigma=0.5)
    wide = extract_filling(wounded, head, k_sigma=2.0)
    assert len(narrow.outliers) >= len(wide.outliers)


@pytest.mark.parametrize("k_sigma", [-1.0, 0.0, math.nan, math.inf])
def test_outlier_threshold_must_be_finite_and_positive(k_sigma):
    with pytest.raises(ConfigError, match="k_sigma"):
        outlier_indices([0.1, 0.2, 0.3, 5.0], k_sigma)
    head, wounded, _ = planted_case(9)
    with pytest.raises(ConfigError, match="k_sigma"):
        extract_filling(wounded, head, k_sigma=k_sigma)


def test_extract_deep_dent_on_plain_sphere():
    # deterministic dent without the scar machinery: a vertex and its ring
    # pushed inward so the ring's faces are fully outlying
    from woundfill import icosphere

    base = icosphere(2)
    positions = np.array(base.positions)
    ring = k_ring(base, 0, 1)
    positions[ring] *= 0.5
    positions[0] *= 0.8  # net 0.4 at the center, deepest
    dented = Mesh(positions, base.faces)
    report = extract_filling(dented, base)
    assert set(ring.tolist()) <= set(report.outliers.tolist())
    assert report.watertight


def test_first_fill_does_not_import_numpy_ma():
    # a bare 1-d np.unique imports numpy.ma (~1 MB) on first use
    import os
    import subprocess
    import sys
    from pathlib import Path

    import woundfill

    script = (
        "import sys\n"
        "import numpy as np\n"
        "from woundfill import Mesh, extract_filling, icosphere\n"
        "base = icosphere(2)\n"
        "positions = np.array(base.positions)\n"
        "positions[sorted(set(base.faces[(base.faces == 0).any(axis=1)].ravel()))] *= 0.5\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported before the fill'\n"
        "extract_filling(Mesh(positions, base.faces), base)\n"
        "assert 'numpy.ma' not in sys.modules, 'extract_filling imported numpy.ma'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(woundfill.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def ring_dilation_oracle(faces, in_patch):
    """Per-corner-pair dilation: a patch vertex marks its neighbor across each face edge."""
    dilated = in_patch.copy()
    for a, b in ((0, 1), (1, 2), (2, 0)):
        dilated[faces[in_patch[faces[:, a]], b]] = True
        dilated[faces[in_patch[faces[:, b]], a]] = True
    return dilated


def test_filling_covers_the_one_ring_dilation_of_the_patch():
    from woundfill import icosphere
    from woundfill.mesh import bfs_hops, vertex_adjacency

    rng = np.random.default_rng(404)
    for subdivisions in (2, 3, 4):
        base = icosphere(subdivisions)
        faces = base.faces
        for _ in range(12):
            # a hop ball plus scattered single vertices, all under a fifth of the mesh,
            # so a uniform inward push makes exactly these vertices the outliers
            center = int(rng.integers(0, base.n_vertices))
            hops = bfs_hops(vertex_adjacency(base), center)
            mask = (hops <= rng.integers(1, subdivisions + 1)) | (rng.random(len(hops)) < 0.03)
            positions = np.array(base.positions)
            positions[mask] *= 0.7
            report = extract_filling(Mesh(positions, faces), base)
            assert np.array_equal(report.outliers, np.flatnonzero(mask))
            in_patch = np.zeros(len(mask), dtype=bool)
            in_patch[faces[mask[faces].all(axis=1)]] = True
            ring = np.flatnonzero(ring_dilation_oracle(faces, in_patch))
            expected = np.concatenate([positions[ring], base.positions[ring]])
            assert np.array_equal(np.unique(report.filling.positions, axis=0),
                                  np.unique(expected, axis=0))


def test_single_vertex_dent_has_no_face_patch():
    from woundfill import icosphere

    base = icosphere(2)
    positions = np.array(base.positions)
    positions[0] *= 0.4
    with pytest.raises(NoFillingError, match="face patch"):
        extract_filling(Mesh(positions, base.faces), base)


def test_report_json_fields():
    head, wounded, _ = planted_case(11)
    import json

    doc = json.loads(extract_filling(wounded, head).to_json())
    for key in ("mean", "std", "k_sigma", "n_outliers", "watertight", "n_components"):
        assert key in doc


def fill_digest(pairs) -> tuple[str, dict]:
    """sha256 over each pair's fills at k_sigma 1, 2 and 3, and a tally by component count.

    A fill adds its report JSON, PLY and STL bytes; a pair with no filling adds
    its message, tallied under None.
    """
    digest, tally = hashlib.sha256(), {}
    for wounded, output in pairs:
        for k_sigma in (1.0, 2.0, 3.0):
            try:
                report = extract_filling(wounded, output, k_sigma)
            except NoFillingError as exc:
                digest.update(str(exc).encode())
                tally[None] = tally.get(None, 0) + 1
                continue
            digest.update(report.to_json().encode())
            digest.update(save_mesh(report.filling, "ply") + save_mesh(report.filling, "stl"))
            tally[report.n_components] = tally.get(report.n_components, 0) + 1
    return digest.hexdigest()[:16], tally


@pytest.mark.parametrize("seed, expected", [(1, "d8b21060d90f8884"), (9001, "3fb0c5551ae27ae3")],
                         ids=["seed1", "seed9001"])
def test_fill_bytes_of_the_scar_fill_sets_are_pinned(tmp_path, seed, expected):
    # the benchmark's scar-fill data: 4 heads at V = 2562, 5 scars each, radius 3-4
    manifest = make_dataset(tmp_path, 4, 5, seed, subdivisions=4,
                            ranges=ScarRanges(radius=(3, 4)))
    pairs = [(load_mesh_path(tmp_path / e.wounded_file), load_mesh_path(tmp_path / e.gt_file))
             for e in manifest.entries]
    assert fill_digest(pairs)[0] == expected


def test_fill_bytes_of_a_scar_sweep_are_pinned():
    # radius 1-8 and every second mesh dented twice: fills of one and two
    # components, and pairs with no filling at all
    pairs = []
    for h in range(4):
        rng = np.random.default_rng([2357, h])
        head = synth_head(int(rng.integers(0, 2**63)), 3)
        edge = mean_edge_length(head)
        for w in range(10):
            wounded = head
            for _ in range(1 + w % 2):
                spec = sample_scar_spec(rng, head.n_vertices, edge, ScarRanges(radius=(1, 8)))
                wounded, _ = generate_scar(wounded, spec)
            pairs.append((wounded, head))
    assert fill_digest(pairs) == ("1a44697e8b4aec4e", {1: 84, 2: 27, None: 9})


def test_pinched_rim_emits_the_two_open_shells():
    wounded, output = pinched_rim_pair()
    report = extract_filling(wounded, output)
    assert report.n_components == 1
    assert report.notes == ["open patches emitted: non-simple boundary: "
                            "vertex 5 lies on more than one rim edge pair"]
    assert not report.watertight
    assert not is_watertight(report.filling)
    n = len(report.outliers)
    assert report.filling.n_vertices == 2 * n and report.filling.n_faces == 2 * output.n_faces
    assert np.array_equal(report.filling.positions,
                          np.concatenate([wounded.positions[:n], output.positions[:n]]))


def test_non_manifold_patch_emits_the_two_open_shells():
    # three moved triangles on one edge, and 100 still vertices
    pos = np.concatenate([[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1.0]],
                          np.column_stack([np.arange(100.0), np.full(100, 9.0), np.zeros(100)])])
    faces = [[2, 1, 0], [0, 1, 3], [4, 1, 0]]
    moved = pos.copy()
    moved[:5, 2] -= 0.5
    report = extract_filling(Mesh(moved, faces), Mesh(pos, faces))
    assert report.notes == ["open patches emitted: non-manifold edge (0, 1): 3 incident faces"]
    assert not report.watertight
    assert report.filling.n_faces == 6


def test_each_component_is_oriented_to_positive_volume():
    # a dent in the input fills outward; a dent in the output alone would fill
    # inside out, so that component alone has its faces flipped
    head = synth_head(5, 3)
    far = int(np.argmax(np.linalg.norm(head.positions - head.positions[100], axis=1)))
    dented_in, _ = generate_scar(head, ScarSpec(center=100, radius=4, max_depth=0.2))
    dented_out, _ = generate_scar(head, ScarSpec(center=far, radius=4, max_depth=0.2))
    report = extract_filling(dented_in, dented_out)
    assert report.n_components == 2
    assert report.watertight
    fill = report.filling
    label = components(vertex_adjacency(fill))
    assert label.max() == 1
    volumes = [signed_volume(Mesh(fill.positions, fill.faces[label[fill.faces[:, 0]] == c]))
               for c in (0, 1)]
    assert min(volumes) > 0
