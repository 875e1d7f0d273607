import numpy as np
import pytest

from conftest import finite_difference
from woundfill import LossSpec, Mesh, reconstruction_loss, vertex_distance
from woundfill.errors import ConfigError, MeshError


def test_vertex_distance_identical_is_zero(ico):
    assert not vertex_distance(ico, ico).any()


def test_vertex_distance_345():
    a = Mesh(np.array([[0.0, 0, 0], [0, 0, 0], [1, 1, 1]]), [[0, 1, 2]])
    b = Mesh(np.array([[3.0, 4, 0], [0, 0, 0], [1, 1, 1]]), [[0, 1, 2]])
    assert vertex_distance(a, b)[0] == pytest.approx(5.0)


def test_vertex_distance_translation(ico):
    shifted = Mesh(ico.positions + [1.0, 0.0, 0.0], ico.faces)
    assert np.allclose(vertex_distance(ico, shifted), 1.0)


def test_vertex_distance_count_mismatch(ico, sphere2):
    with pytest.raises(MeshError, match="mismatch"):
        vertex_distance(ico, sphere2)


def test_loss_zero_for_identical(ico):
    value, grad = reconstruction_loss(ico.positions, ico.positions)
    assert value == 0.0
    assert not grad.any()  # gradient at d = 0 is the zero subgradient


def test_loss_mean_of_distances():
    out = np.array([[1.0, 0, 0], [0, 3, 0]])
    tgt = np.zeros((2, 3))
    value, _ = reconstruction_loss(out, tgt, "l2")
    assert value == pytest.approx(2.0)  # distances 1 and 3


def test_loss_l2_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    out = rng.normal(size=(7, 3))
    tgt = rng.normal(size=(7, 3))
    _, grad = reconstruction_loss(out, tgt, "l2")
    worst = finite_difference(
        lambda: reconstruction_loss(out, tgt, "l2")[0], [out], [grad]
    )
    assert worst < 1e-4


def test_loss_l1_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    out = rng.normal(size=(6, 3))
    tgt = rng.normal(size=(6, 3))
    _, grad = reconstruction_loss(out, tgt, "l1")
    worst = finite_difference(
        lambda: reconstruction_loss(out, tgt, "l1")[0], [out], [grad]
    )
    assert worst < 1e-4


def test_loss_l1_is_mean_absolute_coordinate_difference():
    out = np.array([[1.0, -2.0, 0.0]])
    tgt = np.zeros((1, 3))
    value, _ = reconstruction_loss(out, tgt, "l1")
    assert value == pytest.approx(1.0)  # (1 + 2 + 0) / 3


def test_loss_invariant_under_rigid_translation():
    rng = np.random.default_rng(2)
    out = rng.normal(size=(10, 3))
    tgt = rng.normal(size=(10, 3))
    base, _ = reconstruction_loss(out, tgt)
    shifted, _ = reconstruction_loss(out + [5.0, -2.0, 1.0], tgt + [5.0, -2.0, 1.0])
    assert shifted == pytest.approx(base, rel=1e-12)


def test_loss_spec_validation():
    LossSpec().validate()
    LossSpec("input", "l1").validate()
    with pytest.raises(ConfigError):
        LossSpec("other", "l2").validate()
    with pytest.raises(ConfigError):
        LossSpec("input", "l3").validate()
