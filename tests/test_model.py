import json

import numpy as np
import pytest

from conftest import finite_difference
from woundfill import Architecture, Autoencoder, icosphere, reconstruction_loss
from woundfill.errors import ConfigError, as_json, from_json
from woundfill.model import parameter_shapes
from woundfill.ops import reference_pool


@pytest.fixture(scope="module")
def small_model():
    mesh = icosphere(1)  # 42 vertices
    arch = Architecture(ratios=(1.0, 0.3), widths=(3, 4))
    return mesh, Autoencoder.build(mesh, arch, seed=5)


def test_forward_shape_roundtrip(small_model):
    mesh, model = small_model
    out = model.forward(mesh.positions)
    assert out.shape == mesh.positions.shape


def test_parameter_count_closed_form(small_model):
    _, model = small_model
    hi = model.hierarchy
    w = model.architecture.widths
    expected = 0
    for l, (conv, pool) in enumerate(zip(hi.conv_down, hi.pool_down)):
        i_dim, o_dim = w[l], w[l + 1]
        expected += conv.basis_count * i_dim * o_dim + conv.edge_count * conv.basis_count + o_dim
        expected += pool.edge_count + (o_dim * i_dim if i_dim != o_dim else 0)
        # decoder mirror on the transposed topologies (same edge counts)
        expected += conv.basis_count * o_dim * i_dim + conv.edge_count * conv.basis_count + i_dim
        expected += pool.edge_count + (i_dim * o_dim if i_dim != o_dim else 0)
    assert model.parameter_count() == expected


def test_init_deterministic(small_model):
    mesh, model = small_model
    again = Autoencoder.build(mesh, model.architecture, seed=5)
    for (ka, va), (kb, vb) in zip(model.parameters().items(), again.parameters().items()):
        assert ka == kb
        assert np.array_equal(va, vb)
    other = Autoencoder.build(mesh, model.architecture, seed=6)
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(model.parameters().values(), other.parameters().values())
    )


def test_residual_path_starts_as_average_pooling():
    # with equal widths the residual matrix is identity and rho starts at 1,
    # so the down-block residual equals reference average pooling
    mesh = icosphere(1)
    arch = Architecture(ratios=(1.0, 0.3), widths=(3, 3))
    model = Autoencoder.build(mesh, arch, seed=0)
    blk = model.blocks[0]  # the first encoder block
    from woundfill.ops import vd_res

    x = np.random.default_rng(1).normal(size=(42, 3))
    pool_t = model.hierarchy.pool_down[0]
    assert np.allclose(vd_res(blk.res, pool_t, x), reference_pool(pool_t, x, "avg"),
                       atol=1e-14)


def test_end_to_end_gradients_match_finite_differences(small_model):
    mesh, model = small_model
    rng = np.random.default_rng(7)
    x = mesh.positions + rng.normal(scale=0.05, size=mesh.positions.shape)
    target = mesh.positions

    def full_loss():
        return reconstruction_loss(model.forward(x), target, "l2")[0]

    out, cache = model.forward(x, keep_cache=True)
    _, gout = reconstruction_loss(out, target, "l2")
    grads = model.backward(cache, gout)
    gin = model.input_gradient(cache, gout)
    params = model.parameters()
    worst = finite_difference(
        full_loss,
        list(params.values()) + [x],
        [grads[k] for k in params] + [gin],
        rng=rng,
        samples=25,
    )
    assert worst < 1e-4


def test_relu_model_also_differentiates():
    mesh = icosphere(1)
    arch = Architecture(ratios=(1.0, 0.3), widths=(3, 4), activation="relu")
    model = Autoencoder.build(mesh, arch, seed=2)
    rng = np.random.default_rng(3)
    x = mesh.positions + rng.normal(scale=0.05, size=mesh.positions.shape)
    target = mesh.positions - 0.1

    def full_loss():
        return reconstruction_loss(model.forward(x), target, "l2")[0]

    out, cache = model.forward(x, keep_cache=True)
    _, gout = reconstruction_loss(out, target, "l2")
    grads = model.backward(cache, gout)
    params = model.parameters()
    worst = finite_difference(
        full_loss, list(params.values()), [grads[k] for k in params], rng=rng, samples=20
    )
    assert worst < 1e-4


def test_architecture_validation():
    with pytest.raises(ConfigError, match="widths"):
        Architecture(ratios=(1.0, 0.5), widths=(3,)).validate()
    with pytest.raises(ConfigError, match="xyz"):
        Architecture(ratios=(1.0, 0.5), widths=(4, 8)).validate()
    with pytest.raises(ConfigError, match="activation"):
        Architecture(activation="tanh").validate()
    with pytest.raises(ConfigError, match="xyz"):
        Architecture(ratios=(), widths=()).validate()
    for m_clamp in ((17, 4), (0, 0), (4,)):
        with pytest.raises(ConfigError, match="m_clamp"):
            Architecture(m_clamp=m_clamp).validate()
    for ratios in ((0.5, 0.25), (1.0, 1.0), (1.0, 0.9, 0.95), (1.0, 0.0), (1.0, -0.5)):
        with pytest.raises(ConfigError, match="ratios"):
            Architecture(ratios=ratios, widths=(3,) * len(ratios)).validate()


def test_architecture_dict_round_trip():
    arch = Architecture(ratios=(1.0, 0.25, 0.1), widths=(3, 8, 16), activation="relu")
    doc = json.loads(json.dumps(as_json(arch)))
    assert doc["ratios"] == [1.0, 0.25, 0.1]
    assert from_json(Architecture, doc, "arch.json", "architecture") == arch


def test_set_parameters_round_trip(small_model):
    _, model = small_model
    params = {k: v.copy() for k, v in model.parameters().items()}
    noise = {k: v + 0.5 for k, v in params.items()}
    model.set_parameters(noise)
    for k, v in model.parameters().items():
        assert np.array_equal(v, params[k] + 0.5)
    model.set_parameters(params)


def _stack(small_model, batch=3):
    mesh, model = small_model
    rng = np.random.default_rng(8)
    return rng.normal(scale=0.05, size=(mesh.n_vertices, batch, 3)) + mesh.positions[:, None]


def test_stacked_forward_equals_per_sample_forwards(small_model):
    _, model = small_model
    x = _stack(small_model)
    y = model.forward(x)
    assert y.shape == x.shape
    for b in range(x.shape[1]):
        y_b = model.forward(x[:, b])
        np.testing.assert_allclose(y[:, b], y_b, rtol=0, atol=1e-12 * np.abs(y_b).max())


def test_stacked_backward_is_the_sum_of_per_sample_backwards(small_model):
    _, model = small_model
    x = _stack(small_model)
    g = np.random.default_rng(9).normal(size=x.shape)
    _, cache = model.forward(x, keep_cache=True)
    grads = model.backward(cache, g)
    g_in = model.input_gradient(cache, g)
    per_sample = []
    for b in range(x.shape[1]):
        _, cache_b = model.forward(x[:, b], keep_cache=True)
        per_sample.append(model.backward(cache_b, g[:, b]))
        np.testing.assert_allclose(g_in[:, b], model.input_gradient(cache_b, g[:, b]),
                                   rtol=1e-12, atol=1e-14)
    assert list(grads) == list(model.parameters())
    for name, value in grads.items():
        np.testing.assert_allclose(value, sum(p[name] for p in per_sample), rtol=1e-12,
                                   atol=1e-14)


def test_parameter_shapes_match_the_built_model():
    for widths in ((3, 4), (3, 3)):  # equal widths leave out the residual matrices
        model = Autoencoder.build(icosphere(1), Architecture(ratios=(1.0, 0.3), widths=widths), 0)
        shapes = parameter_shapes(model.hierarchy, model.architecture)
        assert list(shapes.items()) == [(k, v.shape) for k, v in model.parameters().items()]
