import json

import numpy as np
import pytest

from conftest import finite_difference, reference_pool, reference_reverse
from woundfill import Architecture, Autoencoder, icosphere, reconstruction_loss
from woundfill import model as model_module
from woundfill import ops
from woundfill.errors import ConfigError, MeshError, NumericalError, as_json, from_json
from woundfill.model import parameter_shapes


@pytest.fixture(scope="module")
def small_model():
    mesh = icosphere(1)  # 42 vertices
    arch = Architecture(ratios=(1.0, 0.3), widths=(3, 4))
    return mesh, Autoencoder.build(mesh, arch, seed=5)


def test_forward_shape_roundtrip(small_model):
    mesh, model = small_model
    out = model.forward(mesh.positions)
    assert out.shape == mesh.positions.shape


@pytest.mark.parametrize("keep_cache", [False, True])
def test_non_finite_input_is_a_numerical_error(small_model, keep_cache):
    mesh, model = small_model
    x = np.array(mesh.positions)
    x[7, 1] = np.nan
    with pytest.raises(NumericalError, match="non-finite values in input"):
        model.forward(x, keep_cache=keep_cache)


def test_non_finite_upstream_gradient_is_a_numerical_error(small_model):
    mesh, model = small_model
    out, cache = model.forward(mesh.positions, keep_cache=True)
    grad_out = np.ones_like(out)
    grad_out[3, 2] = np.inf
    for reverse in (model.backward, model.input_gradient):
        with pytest.raises(NumericalError, match="non-finite upstream gradient"):
            reverse(cache, grad_out)


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
    shapes = parameter_shapes(hi, model.architecture)
    assert sum(int(np.prod(s)) for s in shapes.values()) == expected


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
    assert np.allclose(vd_res(blk.res, pool_t, x)[0], reference_pool(pool_t, x),
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


def test_architecture_validation():
    with pytest.raises(ConfigError, match="widths"):
        Architecture(ratios=(1.0, 0.5), widths=(3,))
    with pytest.raises(ConfigError, match="xyz"):
        Architecture(ratios=(1.0, 0.5), widths=(4, 8))
    with pytest.raises(ConfigError, match="xyz"):
        Architecture(ratios=(), widths=())
    for m_clamp in ((17, 4), (0, 0), (4,)):
        with pytest.raises(ConfigError, match="m_clamp"):
            Architecture(m_clamp=m_clamp)
    for ratios in ((0.5, 0.25), (1.0, 1.0), (1.0, 0.9, 0.95), (1.0, 0.0), (1.0, -0.5)):
        with pytest.raises(ConfigError, match="ratios"):
            Architecture(ratios=ratios, widths=(3,) * len(ratios))


@pytest.mark.parametrize("fields, match", [
    ({"ratios": (1.0, np.nan)}, "ratios"),
    ({"ratios": (np.nan, 0.25)}, "ratios"),
    ({"ratios": (1.0, np.nan, 0.25), "widths": (3, 8, 16)}, "ratios"),
], ids=["last-ratio-nan", "first-ratio-nan", "middle-ratio-nan"])
def test_architecture_rejects_non_finite_values(fields, match):
    with pytest.raises(ConfigError, match=match):
        Architecture(**fields)


def test_architecture_dict_round_trip():
    arch = Architecture(ratios=(1.0, 0.25, 0.1), widths=(3, 8, 16))
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


@pytest.fixture(scope="module")
def branchy_model():
    # widths 3 -> 16 -> 8 and back: the I <= O and the I > O kernels both run, in the
    # convs and the density layers, in the encoder and in the decoder
    mesh = icosphere(2)
    arch = Architecture(ratios=(1.0, 0.25, 0.0625), widths=(3, 16, 8))
    return mesh, Autoencoder.build(mesh, arch, seed=11)


@pytest.mark.parametrize("block_edges", [1, ops.BLOCK_EDGES])
@pytest.mark.parametrize("batch", [None, 1, 3])
def test_backward_equals_the_public_operators_bit_for_bit(branchy_model, monkeypatch,
                                                          block_edges, batch):
    mesh, model = branchy_model
    monkeypatch.setattr(ops, "BLOCK_EDGES", block_edges)
    rng = np.random.default_rng(12)
    shape = mesh.positions.shape if batch is None else (mesh.n_vertices, batch, 3)
    x = rng.normal(scale=0.05, size=shape) + (
        mesh.positions if batch is None else mesh.positions[:, None])
    g = rng.normal(size=shape)
    out, cache = model.forward(x, keep_cache=True)
    ref_out, ref_grads, ref_in = reference_reverse(model, x, g)
    assert np.array_equal(out, ref_out)
    grads = model.backward(cache, g)
    assert list(grads) == list(model.parameters())
    for name, value in grads.items():
        assert np.array_equal(value, ref_grads[name]), name
    assert np.array_equal(model.input_gradient(cache, g), ref_in)
    assert np.array_equal(model.forward(x), out)


def test_backward_does_not_form_the_first_blocks_input_gradient(branchy_model, monkeypatch):
    # enc0 maps 3 -> 16 features, so its conv and density layer take the I <= O kernels,
    # whose one pass over the output rows forms d_x only when asked to
    mesh, model = branchy_model
    first = model.blocks[0]
    fused, seen = ops._output_row_backward, []

    def spy(params, topology, x, g, input_grad):
        d_coeffs, d_x = fused(params, topology, x, g, input_grad)
        seen.append((id(topology), input_grad, d_x is not None))
        return d_coeffs, d_x

    monkeypatch.setattr(ops, "_output_row_backward", spy)
    _, cache = model.forward(mesh.positions, keep_cache=True)
    g = np.ones_like(mesh.positions)
    enc0 = (first.conv_topology, first.pool_topology)

    def calls(topology):  # (input_grad, d_x formed) of each fused pass on the topology
        return {(asked, formed) for t, asked, formed in seen if t == id(topology)}

    seen.clear()
    model.backward(cache, g)
    assert all(calls(t) == {(False, False)} for t in enc0)
    assert any(formed for _, _, formed in seen)  # later blocks still form theirs
    seen.clear()
    model.input_gradient(cache, g)
    assert all(calls(t) == {(True, True)} for t in enc0)


def test_backward_runs_each_public_backward_once_per_block(branchy_model, monkeypatch):
    mesh, model = branchy_model
    calls = []
    for name in ("vc_conv_backward", "vd_res_backward"):
        real = getattr(model_module, name)
        monkeypatch.setattr(model_module, name, lambda *args, name=name, real=real: (
            calls.append((name, args[0])) or real(*args)))
    _, cache = model.forward(mesh.positions, keep_cache=True)
    model.backward(cache, np.ones_like(mesh.positions))
    for name, part in (("vc_conv_backward", "conv"), ("vd_res_backward", "res")):
        seen = [params for called, params in calls if called == name]
        assert [id(p) for p in seen] == [id(getattr(b, part)) for b in reversed(model.blocks)]


def test_operator_errors_name_their_block_layer_and_source(branchy_model):
    mesh, model = branchy_model
    params = model.parameters()
    saved = {k: params[k].copy() for k in ("enc1.res.rho", "enc0.conv.bias")}
    try:
        params["enc1.res.rho"][:] = 0.0
        with pytest.raises(NumericalError, match=r"^enc1\.res on enc0's output: all-zero density"):
            model.forward(mesh.positions)
        params["enc1.res.rho"][:] = saved["enc1.res.rho"]
        params["enc0.conv.bias"][:] = np.inf
        with pytest.raises(NumericalError,
                           match=r"^enc1\.conv on enc0's output: non-finite values in input"):
            model.forward(mesh.positions)
    finally:
        model.set_parameters({**params, **saved})
    with pytest.raises(MeshError, match=r"^enc0\.conv on the model input: feature map has 5 rows"):
        model.forward(np.zeros((5, 3)))
    out, cache = model.forward(mesh.positions, keep_cache=True)
    grad_out = np.ones_like(out)
    grad_out[0, 0] = np.nan
    with pytest.raises(NumericalError, match=r"^dec1\.conv backward: non-finite upstream"):
        model.backward(cache, grad_out)


def test_parameters_are_views_of_one_vector(small_model):
    mesh, model = small_model
    params = model.parameters()
    assert list(params) == list(parameter_shapes(model.hierarchy, model.architecture))
    assert model.vector.flags.c_contiguous and model.vector.dtype == np.float64
    assert all(np.shares_memory(v, model.vector) for v in params.values())
    assert np.array_equal(np.concatenate([v.ravel() for v in params.values()]), model.vector)
    for blk in model.blocks:  # the operators read the same memory
        for a in (blk.conv.basis, blk.conv.coeffs, blk.conv.bias, blk.res.rho, blk.res.matrix):
            assert a is None or np.shares_memory(a, model.vector)
    before, saved = model.forward(mesh.positions), model.vector.copy()
    model.vector += 0.25
    try:
        assert not np.array_equal(model.forward(mesh.positions), before)
    finally:
        model.vector[:] = saved
    _, cache = model.forward(mesh.positions, keep_cache=True)
    out = np.full_like(model.vector, np.nan)
    grads = model.backward(cache, np.ones_like(mesh.positions), out=out)
    assert all(np.shares_memory(v, out) for v in grads.values())
    assert np.isfinite(out).all()  # every entry written
    fresh = model.backward(cache, np.ones_like(mesh.positions))
    assert np.array_equal(np.concatenate([v.ravel() for v in fresh.values()]), out)
