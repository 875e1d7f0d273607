import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference, random_topology
from woundfill import ops, synth_head, transpose_topology
from woundfill.errors import MeshError, NumericalError
from woundfill.hierarchy import ConvTopology, build_hierarchy
from woundfill.ops import (
    VcConvParams,
    VdParams,
    elu,
    elu_backward,
    init_vc_conv,
    init_vd,
    reference_pool,
    relu,
    relu_backward,
    vc_conv,
    vc_conv_backward,
    vc_trans_conv,
    vc_trans_conv_backward,
    vd_aggregate,
    vd_aggregate_backward,
    vd_res,
    vd_res_backward,
)


def identity_topology(n: int, m: int = 1) -> ConvTopology:
    return ConvTopology(n, n, np.arange(n + 1), np.arange(n), basis_count=m)


def chain_topology() -> ConvTopology:
    # one output vertex fed by two inputs
    return ConvTopology(2, 1, np.array([0, 2]), np.array([0, 1]), basis_count=2)


# --- vc_conv -------------------------------------------------------------


def test_vc_conv_identity_configuration():
    n, d = 4, 3
    topo = identity_topology(n)
    params = VcConvParams(
        basis=np.eye(d)[None, :, :], coeffs=np.ones((n, 1)), bias=np.zeros(d)
    )
    x = np.arange(n * d, dtype=float).reshape(n, d)
    assert np.array_equal(vc_conv(params, topo, x), x)


def test_vc_conv_hand_example():
    # neighbors x = (5, 7), mixed weights W = (2, 3), bias 1 -> 2*5 + 3*7 + 1 = 32
    topo = chain_topology()
    params = VcConvParams(
        basis=np.array([[[2.0]], [[3.0]]]),  # B1 = (2), B2 = (3), each 1x1
        coeffs=np.array([[1.0, 0.0], [0.0, 1.0]]),  # edge 0 takes B1, edge 1 takes B2
        bias=np.array([1.0]),
    )
    x = np.array([[5.0], [7.0]])
    assert vc_conv(params, topo, x).tolist() == [[32.0]]


def test_vc_conv_zero_coeffs_gives_bias():
    rng = np.random.default_rng(0)
    topo = random_topology(rng, 6, 4)
    params = init_vc_conv(rng, topo, 3, 2)
    params.coeffs[:] = 0.0
    params.bias = np.array([0.5, -1.5])
    y = vc_conv(params, topo, rng.normal(size=(6, 3)))
    assert np.allclose(y, np.tile(params.bias, (4, 1)))


def test_vc_conv_linear_in_input():
    rng = np.random.default_rng(1)
    topo = random_topology(rng, 8, 5)
    params = init_vc_conv(rng, topo, 3, 2)
    x = rng.normal(size=(8, 3))
    z = rng.normal(size=(8, 3))
    a, b = 1.7, -0.4
    lhs = vc_conv(params, topo, a * x + b * z)
    rhs = a * vc_conv(params, topo, x) + b * vc_conv(params, topo, z) - (a + b - 1) * params.bias
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_vc_conv_rejects_dimension_mismatch():
    rng = np.random.default_rng(2)
    topo = random_topology(rng, 5, 3)
    params = init_vc_conv(rng, topo, 3, 2)
    with pytest.raises(MeshError, match="dimension"):
        vc_conv(params, topo, np.zeros((5, 4)))


def test_vc_conv_rejects_nonfinite_input():
    rng = np.random.default_rng(3)
    topo = random_topology(rng, 5, 3)
    params = init_vc_conv(rng, topo, 2, 2)
    x = np.zeros((5, 2))
    x[1, 0] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        vc_conv(params, topo, x)


# --- vc_trans_conv ---------------------------------------------------------


def test_trans_conv_equals_conv_on_identity_topology():
    rng = np.random.default_rng(4)
    n = 5
    topo = identity_topology(n, m=2)
    params = init_vc_conv(rng, topo, 3, 3)
    x = rng.normal(size=(n, 3))
    assert np.allclose(vc_trans_conv(params, topo, x), vc_conv(params, topo, x))


def test_trans_conv_up_then_down_neighborhood_sums():
    # 4 fine vertices pooled into 2 coarse; identity-like params turn
    # vc_trans_conv into "copy each coarse value to its members"
    topo = ConvTopology(4, 2, np.array([0, 2, 4]), np.array([0, 1, 2, 3]), basis_count=1)
    tr = transpose_topology(topo)
    params_up = VcConvParams(
        basis=np.array([[[1.0]]]), coeffs=np.ones((tr.edge_count, 1)), bias=np.zeros(1)
    )
    coarse = np.array([[2.0], [5.0]])
    up = vc_trans_conv(params_up, topo, coarse)
    assert up.tolist() == [[2.0], [2.0], [5.0], [5.0]]
    params_down = VcConvParams(
        basis=np.array([[[1.0]]]), coeffs=np.ones((topo.edge_count, 1)), bias=np.zeros(1)
    )
    down = vc_conv(params_down, topo, up)
    assert down.tolist() == [[4.0], [10.0]]  # neighborhood sums


def test_trans_conv_zero_input_gives_bias():
    rng = np.random.default_rng(5)
    topo = random_topology(rng, 6, 3)
    tr = transpose_topology(topo)
    params = init_vc_conv(rng, tr, 2, 4)
    y = vc_trans_conv(params, topo, np.zeros((3, 2)))
    assert np.allclose(y, np.tile(params.bias, (6, 1)))


# --- vd layers -------------------------------------------------------------


def test_vd_density_normalization_hand_case():
    topo = ConvTopology(3, 1, np.array([0, 3]), np.array([0, 1, 2]), basis_count=1)
    params = VdParams(rho=np.array([2.0, -2.0, 4.0]))
    x = np.eye(3)
    y = vd_aggregate(params, topo, x)
    assert np.allclose(y, [[0.25, 0.25, 0.5]])


def test_vd_equal_rho_is_average_pooling():
    rng = np.random.default_rng(6)
    topo = random_topology(rng, 9, 4)
    params = VdParams(rho=np.full(topo.edge_count, 3.7))
    x = rng.normal(size=(9, 5))
    assert np.allclose(vd_aggregate(params, topo, x), reference_pool(topo, x, "avg"),
                       atol=1e-14)


def test_vd_preserves_constant_input():
    rng = np.random.default_rng(7)
    topo = random_topology(rng, 7, 3)
    params = VdParams(rho=rng.normal(size=topo.edge_count) + 0.1)
    c = np.full((7, 2), 3.25)
    assert np.allclose(vd_aggregate(params, topo, c), 3.25)


def test_vd_output_in_convex_hull():
    rng = np.random.default_rng(8)
    topo = random_topology(rng, 10, 5)
    params = VdParams(rho=rng.normal(size=topo.edge_count))
    if np.any([np.abs(params.rho[s:e]).sum() == 0
               for s, e in zip(topo.indptr[:-1], topo.indptr[1:])]):
        params.rho += 0.01
    x = rng.normal(size=(10, 3))
    y = vd_aggregate(params, topo, x)
    lo = np.minimum.reduceat(x[topo.indices], topo.indptr[:-1], axis=0)
    hi = np.maximum.reduceat(x[topo.indices], topo.indptr[:-1], axis=0)
    assert np.all(y >= lo - 1e-12)
    assert np.all(y <= hi + 1e-12)


def test_vd_all_zero_rho_rejected():
    topo = ConvTopology(2, 1, np.array([0, 2]), np.array([0, 1]), basis_count=1)
    with pytest.raises(NumericalError, match="all-zero"):
        vd_aggregate(VdParams(rho=np.zeros(2)), topo, np.ones((2, 1)))


def test_vd_res_identity_matrix_is_mean():
    topo = ConvTopology(4, 2, np.array([0, 2, 4]), np.array([0, 1, 2, 3]), basis_count=1)
    params = VdParams(rho=np.ones(4), matrix=None)
    x = np.array([[1.0], [3.0], [10.0], [20.0]])
    assert vd_res(params, topo, x).tolist() == [[2.0], [15.0]]


def test_vd_res_hand_example():
    topo = ConvTopology(1, 1, np.array([0, 1]), np.array([0]), basis_count=1)
    params = VdParams(rho=np.array([1.0]), matrix=np.array([[2.0]]))
    assert vd_res(params, topo, np.array([[3.0]])).tolist() == [[6.0]]


def test_vd_res_zero_input_zero_output():
    rng = np.random.default_rng(9)
    topo = random_topology(rng, 6, 3)
    params = init_vd(rng, topo, 4, 2)
    assert np.allclose(vd_res(params, topo, np.zeros((6, 4))), 0.0)


def test_vd_res_shape_mismatch():
    topo = ConvTopology(1, 1, np.array([0, 1]), np.array([0]), basis_count=1)
    params = VdParams(rho=np.array([1.0]), matrix=np.array([[2.0, 1.0]]))
    with pytest.raises(MeshError, match="matrix"):
        vd_res(params, topo, np.array([[3.0]]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=9))
def test_vd_normalization_sums_to_one(rho_list):
    rho = np.array(rho_list)
    if np.abs(rho).sum() == 0:
        rho[0] = 0.5
    topo = ConvTopology(len(rho), 1, np.array([0, len(rho)]), np.arange(len(rho)),
                        basis_count=1)
    weights = np.abs(rho) / np.abs(rho).sum()
    y = vd_aggregate(VdParams(rho=rho), topo, np.ones((len(rho), 1)))
    assert np.all(weights >= 0)
    assert abs(weights.sum() - 1.0) < 1e-12
    assert abs(float(y[0, 0]) - 1.0) < 1e-12


# --- reference pooling and activations --------------------------------------


def test_reference_pool_hand_values():
    topo = ConvTopology(2, 1, np.array([0, 2]), np.array([0, 1]), basis_count=1)
    x = np.array([[2.0], [4.0]])
    assert reference_pool(topo, x, "max").tolist() == [[4.0]]
    assert reference_pool(topo, x, "avg").tolist() == [[3.0]]


def test_reference_pool_singleton_identity():
    topo = identity_topology(3)
    x = np.array([[1.0], [-2.0], [5.0]])
    for mode in ("max", "avg"):
        assert np.array_equal(reference_pool(topo, x, mode), x)


def test_elu_values():
    assert elu(np.array([[1.0]]))[0, 0] == 1.0
    assert elu(np.array([[0.0]]))[0, 0] == 0.0
    assert elu(np.array([[-1.0]]))[0, 0] == pytest.approx(math.exp(-1) - 1, abs=1e-12)
    assert elu(np.array([[-745.0]]), alpha=1.4)[0, 0] == pytest.approx(-1.4, abs=1e-12)


def test_elu_alpha_validated():
    with pytest.raises(MeshError):
        elu(np.zeros((1, 1)), alpha=0.0)


def test_relu_values():
    x = np.array([[-2.0, 0.0, 3.0]])
    assert relu(x).tolist() == [[0.0, 0.0, 3.0]]


# --- backward: finite-difference oracle --------------------------------------


# Sample axes of the feature maps the finite-difference checks run on: the
# single (n, d) map, then a vertex-major batch (n, 3, d).
BATCHES = [(), (3,)]


def test_vc_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    # (3, 2) takes the I > O kernels; on a batch, (2, 4) takes the I <= O ones
    for batch, (i, o) in [((), (3, 2))] * 5 + [((3,), (3, 2)), ((3,), (2, 4))] * 2:
        topo = random_topology(rng, 7, 4)
        params = init_vc_conv(rng, topo, i, o)
        params.basis = rng.normal(size=params.basis.shape)
        params.coeffs = rng.normal(size=params.coeffs.shape)
        params.bias = rng.normal(size=params.bias.shape)
        x = rng.normal(size=(7, *batch, i))
        w = rng.normal(size=(4, *batch, o))
        dx, grads = vc_conv_backward(params, topo, x, w)
        worst = finite_difference(
            lambda: float((w * vc_conv(params, topo, x)).sum()),
            [x, params.basis, params.coeffs, params.bias],
            [dx, grads["basis"], grads["coeffs"], grads["bias"]],
        )
        assert worst < 1e-4


def test_vd_aggregate_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for batch in BATCHES[:1] * 5 + BATCHES[1:] * 3:
        topo = random_topology(rng, 8, 4)
        params = VdParams(rho=rng.normal(size=topo.edge_count) + 0.2)
        x = rng.normal(size=(8, *batch, 3))
        w = rng.normal(size=(4, *batch, 3))
        dx, grads = vd_aggregate_backward(params, topo, x, w)
        worst = finite_difference(
            lambda: float((w * vd_aggregate(params, topo, x)).sum()),
            [x, params.rho],
            [dx, grads["rho"]],
        )
        assert worst < 1e-4


# --- reference kernels: the per-edge-weight einsum formulas ---------------------


def _vc_conv_oracle(params, topology, x):
    contrib = np.einsum("em,mio,ei->eo", params.coeffs, params.basis, x[topology.indices])
    y = np.zeros((topology.n_out, params.basis.shape[2]))
    np.add.at(y, topology.rows(), contrib)
    return y + params.bias


def _vc_conv_backward_oracle(params, topology, x, g):
    xe, ge = x[topology.indices], g[topology.rows()]
    w_edges = np.einsum("em,mio->eio", params.coeffs, params.basis)
    d_x = np.zeros_like(x)
    np.add.at(d_x, topology.indices, np.einsum("eio,eo->ei", w_edges, ge))
    return d_x, {
        "basis": np.einsum("em,ei,eo->mio", params.coeffs, xe, ge),
        "coeffs": np.einsum("mio,ei,eo->em", params.basis, xe, ge),
        "bias": g.sum(axis=0),
    }


def _assert_matches(actual, expected):
    scale = max(float(np.abs(expected).max()), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("in_dim,out_dim,m", [
    (3, 16, 4),  # I < O: coefficients mixed in before the basis product
    (16, 3, 5),  # I > O: basis product first
    (6, 6, 3),  # I == O
    (4, 7, 1),  # a single basis matrix
    (7, 2, 1),
])
@pytest.mark.parametrize("shape", ["mixed", "degree-1"])
def test_vc_conv_matches_einsum_reference(in_dim, out_dim, m, shape):
    rng = np.random.default_rng([19, in_dim, out_dim, m])
    for _ in range(3):
        if shape == "mixed":
            topo = random_topology(rng, 30, 20, max_degree=6)
        else:  # every row one neighbor; the transpose then has rows of several
            topo = random_topology(rng, 12, 25, max_degree=1)
        _check_against_oracle(rng, topo, in_dim, out_dim, m)


def _random_params(rng, topo, in_dim, out_dim, m):
    return VcConvParams(
        basis=rng.normal(size=(m, in_dim, out_dim)),
        coeffs=rng.normal(size=(topo.edge_count, m)),
        bias=rng.normal(size=out_dim),
    )


def _check_against_oracle(rng, topo, in_dim, out_dim, m, forward=vc_conv,
                          backward=vc_conv_backward, oracle_topo=None):
    """forward/backward on topo against the einsum oracle on oracle_topo (default topo)."""
    oracle_topo = oracle_topo or topo
    params = _random_params(rng, oracle_topo, in_dim, out_dim, m)
    x = rng.normal(size=(oracle_topo.n_in, in_dim))
    g = rng.normal(size=(oracle_topo.n_out, out_dim))
    _assert_matches(forward(params, topo, x), _vc_conv_oracle(params, oracle_topo, x))
    d_x, grads = backward(params, topo, x, g)
    ref_x, ref = _vc_conv_backward_oracle(params, oracle_topo, x, g)
    _assert_matches(d_x, ref_x)
    for key in ("basis", "coeffs", "bias"):
        assert grads[key].shape == ref[key].shape
        _assert_matches(grads[key], ref[key])


@pytest.mark.parametrize("block_edges", ["1", "3", "below-longest-row"])
@pytest.mark.parametrize("in_dim,out_dim,m", [(3, 16, 4), (16, 3, 5), (6, 6, 3)],
                         ids=["I<O", "I>O", "I==O"])
@pytest.mark.parametrize("kernel", ["conv", "trans-conv"])
def test_vc_conv_matches_einsum_reference_in_small_row_blocks(
    monkeypatch, block_edges, in_dim, out_dim, m, kernel
):
    rng = np.random.default_rng([21, in_dim, out_dim, m])
    topo = random_topology(rng, 40, 30, max_degree=8)
    run_on = topo.transposed if kernel == "trans-conv" else topo
    longest = min(int(topo.sizes.max()), int(topo.transposed.sizes.max()))
    size = {"1": 1, "3": 3, "below-longest-row": longest - 1}[block_edges]
    monkeypatch.setattr(ops, "BLOCK_EDGES", size)
    for rows in ("out", "in"):  # both orientations run in several bounded blocks
        blocks = ops._blocks(run_on, rows)
        assert len(blocks) >= 5
        assert all(edge.size <= size or r1 - r0 == 1 for r0, r1, edge, _, _ in blocks)
    if kernel == "conv":
        _check_against_oracle(rng, topo, in_dim, out_dim, m)
    else:
        _check_against_oracle(rng, topo, in_dim, out_dim, m, vc_trans_conv,
                              vc_trans_conv_backward, oracle_topo=topo.transposed)


@pytest.mark.parametrize("in_dim,out_dim", [(3, 16), (16, 3)])
def test_vc_conv_repeats_byte_for_byte(in_dim, out_dim):
    rng = np.random.default_rng(24)
    topo = random_topology(rng, 50, 35, max_degree=7)
    params = _random_params(rng, topo, in_dim, out_dim, 4)
    x = rng.normal(size=(topo.n_in, in_dim))
    g = rng.normal(size=(topo.n_out, out_dim))
    first = [vc_conv(params, topo, x), *vc_conv_backward(params, topo, x, g)]
    second = [vc_conv(params, topo, x), *vc_conv_backward(params, topo, x, g)]
    for a, b in zip(first, second):
        a, b = (list(v.values()) if isinstance(v, dict) else [v] for v in (a, b))
        assert [v.tobytes() for v in a] == [v.tobytes() for v in b]


# Scratch bytes a vc_conv call may hold beyond the arrays it returns, at the
# train-deep widths on V=2562 and V=10242 heads. Per-edge scratch runs in row
# blocks, so what grows with the mesh is vertex-sized.
SCRATCH_BUDGET = 6_000_000


def _returned_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    values = value.values() if isinstance(value, dict) else value
    return sum(_returned_bytes(v) for v in values)


def _check_scratch(subdivisions, batch, budget):
    hierarchy = build_hierarchy(synth_head(1, subdivisions), (1.0, 0.25, 0.0625))
    widths = (3, 16, 32)
    layers = [(hierarchy.conv_down[k], widths[k], widths[k + 1]) for k in range(2)]
    layers += [(hierarchy.conv_up[k], widths[k + 1], widths[k]) for k in range(2)]
    rng = np.random.default_rng(25)
    for topo, in_dim, out_dim in layers:
        params = init_vc_conv(rng, topo, in_dim, out_dim)
        x = rng.normal(size=(topo.n_in, *batch, in_dim))
        g = rng.normal(size=(topo.n_out, *batch, out_dim))
        calls = ((vc_conv, (params, topo, x)), (vc_conv_backward, (params, topo, x, g)))
        for kernel, args in calls:
            kernel(*args)  # builds the topology's cached index plans
            tracemalloc.start()
            try:
                out = kernel(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            scratch = peak - _returned_bytes(out)
            assert scratch < budget, (kernel.__name__, in_dim, out_dim, scratch)


@pytest.mark.parametrize("subdivisions", [4, 5])
def test_vc_conv_scratch_memory_is_bounded(subdivisions):
    _check_scratch(subdivisions, (), SCRATCH_BUDGET)


@pytest.mark.parametrize("subdivisions", [4, 5])
def test_vc_conv_batch_scratch_memory_is_bounded(subdivisions):
    # the block and vertex arrays widen by B, and so may the scratch
    _check_scratch(subdivisions, (4,), 4 * SCRATCH_BUDGET)


def test_model_step_does_not_import_numpy_ma():
    code = (
        "import sys\n"
        "from woundfill import scars\n"
        "from woundfill.model import Architecture, Autoencoder\n"
        "mesh = scars.synth_head(1, 2)\n"
        "model = Autoencoder.build(mesh, Architecture(ratios=(1.0, 0.25), widths=(3, 16)), 0)\n"
        "y, cache = model.forward(mesh.positions, keep_cache=True)\n"
        "model.backward(cache, y - mesh.positions)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(ops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_vd_aggregate_input_gradient_matches_add_at():
    rng = np.random.default_rng(20)
    for n_in, n_out, degree in ((30, 20, 6), (12, 25, 1), (9, 4, 4)):
        topo = random_topology(rng, n_in, n_out, max_degree=degree)
        params = VdParams(rho=rng.normal(size=topo.edge_count) + 0.2)
        x = rng.normal(size=(n_in, 5))
        g = rng.normal(size=(n_out, 5))
        d_x, _ = vd_aggregate_backward(params, topo, x, g)
        absr = np.abs(params.rho)
        sums = np.zeros(n_out)
        np.add.at(sums, topo.rows(), absr)
        ref = np.zeros_like(x)
        np.add.at(ref, topo.indices, (absr / sums[topo.rows()])[:, None] * g[topo.rows()])
        _assert_matches(d_x, ref)


def test_vd_res_backward_aggregates_once(monkeypatch):
    rng = np.random.default_rng(22)
    topo = random_topology(rng, 14, 6, max_degree=5)
    params = VdParams(rho=rng.normal(size=topo.edge_count) + 0.2, matrix=rng.normal(size=(4, 3)))
    x = rng.normal(size=(14, 3))
    g = rng.normal(size=(6, 4))
    calls = []
    real = ops.vd_aggregate
    monkeypatch.setattr(ops, "vd_aggregate", lambda *args: calls.append(args) or real(*args))
    d_x, grads = vd_res_backward(params, topo, x, g)
    assert calls == []
    assert np.array_equal(grads["matrix"], g.T @ real(params, topo, x))
    ref_dx, ref = vd_aggregate_backward(params, topo, x, g @ params.matrix)
    assert np.array_equal(d_x, ref_dx)
    assert np.array_equal(grads["rho"], ref["rho"])


def test_rho_subgradient_zero_at_kink():
    topo = ConvTopology(2, 1, np.array([0, 2]), np.array([0, 1]), basis_count=1)
    params = VdParams(rho=np.array([0.0, 1.0]))
    _, grads = vd_aggregate_backward(params, topo, np.array([[1.0], [2.0]]),
                                     np.array([[1.0]]))
    assert grads["rho"][0] == 0.0


def test_backward_dispatch_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(12)
    topo = random_topology(rng, 6, 3)
    params = init_vc_conv(rng, topo, 2, 2)
    dx, grads = vc_conv_backward(params, topo, rng.normal(size=(6, 2)), np.zeros((3, 2)))
    assert not dx.any()
    assert all(not g.any() for g in grads.values())


def test_backward_identity_conv_sum_loss_gradient_is_ones():
    n, d = 5, 2
    topo = identity_topology(n)
    params = VcConvParams(basis=np.eye(d)[None], coeffs=np.ones((n, 1)), bias=np.zeros(d))
    x = np.random.default_rng(13).normal(size=(n, d))
    dx, _ = vc_conv_backward(params, topo, x, np.ones((n, d)))
    assert np.allclose(dx, 1.0)


def test_backward_rejects_nonfinite_upstream():
    rng = np.random.default_rng(14)
    topo = random_topology(rng, 5, 3)
    params = init_vc_conv(rng, topo, 2, 2)
    g = np.zeros((3, 2))
    g[0, 0] = np.nan
    with pytest.raises(NumericalError, match="upstream"):
        vc_conv_backward(params, topo, np.zeros((5, 2)), g)


def test_elu_backward_matches_finite_differences():
    rng = np.random.default_rng(15)
    for batch in BATCHES:
        x = rng.normal(size=(6, *batch, 3))
        w = rng.normal(size=(6, *batch, 3))
        dx = elu_backward(x, w, alpha=1.3)
        worst = finite_difference(lambda: float((w * elu(x, 1.3)).sum()), [x], [dx])
        assert worst < 1e-4


@pytest.mark.parametrize("op", ["vc_trans_conv", "vd_res", "vd_res-identity", "relu"])
def test_batch_gradients_match_finite_differences(op):
    # the ops without a check of their own above, on a (n, 3, d) batch
    rng = np.random.default_rng([26, len(op)])
    topo = random_topology(rng, 8, 5)
    i, o = 3, 4
    if op == "vc_trans_conv":
        params = _random_params(rng, topo.transposed, i, o, topo.basis_count)
        x, w = rng.normal(size=(5, 3, i)), rng.normal(size=(8, 3, o))
        dx, grads = vc_trans_conv_backward(params, topo, x, w)
        arrays = [x, params.basis, params.coeffs, params.bias]
        worst = finite_difference(lambda: float((w * vc_trans_conv(params, topo, x)).sum()),
                                  arrays, [dx, grads["basis"], grads["coeffs"], grads["bias"]])
    elif op.startswith("vd_res"):
        matrix = None if op.endswith("identity") else rng.normal(size=(o, i))
        params = VdParams(rho=rng.normal(size=topo.edge_count) + 0.2, matrix=matrix)
        x, w = rng.normal(size=(8, 3, i)), rng.normal(size=(5, 3, i if matrix is None else o))
        dx, grads = vd_res_backward(params, topo, x, w)
        arrays, analytic = [x, params.rho], [dx, grads["rho"]]
        if matrix is not None:
            arrays, analytic = arrays + [matrix], analytic + [grads["matrix"]]
        worst = finite_difference(lambda: float((w * vd_res(params, topo, x)).sum()),
                                  arrays, analytic)
    else:
        x = rng.normal(size=(6, 3, 2))
        x[np.abs(x) < 1e-3] = 0.5  # keep central differences off the kink
        w = rng.normal(size=x.shape)
        worst = finite_difference(lambda: float((w * relu(x)).sum()), [x],
                                  [relu_backward(x, w)])
    assert worst < 1e-4


def _batch_cases(rng):
    """(topology, cases): per op, (name, forward(x), backward(x, g) or None, output width)
    on 3-wide input features."""
    topo = random_topology(rng, 9, 5)
    conv = _random_params(rng, topo, 3, 4, 2)
    trans = _random_params(rng, topo.transposed, 3, 4, 2)
    vd = VdParams(rho=rng.normal(size=topo.edge_count) + 0.2)
    res = VdParams(rho=vd.rho, matrix=rng.normal(size=(4, 3)))
    fwd_bwd = [
        ("vc_conv", partial(vc_conv, conv, topo), partial(vc_conv_backward, conv, topo), 4),
        ("vc_trans_conv", partial(vc_trans_conv, trans, topo.transposed),
         partial(vc_trans_conv_backward, trans, topo.transposed), 4),
        ("vd_aggregate", partial(vd_aggregate, vd, topo),
         partial(vd_aggregate_backward, vd, topo), 3),
        ("vd_res", partial(vd_res, res, topo), partial(vd_res_backward, res, topo), 4),
        ("reference_pool", lambda x: reference_pool(topo, x, "max"), None, 3),
    ]
    return topo, fwd_bwd


def test_batch_runs_each_sample_as_its_own_map():
    rng = np.random.default_rng(27)
    topo, cases = _batch_cases(rng)
    x = rng.normal(size=(topo.n_in, 4, 3))
    for name, forward, backward, out_dim in cases:
        y = forward(x)
        assert y.shape == (topo.n_out, 4, out_dim), name
        for b in range(4):
            _assert_matches(y[:, b], forward(x[:, b]))
        if backward is None:
            continue
        g = rng.normal(size=y.shape)
        d_x, grads = backward(x, g)
        per_sample = [backward(x[:, b], g[:, b]) for b in range(4)]
        _assert_matches(d_x, np.stack([d for d, _ in per_sample], axis=1))
        for key, value in grads.items():  # parameter gradients sum over the samples
            _assert_matches(value, sum(p[key] for _, p in per_sample))


def test_batch_shapes_are_checked():
    rng = np.random.default_rng(28)
    topo, cases = _batch_cases(rng)
    x = rng.normal(size=(topo.n_in, 2, 3))
    for name, forward, backward, out_dim in cases:
        forward(x)
        with pytest.raises(MeshError, match="feature map"):
            forward(x[:, :, None])  # (n, B, 1, d): 4-d
        if backward is None:
            continue
        for bad in ((topo.n_out, 3, out_dim), (topo.n_out, out_dim), (topo.n_out, 2, 7)):
            with pytest.raises(MeshError, match="gradient"):
                backward(x, np.zeros(bad))
    for act_backward in (elu_backward, relu_backward):
        with pytest.raises(MeshError, match="gradient"):
            act_backward(x, np.zeros((topo.n_in, 3, 3)))


# --- init ---------------------------------------------------------------------


def test_init_vd_starts_as_average_pooling():
    rng = np.random.default_rng(16)
    topo = random_topology(rng, 9, 4)
    params = init_vd(rng, topo, 3, 3)
    x = rng.normal(size=(9, 3))
    assert params.matrix is None
    assert np.allclose(vd_aggregate(params, topo, x), reference_pool(topo, x, "avg"),
                       atol=1e-14)


def test_init_deterministic_per_seed():
    rng_a = np.random.default_rng(17)
    rng_b = np.random.default_rng(17)
    topo = random_topology(np.random.default_rng(0), 8, 4)
    a = init_vc_conv(rng_a, topo, 3, 5)
    b = init_vc_conv(rng_b, topo, 3, 5)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(a.bias, b.bias)


def test_init_bounds():
    rng = np.random.default_rng(18)
    topo = random_topology(rng, 20, 10)
    m = topo.basis_count
    params = init_vc_conv(rng, topo, 4, 3)
    assert np.abs(params.basis).max() <= np.sqrt(1 / (m * 4))
    assert np.abs(params.coeffs).max() <= np.sqrt(1 / m)
    assert not params.bias.any()
    vd = init_vd(rng, topo, 4, 3)
    assert np.all(vd.rho == 1.0)
    assert np.abs(vd.matrix).max() <= np.sqrt(1 / 4)
