"""Forward evaluation and exact reverse-mode gradients for the operator family.

Every operator takes one feature map (n, d) or a vertex-major batch (n, B, d)
of B maps on the same topology, and returns the same layout. A (n, d) map
runs as the batch of one through a reshape. With the batch axis between the
vertex and feature axes, a vertex's B*d values are one contiguous row, so
every gather is a row gather over B*d columns, and a parameter gradient sums
over the samples inside the products that form it: the row-block matmuls
contract over B*I (or B*O) columns, the basis, bias and residual-matrix
gradients over n*B rows, and the density gradient over B*d columns.

Each operator reads a ConvTopology in CSR form. vc_conv never builds the
per-edge weights W_e = sum_k a_ek B_k, and its BLAS products run on vertex
rows. When I <= O, each output row r sums z_r = sum_e x_e a_e^T over its edges
and y = z B; the backward pass takes d_B = z^T g, and d_a and the per-edge
rows of d_x from p = g B^T. Otherwise t = x B per input vertex, each input row
mixes t_j with its edges' coefficients, and the backward pass sums
w_j = sum_e g_e a_e^T over each input row, so that d_x = w B^T and d_B = x^T w.

Per-edge work runs in blocks of whole CSR rows, padded to the block's longest
row, at most BLOCK_EDGES entries each, and contracted by batched matmuls, so
the scratch a call holds is bounded by the block and the vertex-sized arrays,
not by the edge count; both grow with B*d. Per-edge rows needed in the other
orientation are summed there left to right, over the same kind of padded
blocks. Each topology builds its block index plans once. Forward passes and
gradients are bit-reproducible for a given numpy/BLAS build, thread count and
batch size.

Operators:
  vc_conv        y_i = sum_j (sum_k a_ijk B_k)^T x_ij + b
  vc_trans_conv  same math on the transposed topology (up-sampling)
  vd_aggregate   y_i = sum_j r'_ij x_ij with r' = |r| normalized per row
  vd_res         y_i = sum_j r'_ij C x_ij (C optional, identity when absent)
  reference_pool componentwise max / mean over each neighborhood
  elu / relu     activations
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshError, NumericalError
from .hierarchy import ConvTopology

__all__ = [
    "VcConvParams",
    "VdParams",
    "elu",
    "elu_backward",
    "init_vc_conv",
    "init_vd",
    "reference_pool",
    "relu",
    "relu_backward",
    "vc_conv",
    "vc_conv_backward",
    "vc_trans_conv",
    "vc_trans_conv_backward",
    "vd_aggregate",
    "vd_aggregate_backward",
    "vd_res",
    "vd_res_backward",
]


@dataclass
class VcConvParams:
    """Learned state of one vc convolution.

    basis: (M, I, O) shared kernel basis.
    coeffs: (edge_count, M) per-edge mixing coefficients, in CSR edge order
        of the topology the layer runs on.
    bias: (O,).
    """

    basis: np.ndarray
    coeffs: np.ndarray
    bias: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def out_dim(self) -> int:
        return self.basis.shape[2]


@dataclass
class VdParams:
    """Learned state of a density layer: raw per-edge coefficients, optional matrix.

    rho: (edge_count,) raw density coefficients.
    matrix: (O, I) or None; None means identity (requires I == O).
    """

    rho: np.ndarray
    matrix: np.ndarray | None = None


def _check_features(x: np.ndarray, dim: int | None, topology: ConvTopology) -> np.ndarray:
    """x as float64, checked to be a (n_in, d) map or a (n_in, B, d) batch of finite values."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise MeshError(f"feature map must be (n, d) or a batch (n, B, d), got shape {x.shape}")
    if x.shape[0] != topology.n_in:
        raise MeshError(f"feature map has {x.shape[0]} rows, topology expects {topology.n_in}")
    if dim is not None and x.shape[-1] != dim:
        raise MeshError(f"feature dimension {x.shape[-1]} != layer input dimension {dim}")
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite values in input feature map")
    return x


def _check_grad(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.shape != shape:
        raise MeshError(f"upstream gradient has shape {g.shape}, expected {shape}")
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite upstream gradient")
    return g


def _out_shape(x: np.ndarray, n: int, d: int) -> tuple[int, ...]:
    """Shape of an n-vertex, d-feature result in x's layout: (n, d) or (n, B, d)."""
    return (n, *x.shape[1:-1], d)


def _vertex_rows(a: np.ndarray) -> np.ndarray:
    """a as (n, B*d): each vertex's samples and features in one row."""
    return a.reshape(a.shape[0], int(np.prod(a.shape[1:])))


def _sample_rows(a: np.ndarray) -> np.ndarray:
    """a as (n*B, d): one row per vertex and sample."""
    return a.reshape(int(np.prod(a.shape[:-1])), a.shape[-1])


def _segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row sums over CSR segments, summed left to right within each segment."""
    out = np.add.reduceat(values, indptr[:-1], axis=0)
    empty = indptr[:-1] == indptr[1:]
    if empty.any():  # reduceat misreads zero-length segments; topologies forbid them anyway
        out[empty] = 0.0
    return out


# --- vcConv / vcTransConv ------------------------------------------------

# Padded entries per row block of the per-edge kernels: a block takes whole CSR
# rows while (rows x its longest row) stays within this, and a longer row runs
# alone. Model fwd+bwd time was flat from 1024 to 4096 on V=2562 and V=10242
# heads and slower at 512 and 8192 (2 vCPUs, OpenBLAS); smaller blocks hold
# less scratch.
BLOCK_EDGES = 1024


def _row_blocks(indptr: np.ndarray, targets: np.ndarray, sentinel: int,
                edges: np.ndarray | None = None) -> list[tuple]:
    """Blocks of whole CSR rows padded to their longest row, each BLOCK_EDGES entries or one row.

    One (r0, r1, edge, target, kept) per block of rows r0..r1-1. edge[r, d]
    is the edge id of row r's d-th entry (its CSR position, mapped through
    `edges` when given); past the row's end it repeats some edge of the
    block. target is targets at those positions, with `sentinel` at the
    padding, so a gather from an array whose row `sentinel` is zero adds
    nothing there. kept lists the real entries of the flattened
    (rows, width) grid, in CSR order.
    """
    blocks = []
    sizes = np.diff(indptr)
    r0 = 0
    while r0 < len(sizes):
        width = np.maximum.accumulate(sizes[r0:r0 + BLOCK_EDGES])
        fits = np.count_nonzero(width * np.arange(1, len(width) + 1) <= BLOCK_EDGES)
        r1 = r0 + max(int(fits), 1)
        start = indptr[r0:r1, None]
        step = np.arange(int(width[r1 - r0 - 1]))
        real = step < sizes[r0:r1, None]
        slot = np.minimum(start + step, indptr[r1] - 1)
        edge = slot if edges is None else edges[slot]
        target = np.where(real, targets[slot], sentinel)
        blocks.append((r0, r1, edge, target, np.flatnonzero(real)))
        r0 = r1
    return blocks


def _blocks(topology: ConvTopology, rows: str) -> list[tuple]:
    """_row_blocks over the output rows ("out") or the input rows ("in") of a topology.

    A block's target is the feature row across each edge: the input vertex
    (sentinel n_in) over output rows, the output vertex (sentinel n_out) over
    input rows. Its edge ids index the topology's coeffs either way. Built
    once per topology and BLOCK_EDGES.
    """
    key = ("blocks", rows, BLOCK_EDGES)
    if key not in topology.memo:
        if rows == "out":
            args = (topology.indptr, topology.indices, topology.n_in)
        else:
            perm, t_indptr = topology.transpose_order
            args = (t_indptr, topology.transposed.indices, topology.n_out, perm)
        topology.memo[key] = _row_blocks(*args)
    return topology.memo[key]


def _row_sums(per_edge: np.ndarray, topology: ConvTopology, rows: str) -> np.ndarray:
    """Sums over the output rows ("out") or input rows ("in") of per-edge rows.

    per_edge is stored in the other orientation's edge order (transposed
    order for "out", CSR order for "in") and ends in one zero row. Each sum
    runs left to right along its row.
    """
    key = ("sums", rows, BLOCK_EDGES)
    if key not in topology.memo:
        perm, t_indptr = topology.transpose_order
        if rows == "out":  # the transpose's transpose order: each edge's transposed position
            args = (topology.indptr, topology.transposed.transpose_order[0], topology.edge_count)
        else:
            args = (t_indptr, perm, topology.edge_count)
        topology.memo[key] = [
            (r0, r1, np.ascontiguousarray(pos.T)) for r0, r1, _, pos, _ in _row_blocks(*args)
        ]
    n = topology.n_out if rows == "out" else topology.n_in
    out = np.empty((n, per_edge.shape[1]))
    for r0, r1, pos in topology.memo[key]:
        np.sum(np.take(per_edge, pos, axis=0), axis=0, out=out[r0:r1])
    return out


def _zero_row(a: np.ndarray) -> np.ndarray:
    """a with one zero row appended: the gather target of the padding in _row_blocks."""
    out = np.zeros((len(a) + 1,) + a.shape[1:])
    out[:-1] = a
    return out


def _check_coeffs(params: VcConvParams, topology: ConvTopology) -> None:
    m = params.basis.shape[0]
    if params.coeffs.shape != (topology.edge_count, m):
        raise MeshError(
            f"coeffs shape {params.coeffs.shape} does not match "
            f"(edges={topology.edge_count}, M={m})"
        )


def _vertex_products(x: np.ndarray, params: VcConvParams) -> np.ndarray:
    """t_j = (x_j^T B_k)_k of every input vertex j, as (n_in, M, B*O): row k holds x_jb^T B_k
    for each sample b in turn."""
    m, i, o = params.basis.shape
    t = _sample_rows(x) @ params.basis.transpose(1, 0, 2).reshape(i, m * o)
    return t.reshape(len(x), -1, m, o).transpose(0, 2, 1, 3).reshape(len(x), m, -1)


def vc_conv(params: VcConvParams, topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    x = _check_features(x, params.in_dim, topology)
    _check_coeffs(params, topology)
    m, i, o = params.basis.shape
    c = params.coeffs
    if i <= o:
        # per output row r: z_r = sum of x_e c_e^T over its edges (B*I rows), then y = z B
        xs = _zero_row(_vertex_rows(x))
        z = np.empty((topology.n_out, xs.shape[1], m))
        for r0, r1, edge, src, _ in _blocks(topology, "out"):
            xe = np.take(xs, src, axis=0)
            np.matmul(xe.transpose(0, 2, 1), np.take(c, edge, axis=0), out=z[r0:r1])
        y = z.reshape(-1, i * m) @ params.basis.transpose(1, 0, 2).reshape(i * m, o)
    else:
        # per input row j: t_j = (x_j^T B_k)_k, then each edge's c_e^T t_j in
        # transposed edge order, summed over the output rows
        t_indptr = topology.transpose_order[1]
        t = _vertex_products(x, params)
        contrib = np.zeros((topology.edge_count + 1, t.shape[2]))
        for j0, j1, edge, _, kept in _blocks(topology, "in"):
            per_row = np.take(c, edge, axis=0) @ t[j0:j1]
            np.take(per_row.reshape(-1, t.shape[2]), kept, axis=0,
                    out=contrib[t_indptr[j0]:t_indptr[j1]])
        y = _row_sums(contrib, topology, "out")
    y = y.reshape(_out_shape(x, topology.n_out, o))
    y += params.bias
    return y


def vc_conv_backward(
    params: VcConvParams, topology: ConvTopology, x: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(d_x, parameter gradients); on a batch, each parameter gradient sums over the samples."""
    x = _check_features(x, params.in_dim, topology)
    _check_coeffs(params, topology)
    m, i, o = params.basis.shape
    g = _check_grad(grad_out, _out_shape(x, topology.n_out, o))
    c = params.coeffs
    d_coeffs = np.empty(c.shape)
    if i <= o:
        indptr = topology.indptr
        by_input = params.basis.transpose(1, 0, 2).reshape(i * m, o)
        # p[r][b*I + :, k] = B_k g_rb: contracting over its B*I rows sums the samples
        p = (_sample_rows(g) @ by_input.T).reshape(topology.n_out, -1, m)
        xs = _zero_row(_vertex_rows(x))
        z = np.empty(p.shape)
        d_xe = np.zeros((topology.edge_count + 1, xs.shape[1]))
        for r0, r1, edge, src, kept in _blocks(topology, "out"):
            s, e = indptr[r0], indptr[r1]
            xe, ce, pr = np.take(xs, src, axis=0), np.take(c, edge, axis=0), p[r0:r1]
            np.matmul(xe.transpose(0, 2, 1), ce, out=z[r0:r1])
            np.take((xe @ pr).reshape(-1, m), kept, axis=0, out=d_coeffs[s:e])
            np.take((ce @ pr.transpose(0, 2, 1)).reshape(-1, xs.shape[1]), kept, axis=0,
                    out=d_xe[s:e])
        d_basis = (z.reshape(-1, i * m).T @ _sample_rows(g)).reshape(i, m, o).transpose(1, 0, 2)
        d_x = _row_sums(d_xe, topology, "in")
    else:
        # per input row j: w_j = sum of g_r c_e^T over its edges, then d_x = w B^T, d_B = x^T w
        perm, t_indptr = topology.transpose_order
        t = _vertex_products(x, params)
        gs = _zero_row(_vertex_rows(g))
        w = np.empty((topology.n_in, gs.shape[1], m))
        for j0, j1, edge, dst, kept in _blocks(topology, "in"):
            ge, ce = np.take(gs, dst, axis=0), np.take(c, edge, axis=0)
            np.matmul(ge.transpose(0, 2, 1), ce, out=w[j0:j1])
            per_row = (ge @ t[j0:j1].transpose(0, 2, 1)).reshape(-1, m)
            d_coeffs[perm[t_indptr[j0]:t_indptr[j1]]] = np.take(per_row, kept, axis=0)
        w = w.reshape(-1, o * m)
        d_x = w @ params.basis.transpose(2, 0, 1).reshape(o * m, i)
        d_basis = (_sample_rows(x).T @ w).reshape(i, o, m).transpose(2, 0, 1)
    return d_x.reshape(x.shape), {
        "basis": np.ascontiguousarray(d_basis), "coeffs": d_coeffs,
        "bias": _sample_rows(g).sum(axis=0),
    }


def vc_trans_conv(params: VcConvParams, topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    """vc_conv evaluated on the transposed topology; coeffs use its edge order."""
    return vc_conv(params, topology.transposed, x)


def vc_trans_conv_backward(params, topology, x, grad_out):
    return vc_conv_backward(params, topology.transposed, x, grad_out)


# --- vdPool / vdUnpool / vdRes -------------------------------------------


def _scatter_to_inputs(values: np.ndarray, topology: ConvTopology) -> np.ndarray:
    """Per-input sums of per-edge rows, in ascending edge order, over the cached transpose."""
    perm, indptr = topology.transpose_order
    return _segment_sums(values[perm], indptr)


def _normalized_rho(
    params: VdParams, topology: ConvTopology, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(|rho| / row sum per edge, row sums); rows is topology.rows()."""
    rho = np.asarray(params.rho, dtype=np.float64)
    if rho.shape != (topology.edge_count,):
        raise MeshError(f"rho shape {rho.shape} != (edges={topology.edge_count},)")
    absr = np.abs(rho)
    sums = _segment_sums(absr, topology.indptr)
    if (sums <= 0).any():
        raise NumericalError(
            f"all-zero density coefficients in neighborhood {int(np.argmin(sums))}"
        )
    return absr / sums[rows], sums


def _aggregate(params: VdParams, topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    weights, _ = _normalized_rho(params, topology, topology.rows())
    xe = _vertex_rows(x)[topology.indices]
    xe *= weights[:, None]  # in the gathered copy: per-edge arrays are B*d wide
    y = _segment_sums(xe, topology.indptr)
    return y.reshape(_out_shape(x, topology.n_out, x.shape[-1]))


def vd_aggregate(params: VdParams, topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    """Density-weighted pooling (vdPool when down, vdUnpool on the transpose)."""
    return _aggregate(params, topology, _check_features(x, None, topology))


def _vd_aggregate_grads(params, topology, x, g):
    """(y, d_x, grads) of vd_aggregate on checked x and g: its output y alongside the gradients.

    Vertex rows hold B*d columns, so d_rho sums over the samples.
    """
    rows = topology.rows()
    weights, sums = _normalized_rho(params, topology, rows)
    xe = _vertex_rows(x)[topology.indices]
    y = _segment_sums(weights[:, None] * xe, topology.indptr)
    ge = _vertex_rows(g)[rows]
    # d y_i / d |rho_e| = (x_e - y_i) / S_i; chain with sign(rho), subgradient 0 at 0.
    # The gathered copies xe and ge are updated in place, as in _aggregate.
    xe -= y[rows]
    d_abs = np.einsum("ei,ei->e", ge, xe) / sums[rows]
    d_rho = np.sign(params.rho) * d_abs
    ge *= weights[:, None]
    d_x = _scatter_to_inputs(ge, topology).reshape(x.shape)
    return y.reshape(g.shape), d_x, {"rho": d_rho}


def vd_aggregate_backward(params, topology, x, grad_out):
    x = _check_features(x, None, topology)
    g = _check_grad(grad_out, _out_shape(x, topology.n_out, x.shape[-1]))
    _, d_x, grads = _vd_aggregate_grads(params, topology, x, g)
    return d_x, grads


def _check_matrix(params: VdParams, x: np.ndarray) -> None:
    if params.matrix is not None and params.matrix.shape[1] != x.shape[-1]:
        raise MeshError(
            f"residual matrix shape {params.matrix.shape} does not accept "
            f"{x.shape[-1]}-d features"
        )


def _map_features(a: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """a's feature axis multiplied by matrix (d, d'): one product over all n*B rows."""
    return (_sample_rows(a) @ matrix).reshape(*a.shape[:-1], matrix.shape[1])


def vd_res(params: VdParams, topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    """Residual layer: density-weighted pooling followed by the shared map C."""
    x = _check_features(x, None, topology)
    _check_matrix(params, x)
    agg = _aggregate(params, topology, x)
    return agg if params.matrix is None else _map_features(agg, params.matrix.T)


def vd_res_backward(params, topology, x, grad_out):
    """(d_x, grads); on a batch, the rho and matrix gradients sum over the samples."""
    if params.matrix is None:
        return vd_aggregate_backward(params, topology, x, grad_out)
    x = _check_features(x, None, topology)
    _check_matrix(params, x)
    g = _check_grad(grad_out, _out_shape(x, topology.n_out, params.matrix.shape[0]))
    agg, d_x, grads = _vd_aggregate_grads(params, topology, x, _map_features(g, params.matrix))
    grads["matrix"] = _sample_rows(g).T @ _sample_rows(agg)
    return d_x, grads


# --- reference pooling and activations ------------------------------------


def reference_pool(topology: ConvTopology, x: np.ndarray, mode: str) -> np.ndarray:
    """Plain max or average pooling over each neighborhood."""
    x = _check_features(x, None, topology)
    xe = _vertex_rows(x)[topology.indices]
    if mode == "max":
        y = np.maximum.reduceat(xe, topology.indptr[:-1], axis=0)
    elif mode == "avg":
        y = _segment_sums(xe, topology.indptr) / topology.sizes[:, None]
    else:
        raise MeshError(f"unknown pooling mode {mode!r}")
    return y.reshape(_out_shape(x, topology.n_out, x.shape[-1]))


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    if alpha <= 0:
        raise MeshError(f"elu alpha must be > 0, got {alpha}")
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, alpha * np.expm1(np.minimum(x, 0.0)))


def elu_backward(x: np.ndarray, grad_out: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    g = _check_grad(grad_out, np.shape(x))
    return g * np.where(x > 0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    g = _check_grad(grad_out, np.shape(x))
    return g * (np.asarray(x) > 0)


# --- init and dispatch -----------------------------------------------------


def init_vc_conv(
    rng: np.random.Generator, topology: ConvTopology, in_dim: int, out_dim: int
) -> VcConvParams:
    """Uniform init: basis in +-sqrt(1/(M*I)), coeffs in +-sqrt(1/M), zero bias."""
    m = topology.basis_count
    b_lim = np.sqrt(1.0 / (m * in_dim))
    a_lim = np.sqrt(1.0 / m)
    return VcConvParams(
        basis=rng.uniform(-b_lim, b_lim, size=(m, in_dim, out_dim)),
        coeffs=rng.uniform(-a_lim, a_lim, size=(topology.edge_count, m)),
        bias=np.zeros(out_dim),
    )


def init_vd(
    rng: np.random.Generator, topology: ConvTopology, in_dim: int, out_dim: int
) -> VdParams:
    """rho = 1 (exact average pooling at start); C identity when square, else uniform."""
    rho = np.ones(topology.edge_count)
    if in_dim == out_dim:
        return VdParams(rho=rho, matrix=None)
    lim = np.sqrt(1.0 / in_dim)
    return VdParams(rho=rho, matrix=rng.uniform(-lim, lim, size=(out_dim, in_dim)))
