"""Forward evaluation and exact reverse-mode gradients for the operator family.

Every operator takes one feature map (n, d) or a vertex-major batch (n, B, d)
of B maps on the same topology, and returns the same layout. A (n, d) map
runs as the batch of one through a reshape. With the batch axis between the
vertex and feature axes, a vertex's B*d values are one contiguous row, so
every gather is a row gather over B*d columns, and a parameter gradient sums
over the samples inside the products that form it: the row-block matmuls
of the coefficient and density gradients contract over B*I (or B*O)
columns, and the basis, bias and residual-matrix gradients over n*B rows.

Each operator reads a ConvTopology in CSR form. vc_conv never builds the
per-edge weights W_e = sum_k a_ek B_k: its per-edge work runs over the rows r
of one side (output or input rows) and the edges e of each row:
  _contract       sum_e f_e^T a_e per row: z from x on output rows (I <= O; then
                  y = z B, d_B = z^T g), w from g on input rows (I > O backward;
                  then d_x = w B^T, d_B = x^T w)
  _edge_products  g_e^T t_j on input rows, which is d_a (I > O backward)
  _spread         a_e t_j on input rows summed over the output rows: y (I > O)
  _output_row_backward
                  the I <= O backward's one pass over output rows: each block
                  forms its own rows of p = g B^T, then d_a = x_e^T p_r and,
                  when d_x is asked for, the per-edge rows a_e p_r^T, which are
                  summed over the input rows after the pass
Passes run in blocks of whole CSR rows, padded to the block's longest row, at
most BLOCK_EDGES entries each, so the scratch a call holds is bounded by the
block, the vertex-sized arrays and the per-edge rows it writes (d_a, and the
per-edge rows that _spread and _output_row_backward sum), not by a product
over all the edges; all grow with B*d.
A pass writes whole blocks at their edge ids, the padding into one scratch row
at index edge_count. Each topology builds its block plans once. Forward passes
and gradients are bit-reproducible per numpy/BLAS build, thread count, B and
BLOCK_EDGES: the blocks fix the order of the row sums and the row count of
each block's p product, which BLAS may round with another kernel when it is
small (OpenBLAS 0.3.31 runs a one-row product through gemv).

The density layers are vc convolutions with one basis matrix (M = 1): the
coefficients are the normalized densities r', the basis is C^T, or the
identity when the layer has no matrix, and the bias is zero. They run on the
same kernels; the rho gradient maps the coefficient gradient back through
the normalization.

Each operator is one forward/backward pair. vc_conv and vd_res return
(y, saved), where saved holds what the backward reuses: the checked input x,
the product z or t, and for a density layer its one-basis form and row sums.
Every array of saved but x is read-only, so a backward that wrote into one
would raise at once; x is the caller's array when it was float64 already.
vc_conv_backward and vd_res_backward take saved and the upstream gradient,
and form d_x only when input_grad is true (a model's first block does not
need it). At V=2562, widths 3/16/32 and B = 4 the saved products of a
model's forward come to 4.2 MiB. Each operator checks its own input, each
backward its own upstream gradient, for shape and finiteness; a backward also
checks the saved input and its layer's coefficients against its topology.

Operators:
  vc_conv        y_i = sum_j (sum_k a_ijk B_k)^T x_ij + b; vcTransConv is vc_conv
                 on topology.transposed (up-sampling)
  vd_res         y_i = sum_j r'_ij C x_ij with r' = |r| normalized per row;
                 vdPool / vdUnpool are vd_res without a matrix (C the identity)
                 on a pool topology / its transpose
  elu            the model's activation, alpha = 1
"""

from __future__ import annotations

import math
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
    "vc_conv",
    "vc_conv_backward",
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
    return a.reshape(a.shape[0], math.prod(a.shape[1:]))


def _sample_rows(a: np.ndarray) -> np.ndarray:
    """a as (n*B, d): one row per vertex and sample."""
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


def _segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row sums over CSR segments by np.add.reduceat: deterministic per numpy build, not
    left to right within a segment. It misreads zero-length segments, which ConvTopology
    rejects."""
    return np.add.reduceat(values, indptr[:-1], axis=0)


# --- vcConv / vcTransConv ------------------------------------------------

# Padded entries per row block of the per-edge kernels: a block takes whole CSR
# rows while (rows x its longest row) stays within this, and a longer row runs
# alone. Model fwd+bwd time was flat from 1024 to 4096 on V=2562 and V=10242
# heads and slower at 512 and 8192 (2 vCPUs, OpenBLAS); smaller blocks hold
# less scratch.
BLOCK_EDGES = 1024


def _row_blocks(indptr: np.ndarray, targets: np.ndarray, sentinel: int) -> list[tuple]:
    """Blocks of whole CSR rows padded to their longest row, each BLOCK_EDGES entries or one row.

    One (r0, r1, edge, target) per block of rows r0..r1-1. edge[r, d] is the
    edge id (CSR position) of row r's d-th entry, and edge_count past the
    row's end. target is targets at those positions, with `sentinel` at the
    padding, so a gather from an array whose row `sentinel` is zero adds
    nothing there.
    """
    count = int(indptr[-1])
    targets = np.append(targets, sentinel)
    blocks = []
    sizes = np.diff(indptr)
    r0 = 0
    while r0 < len(sizes):
        width = np.maximum.accumulate(sizes[r0:r0 + BLOCK_EDGES])
        fits = np.count_nonzero(width * np.arange(1, len(width) + 1) <= BLOCK_EDGES)
        r1 = r0 + max(int(fits), 1)
        step = np.arange(int(width[r1 - r0 - 1]))
        slot = np.where(step < sizes[r0:r1, None], indptr[r0:r1, None] + step, count)
        blocks.append((r0, r1, slot, targets[slot]))
        r0 = r1
    return blocks


def _blocks(topology: ConvTopology, rows: str) -> list[tuple]:
    """_row_blocks over the output rows ("out") or the input rows ("in") of a topology.

    A block's target is the feature row across each edge: the input vertex
    (sentinel n_in) over output rows, the output vertex (sentinel n_out) over
    input rows, which are the transpose's output rows and take its blocks with
    this topology's edge ids. Edge ids index the coeffs (clipped at the
    padding) and per-edge arrays. Built once per topology and BLOCK_EDGES.
    """
    key = ("blocks", rows, BLOCK_EDGES)
    if key not in topology.memo:
        if rows == "out":
            plans = _row_blocks(topology.indptr, topology.indices, topology.n_in)
        else:
            ids = np.append(topology.transpose_order[0], topology.edge_count)
            plans = [(r0, r1, ids[edge], target)
                     for r0, r1, edge, target in _blocks(topology.transposed, "out")]
        topology.memo[key] = plans
    return topology.memo[key]


def _row_sums(per_edge: np.ndarray, topology: ConvTopology, rows: str) -> np.ndarray:
    """Sums of per-edge rows over the output rows ("out") or input rows ("in").

    per_edge is indexed by edge id and ends in one zero row, the padding's
    gather target. Each sum runs left to right along its row of the block
    the kernels gather with, except that with one column a one-row block is
    summed by numpy's pairwise sum.
    """
    n = topology.n_out if rows == "out" else topology.n_in
    out = np.empty((n, per_edge.shape[1]))
    for r0, r1, edge, _ in _blocks(topology, rows):
        np.sum(np.take(per_edge, edge.T, axis=0), axis=0, out=out[r0:r1])
    return out


def _contract(f: np.ndarray, c: np.ndarray, topology: ConvTopology, rows: str) -> np.ndarray:
    """Per row r, sum_e f_e^T c_e over its edges, as (n, D, M); f ends in a zero row."""
    n = topology.n_out if rows == "out" else topology.n_in
    out = np.empty((n, f.shape[1], c.shape[1]))
    for r0, r1, edge, target in _blocks(topology, rows):
        np.matmul(np.take(f, target, axis=0).transpose(0, 2, 1),
                  np.take(c, edge, axis=0, mode="clip"), out=out[r0:r1])
    return out


def _edge_products(f: np.ndarray, q: np.ndarray, topology: ConvTopology) -> np.ndarray:
    """f_e^T q_j for each edge e of each input row j, as (edge_count, M); q is (n_in, D, M)."""
    out = np.empty((topology.edge_count + 1, q.shape[2]))
    for r0, r1, edge, target in _blocks(topology, "in"):
        out[edge.ravel()] = (np.take(f, target, axis=0) @ q[r0:r1]).reshape(-1, q.shape[2])
    return out[:-1]


def _spread(q: np.ndarray, c: np.ndarray, topology: ConvTopology) -> np.ndarray:
    """c_e q_j for each edge e of each input row j, summed over the output rows; q is
    (n_in, M, D)."""
    per_edge = np.empty((topology.edge_count + 1, q.shape[2]))
    for r0, r1, edge, _ in _blocks(topology, "in"):
        products = np.take(c, edge, axis=0, mode="clip") @ q[r0:r1]
        per_edge[edge.ravel()] = products.reshape(-1, q.shape[2])
    per_edge[-1] = 0.0
    return _row_sums(per_edge, topology, "out")


def _output_row_backward(params: VcConvParams, topology: ConvTopology, x: np.ndarray,
                         g: np.ndarray, input_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(d_coeffs, d_x or None) of the I <= O backward, in one pass over the output rows.

    Each block of output rows r forms its own p_r, whose row b*I + i holds
    (B_k g_rb)_i for each k, so contracting over its B*I rows sums the samples.
    It writes d_a_e = x_e^T p_r for each edge e of its rows and, when
    input_grad, the per-edge d_x rows a_e p_r^T, which are then summed over the
    input rows. p is never held for more than one block.
    """
    m, i, o = params.basis.shape
    by_input = params.basis.transpose(1, 0, 2).reshape(i * m, o)
    xs, gs = _zero_row(_vertex_rows(x)), _vertex_rows(g)
    d_coeffs = np.empty((topology.edge_count + 1, m))
    per_edge = np.empty((topology.edge_count + 1, xs.shape[1])) if input_grad else None
    for r0, r1, edge, target in _blocks(topology, "out"):
        p = (gs[r0:r1].reshape(-1, o) @ by_input.T).reshape(r1 - r0, -1, m)
        d_coeffs[edge.ravel()] = (np.take(xs, target, axis=0) @ p).reshape(-1, m)
        if input_grad:
            products = np.take(params.coeffs, edge, axis=0, mode="clip") @ p.transpose(0, 2, 1)
            per_edge[edge.ravel()] = products.reshape(-1, xs.shape[1])
    if not input_grad:
        return d_coeffs[:-1], None
    per_edge[-1] = 0.0
    return d_coeffs[:-1], _row_sums(per_edge, topology, "in").reshape(x.shape)


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


def _check_saved(x: np.ndarray, conv: VcConvParams, topology: ConvTopology) -> None:
    """A backward's saved x and layer against its topology: the kernels clip coeffs
    gathers, so a mismatched layer would reuse rows instead of failing."""
    if x.shape[0] != topology.n_in:
        raise MeshError(f"saved input has {x.shape[0]} rows, topology expects {topology.n_in}")
    _check_coeffs(conv, topology)


def _vertex_products(x: np.ndarray, params: VcConvParams) -> np.ndarray:
    """t_j = (x_j^T B_k)_k of every input vertex j, as (n_in, M, B*O): row k holds x_jb^T B_k
    for each sample b in turn."""
    m, i, o = params.basis.shape
    t = _sample_rows(x) @ params.basis.transpose(1, 0, 2).reshape(i, m * o)
    return t.reshape(len(x), -1, m, o).transpose(0, 2, 1, 3).reshape(len(x), m, -1)


def _read_only(*arrays: np.ndarray) -> None:
    """Make each array object read-only; a view's base stays as it was."""
    for a in arrays:
        a.flags.writeable = False


def vc_conv(params: VcConvParams, topology: ConvTopology,
            x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(y, saved): the convolution of x, and what vc_conv_backward reuses (the checked x
    and the product z when I <= O, t when I > O, read-only)."""
    x = _check_features(x, params.in_dim, topology)
    _check_coeffs(params, topology)
    y, product = _conv(params, topology, x)
    _read_only(product)
    return y, (x, product)


def _conv(params: VcConvParams, topology: ConvTopology,
          x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vc_conv on a checked x and coeffs, its product: z when I <= O, t when I > O)."""
    m, i, o = params.basis.shape
    if i <= o:
        # per output row r: z_r = sum of x_e c_e^T over its edges (B*I rows), then y = z B
        product = _contract(_zero_row(_vertex_rows(x)), params.coeffs, topology, "out")
        y = product.reshape(-1, i * m) @ params.basis.transpose(1, 0, 2).reshape(i * m, o)
    else:
        # per input row j: t_j = (x_j^T B_k)_k, then c_e^T t_j summed over the output rows
        product = _vertex_products(x, params)
        y = _spread(product, params.coeffs, topology)
    y = y.reshape(_out_shape(x, topology.n_out, o))
    y += params.bias
    return y, product


def vc_conv_backward(
    params: VcConvParams, topology: ConvTopology, saved: tuple, grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """(d_x, parameter gradients) of the vc_conv call that returned `saved`; d_x is None
    unless input_grad. On a batch, each parameter gradient sums over the samples."""
    x, product = saved
    _check_saved(x, params, topology)
    g = _check_grad(grad_out, _out_shape(x, topology.n_out, params.out_dim))
    return _conv_backward(params, topology, x, product, g, input_grad)


def _conv_backward(params: VcConvParams, topology: ConvTopology, x: np.ndarray,
                   product: np.ndarray, g: np.ndarray, input_grad: bool):
    """vc_conv_backward on _conv's checked x and product and a checked upstream gradient g."""
    m, i, o = params.basis.shape
    if i <= o:
        d_coeffs, d_x = _output_row_backward(params, topology, x, g, input_grad)
        d_basis = (product.reshape(-1, i * m).T @ _sample_rows(g)).reshape(i, m, o)
        d_basis = d_basis.transpose(1, 0, 2)
    else:
        gs = _zero_row(_vertex_rows(g))
        w = _contract(gs, params.coeffs, topology, "in").reshape(-1, o * m)
        d_coeffs = _edge_products(gs, product.transpose(0, 2, 1), topology)
        d_x = None
        if input_grad:
            d_x = (w @ params.basis.transpose(2, 0, 1).reshape(o * m, i)).reshape(x.shape)
        d_basis = (_sample_rows(x).T @ w).reshape(i, o, m).transpose(2, 0, 1)
    return d_x, {
        "basis": np.ascontiguousarray(d_basis), "coeffs": d_coeffs,
        "bias": _sample_rows(g).sum(axis=0),
    }


# --- vdPool / vdUnpool / vdRes -------------------------------------------


def _check_rho(params: VdParams, topology: ConvTopology) -> None:
    if np.shape(params.rho) != (topology.edge_count,):
        raise MeshError(f"rho shape {np.shape(params.rho)} != (edges={topology.edge_count},)")


def _density_conv(
    params: VdParams, topology: ConvTopology, x: np.ndarray
) -> tuple[VcConvParams, np.ndarray]:
    """(the layer as a one-basis vc convolution on x's features, |rho| row sums).

    Its coefficients are r' = |rho| / row sum, its basis C^T (the identity
    without a matrix) and its bias zero.
    """
    d = x.shape[-1]
    if params.matrix is not None and params.matrix.shape[1] != d:
        raise MeshError(
            f"residual matrix shape {params.matrix.shape} does not accept {d}-d features"
        )
    _check_rho(params, topology)
    absr = np.abs(np.asarray(params.rho, dtype=np.float64))
    sums = _segment_sums(absr, topology.indptr)
    if (sums <= 0).any():
        raise NumericalError(
            f"all-zero density coefficients in neighborhood {int(np.argmin(sums))}"
        )
    basis = np.eye(d) if params.matrix is None else params.matrix.T
    weights = absr / sums[topology.rows()]
    return VcConvParams(basis[None], weights[:, None], np.zeros(basis.shape[1])), sums


def vd_res(params: VdParams, topology: ConvTopology, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(y, saved): density-weighted pooling of x followed by the shared map C, and what
    vd_res_backward reuses (the checked x, then read-only: the product, the one-basis
    form's arrays, the row sums)."""
    x = _check_features(x, None, topology)
    conv, sums = _density_conv(params, topology, x)
    y, product = _conv(conv, topology, x)
    _read_only(product, conv.basis, conv.coeffs, conv.bias, sums)
    return y, (x, product, conv, sums)


def vd_res_backward(
    params: VdParams, topology: ConvTopology, saved: tuple, grad_out: np.ndarray,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """(d_x, grads) of the vd_res call that returned `saved`; d_x is None unless
    input_grad. On a batch, the rho and matrix gradients sum over the samples."""
    x, product, conv, sums = saved
    _check_saved(x, conv, topology)
    _check_rho(params, topology)
    g = _check_grad(grad_out, _out_shape(x, topology.n_out, conv.out_dim))
    d_x, grads = _conv_backward(conv, topology, x, product, g, input_grad)
    # r'_e = |rho_e| / S_i, so d|rho_e| = (d r'_e - sum_f d r'_f r'_f) / S_i over
    # e's row i; chain with sign(rho), subgradient 0 at 0.
    weights, d_weights = conv.coeffs[:, 0], grads["coeffs"][:, 0]
    rows = topology.rows()
    centred = _segment_sums(d_weights * weights, topology.indptr)[rows]
    d_rho = np.sign(params.rho) * ((d_weights - centred) / sums[rows])
    if params.matrix is None:
        return d_x, {"rho": d_rho}
    return d_x, {"rho": d_rho, "matrix": grads["basis"][0].T}


# --- activation ----------------------------------------------------------


def elu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def elu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    g = _check_grad(grad_out, np.shape(x))
    return g * np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


# --- init ----------------------------------------------------------------


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
