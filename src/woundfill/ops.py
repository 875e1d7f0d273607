"""Forward evaluation and exact reverse-mode gradients for the operator family.

Feature maps are plain (n, d) float64 arrays. Each operator reads a
ConvTopology in CSR form. vc_conv never builds the per-edge weights
W_e = sum_k a_ek B_k: it factors through one E * M * min(I, O) intermediate
and BLAS matmuls, mixing the coefficients in before the basis product when
I <= O and after it otherwise. Per-output sums run left to right over each
CSR row and per-input sums over the topology's cached transpose, so
forward passes and gradients are bit-reproducible for a given numpy/BLAS
build and thread count.

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
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise MeshError(f"feature map must be 2-d, got shape {x.shape}")
    if x.shape[0] != topology.n_in:
        raise MeshError(f"feature map has {x.shape[0]} rows, topology expects {topology.n_in}")
    if dim is not None and x.shape[1] != dim:
        raise MeshError(f"feature dimension {x.shape[1]} != layer input dimension {dim}")
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite values in input feature map")
    return x


def _check_grad(g: np.ndarray, n_out: int) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.shape[0] != n_out:
        raise MeshError(f"upstream gradient has {g.shape[0]} rows, expected {n_out}")
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite upstream gradient")
    return g


def _segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row sums over CSR segments, summed left to right within each segment."""
    out = np.add.reduceat(values, indptr[:-1], axis=0)
    empty = indptr[:-1] == indptr[1:]
    if empty.any():  # reduceat misreads zero-length segments; topologies forbid them anyway
        out[empty] = 0.0
    return out


# --- vcConv / vcTransConv ------------------------------------------------


def _scatter_to_inputs(values: np.ndarray, topology: ConvTopology) -> np.ndarray:
    """Per-input sums of per-edge rows, in ascending edge order, over the cached transpose."""
    perm, indptr = topology.transpose_order
    return _segment_sums(values[perm], indptr)


def _outer(a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per-edge outer products, flattened (k, m): out[e, k * M + m] = a[e, k] * coeffs[e, m]."""
    return np.einsum("ek,em->ekm", a, coeffs).reshape(len(a), a.shape[1] * coeffs.shape[1])


def vc_conv(params: VcConvParams, topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    x = _check_features(x, params.in_dim, topology)
    m, i, o = params.basis.shape
    if params.coeffs.shape != (topology.edge_count, m):
        raise MeshError(
            f"coeffs shape {params.coeffs.shape} does not match "
            f"(edges={topology.edge_count}, M={m})"
        )
    xe = x[topology.indices]  # (E, I)
    by_input = params.basis.transpose(1, 0, 2)  # (I, M, O)
    # contribution of edge e: W_e^T x_e with W_e = sum_k coeffs[e, k] * basis[k]
    if i <= o:
        contrib = _outer(xe, params.coeffs) @ by_input.reshape(i * m, o)
    else:
        t = (xe @ by_input.reshape(i, m * o)).reshape(len(xe), m, o)  # x_e^T B_k
        contrib = (params.coeffs[:, None, :] @ t)[:, 0]
    return _segment_sums(contrib, topology.indptr) + params.bias


def vc_conv_backward(
    params: VcConvParams, topology: ConvTopology, x: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    x = _check_features(x, params.in_dim, topology)
    g = _check_grad(grad_out, topology.n_out)
    m, i, o = params.basis.shape
    xe = x[topology.indices]
    ge = g[topology.rows()]
    by_input = params.basis.transpose(1, 0, 2)  # (I, M, O)
    if i <= o:
        p = (ge @ by_input.reshape(i * m, o).T).reshape(len(xe), i, m)  # p[e, :, k] = B_k g_e
        d_coeffs = (xe[:, None, :] @ p)[:, 0]
        d_xe = (p @ params.coeffs[:, :, None])[:, :, 0]
        d_basis = (_outer(xe, params.coeffs).T @ ge).reshape(i, m, o).transpose(1, 0, 2)
    else:
        t = (xe @ by_input.reshape(i, m * o)).reshape(len(xe), m, o)  # x_e^T B_k
        d_coeffs = (t @ ge[:, :, None])[:, :, 0]
        q = _outer(ge, params.coeffs)
        d_xe = q @ params.basis.transpose(2, 0, 1).reshape(o * m, i)
        d_basis = (xe.T @ q).reshape(i, o, m).transpose(2, 0, 1)
    d_x = _scatter_to_inputs(d_xe, topology)
    return d_x, {
        "basis": np.ascontiguousarray(d_basis), "coeffs": d_coeffs, "bias": g.sum(axis=0)
    }


def vc_trans_conv(params: VcConvParams, topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    """vc_conv evaluated on the transposed topology; coeffs use its edge order."""
    return vc_conv(params, topology.transposed, x)


def vc_trans_conv_backward(params, topology, x, grad_out):
    return vc_conv_backward(params, topology.transposed, x, grad_out)


# --- vdPool / vdUnpool / vdRes -------------------------------------------


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


def vd_aggregate(params: VdParams, topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    """Density-weighted pooling (vdPool when down, vdUnpool on the transpose)."""
    x = _check_features(x, None, topology)
    weights, _ = _normalized_rho(params, topology, topology.rows())
    return _segment_sums(weights[:, None] * x[topology.indices], topology.indptr)


def _vd_aggregate_grads(params, topology, x, grad_out):
    """(y, d_x, grads) of vd_aggregate: its output y alongside the gradients."""
    x = _check_features(x, None, topology)
    g = _check_grad(grad_out, topology.n_out)
    rows = topology.rows()
    weights, sums = _normalized_rho(params, topology, rows)
    xe = x[topology.indices]
    y = _segment_sums(weights[:, None] * xe, topology.indptr)
    ge = g[rows]
    # d y_i / d |rho_e| = (x_e - y_i) / S_i; chain with sign(rho), subgradient 0 at 0
    d_abs = np.einsum("ei,ei->e", ge, xe - y[rows]) / sums[rows]
    d_rho = np.sign(params.rho) * d_abs
    return y, _scatter_to_inputs(weights[:, None] * ge, topology), {"rho": d_rho}


def vd_aggregate_backward(params, topology, x, grad_out):
    _, d_x, grads = _vd_aggregate_grads(params, topology, x, grad_out)
    return d_x, grads


def vd_res(params: VdParams, topology: ConvTopology, x: np.ndarray) -> np.ndarray:
    """Residual layer: density-weighted pooling followed by the shared map C."""
    agg = vd_aggregate(params, topology, x)
    if params.matrix is None:
        return agg
    if params.matrix.shape[1] != x.shape[1]:
        raise MeshError(
            f"residual matrix shape {params.matrix.shape} does not accept "
            f"{x.shape[1]}-d features"
        )
    return agg @ params.matrix.T


def vd_res_backward(params, topology, x, grad_out):
    g = _check_grad(grad_out, topology.n_out)
    if params.matrix is None:
        return vd_aggregate_backward(params, topology, x, g)
    agg, d_x, grads = _vd_aggregate_grads(params, topology, x, g @ params.matrix)
    grads["matrix"] = g.T @ agg
    return d_x, grads


# --- reference pooling and activations ------------------------------------


def reference_pool(topology: ConvTopology, x: np.ndarray, mode: str) -> np.ndarray:
    """Plain max or average pooling over each neighborhood."""
    x = _check_features(x, None, topology)
    xe = x[topology.indices]
    if mode == "max":
        return np.maximum.reduceat(xe, topology.indptr[:-1], axis=0)
    if mode == "avg":
        return _segment_sums(xe, topology.indptr) / topology.sizes[:, None]
    raise MeshError(f"unknown pooling mode {mode!r}")


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    if alpha <= 0:
        raise MeshError(f"elu alpha must be > 0, got {alpha}")
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, alpha * np.expm1(np.minimum(x, 0.0)))


def elu_backward(x: np.ndarray, grad_out: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    g = _check_grad(grad_out, len(x))
    return g * np.where(x > 0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    g = _check_grad(grad_out, len(x))
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
