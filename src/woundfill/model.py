"""The mesh autoencoder: residual down blocks to a coarse latent and back.

Each down block feeds the input through a down-sampling convolution and the
activation, then adds the density-weighted residual path:

    x_{l+1} = act(vc_conv(x_l)) + vd_res(x_l)

Up blocks mirror this with the transposed topologies (vcTransConv / vdUpRes).
The encoder halts at the coarsest hierarchy level; widths are per level and
the decoder reuses them in reverse, so the output matches the input shape.

forward, backward and input_gradient take positions (n, 3) or a vertex-major
batch (n, B, 3) of meshes on the hierarchy's topology, and pass the layout
through every block unchanged. On a batch, backward returns each parameter's
gradient summed over the samples; the sum happens inside the ops kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError
from .hierarchy import (
    M_CLAMP_DEFAULT,
    MIN_LEVEL_VERTICES,
    ConvTopology,
    MeshHierarchy,
    build_hierarchy,
)
from .mesh import Mesh
from .ops import (
    VcConvParams,
    VdParams,
    elu,
    elu_backward,
    init_vc_conv,
    init_vd,
    relu,
    relu_backward,
    vc_conv,
    vc_conv_backward,
    vd_res,
    vd_res_backward,
)

__all__ = ["Architecture", "Autoencoder", "parameter_shapes"]

ACTIVATIONS = ("elu", "relu")


@dataclass(frozen=True)
class Architecture:
    """Static description of the network; everything needed to rebuild it."""

    ratios: tuple[float, ...] = (1.0, 0.25)
    widths: tuple[int, ...] = (3, 16)
    activation: str = "elu"
    elu_alpha: float = 1.0
    m_clamp: tuple[int, int] = M_CLAMP_DEFAULT

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.widths) != len(self.ratios):
            raise ConfigError(
                f"widths (len {len(self.widths)}) must match ratios (len {len(self.ratios)})"
            )
        if not self.widths or self.widths[0] != 3:
            raise ConfigError(f"widths must start with 3 (xyz coordinates), got {self.widths}")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must be >= 1, got {self.widths}")
        r = self.ratios
        if r[0] != 1.0 or r[-1] <= 0 or any(b >= a for a, b in zip(r, r[1:])):
            raise ConfigError(f"ratios must start at 1.0 and strictly decrease to > 0, got {r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.elu_alpha <= 0:
            raise ConfigError(f"elu_alpha must be > 0, got {self.elu_alpha}")
        if len(self.m_clamp) != 2 or not 1 <= self.m_clamp[0] <= self.m_clamp[1]:
            raise ConfigError(f"m_clamp must be [lo, hi] with 1 <= lo <= hi, got {self.m_clamp}")


def _layout(hierarchy: MeshHierarchy, architecture: Architecture):
    """(name, conv topology, pool topology, in width, out width) of each block in
    order: the encoder down the levels, then the decoder on their transposes."""
    h, w, levels = hierarchy, architecture.widths, range(len(hierarchy.conv_down))
    for l in levels:
        yield f"enc{l}", h.conv_down[l], h.pool_down[l], w[l], w[l + 1]
    for i, l in enumerate(reversed(levels)):
        yield f"dec{i}", h.conv_up[l], h.pool_up[l], w[l + 1], w[l]


def parameter_shapes(hierarchy: MeshHierarchy,
                     architecture: Architecture) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter array, in Autoencoder.parameters() order.

    Shapes follow init_vc_conv and init_vd; a block whose widths agree has no
    residual matrix. Nothing is allocated, so a loader can check a file against it.
    """
    shapes = {}
    for name, conv_t, pool_t, i, o in _layout(hierarchy, architecture):
        m = conv_t.basis_count
        shapes[f"{name}.conv.basis"] = (m, i, o)
        shapes[f"{name}.conv.coeffs"] = (conv_t.edge_count, m)
        shapes[f"{name}.conv.bias"] = (o,)
        shapes[f"{name}.res.rho"] = (pool_t.edge_count,)
        if i != o:
            shapes[f"{name}.res.matrix"] = (o, i)
    return shapes


@dataclass
class _Block:
    """One residual block: its parameter-name prefix, the topologies it runs on, its parameters."""

    name: str  # enc0, enc1, ..., dec0, ...
    conv_topology: ConvTopology
    pool_topology: ConvTopology
    conv: VcConvParams
    res: VdParams


class Autoencoder:
    """Holds hierarchy, architecture and parameters; forward/backward are exact."""

    def __init__(self, hierarchy: MeshHierarchy, architecture: Architecture,
                 blocks: list[_Block]):
        self.hierarchy = hierarchy
        self.architecture = architecture
        self.blocks = blocks  # the encoder's, then the decoder's, as _layout orders them

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, mesh: Mesh, architecture: Architecture, seed: int) -> "Autoencoder":
        n, ratio = mesh.n_vertices, architecture.ratios[-1]
        if (coarsest := int(np.floor(n * ratio))) < MIN_LEVEL_VERTICES:
            raise DataError(
                f"architecture.ratios: ratio {ratio} leaves {coarsest} of the mesh's {n} "
                f"vertices; need at least {MIN_LEVEL_VERTICES}"
            )
        hierarchy = build_hierarchy(mesh, architecture.ratios, architecture.m_clamp)
        return cls.init(hierarchy, architecture, seed)

    @classmethod
    def init(cls, hierarchy: MeshHierarchy, architecture: Architecture, seed: int) -> "Autoencoder":
        """Seed-deterministic parameter init; draw order is encoder then decoder."""
        rng = np.random.default_rng(seed)
        return cls(hierarchy, architecture, [
            _Block(name, conv_t, pool_t, init_vc_conv(rng, conv_t, i, o),
                   init_vd(rng, pool_t, i, o))
            for name, conv_t, pool_t, i, o in _layout(hierarchy, architecture)
        ])

    @classmethod
    def from_parameters(cls, hierarchy: MeshHierarchy, architecture: Architecture,
                        params: dict[str, np.ndarray]) -> "Autoencoder":
        """The model holding `params`, named as parameters() names them; nothing is drawn.

        The caller has checked the names and shapes against parameter_shapes().
        """
        def take(kind, prefix):  # an absent residual matrix stays None (identity)
            return kind(**{f.name: params[key] for f in fields(kind)
                           if (key := f"{prefix}.{f.name}") in params})

        return cls(hierarchy, architecture, [
            _Block(name, conv_t, pool_t, take(VcConvParams, f"{name}.conv"),
                   take(VdParams, f"{name}.res"))
            for name, conv_t, pool_t, _, _ in _layout(hierarchy, architecture)
        ])

    # -- parameter access ---------------------------------------------------

    def _slots(self):
        """(name, owner, field) of every parameter array, in the fixed order; owner is
        the block's VcConvParams or VdParams, and a None field (identity matrix) is skipped."""
        for blk in self.blocks:
            for part in ("conv", "res"):
                owner = getattr(blk, part)
                for f in fields(owner):
                    if getattr(owner, f.name) is not None:
                        yield f"{blk.name}.{part}.{f.name}", owner, f.name

    def parameters(self) -> dict[str, np.ndarray]:
        """Named parameter arrays in a fixed order (views, not copies)."""
        return {name: getattr(owner, key) for name, owner, key in self._slots()}

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        for name, owner, key in self._slots():
            setattr(owner, key, params[name])

    def parameter_count(self) -> int:
        return sum(int(np.prod(a.shape)) for a in self.parameters().values())

    # -- forward / backward --------------------------------------------------

    def _act(self, h: np.ndarray) -> np.ndarray:
        if self.architecture.activation == "elu":
            return elu(h, self.architecture.elu_alpha)
        return relu(h)

    def _act_backward(self, h: np.ndarray, g: np.ndarray) -> np.ndarray:
        if self.architecture.activation == "elu":
            return elu_backward(h, g, self.architecture.elu_alpha)
        return relu_backward(h, g)

    def forward(self, x: np.ndarray, keep_cache: bool = False):
        """Run positions (n, 3), or a batch (n, B, 3), through the autoencoder.

        The output has x's shape. With keep_cache=True also returns the
        per-block tensors backward needs.
        """
        cache = []
        for blk in self.blocks:
            h = vc_conv(blk.conv, blk.conv_topology, x)
            a = self._act(h)
            r = vd_res(blk.res, blk.pool_topology, x)
            if keep_cache:
                cache.append((x, h))
            x = a + r
        return (x, cache) if keep_cache else x

    def _reverse(self, cache, grad_out: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """One reverse walk over the blocks: (parameter gradients, input gradient)."""
        grads: dict[str, np.ndarray] = {}
        g = grad_out
        for blk, (x, h) in zip(reversed(self.blocks), reversed(cache)):
            dh = self._act_backward(h, g)
            dx_conv, conv_grads = vc_conv_backward(blk.conv, blk.conv_topology, x, dh)
            dx_res, res_grads = vd_res_backward(blk.res, blk.pool_topology, x, g)
            for part, part_grads in (("conv", conv_grads), ("res", res_grads)):
                for key, value in part_grads.items():
                    grads[f"{blk.name}.{part}.{key}"] = value
            g = dx_conv + dx_res
        return {name: grads[name] for name in self.parameters()}, g

    def backward(self, cache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for the forward pass that produced `cache`; summed over a batch."""
        return self._reverse(cache, grad_out)[0]

    def input_gradient(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the input positions (used by gradient checks)."""
        return self._reverse(cache, grad_out)[1]
