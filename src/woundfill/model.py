"""The mesh autoencoder: residual down blocks to a coarse latent and back.

Each down block feeds the input through a down-sampling convolution and ELU
(alpha = 1, the activation of Zhou et al.'s vcConv/vdPool network), then adds
the density-weighted residual path:

    x_{l+1} = elu(vc_conv(x_l)) + vd_res(x_l)

Up blocks mirror this with the transposed topologies (vcTransConv / vdUpRes).
The encoder halts at the coarsest hierarchy level; widths are per level and
the decoder reuses them in reverse, so the output matches the input shape.

forward, backward and input_gradient take positions (n, 3) or a vertex-major
batch (n, B, 3) of meshes on the hierarchy's topology, and pass the layout
through every block unchanged. On a batch, backward returns each parameter's
gradient summed over the samples; the sum happens inside the ops kernels.

Training, validation and eval run the same loop over the blocks, through
the public ops pairs: vc_conv and vd_res return the output and what their
backward reuses. forward(x, keep_cache=True) also returns, per block, the
conv output and those saved arrays, so backward recomputes no forward
product (4.2 MiB at V=2562, widths 3/16/32, B = 4). backward does not form
the first block's input gradient, which training discards; input_gradient
does. A MeshError or NumericalError raised by an operator names the block
and layer it came from (enc0.res) and, in the forward, what fed it.

The parameters live in one contiguous float64 vector, `Autoencoder.vector`,
laid out as parameter_shapes orders them, which is also the checkpoint's
block order. Every VcConvParams/VdParams field of the blocks is a reshaped
view into it, so updating the vector in place (optim.adam_step) updates the
model. backward writes the gradients into one vector of the same layout. A
block's returned gradients and input-gradient parts are dropped once they are
copied there and summed, so the next block's backward runs without them; at
V=2562, widths 3/16/32 and B = 4 a backward peaks 3.6 MiB over its cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, MeshError, NumericalError, located
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
    vc_conv,
    vc_conv_backward,
    vd_res,
    vd_res_backward,
)

__all__ = ["Architecture", "Autoencoder", "parameter_shapes"]


@dataclass(frozen=True)
class Architecture:
    """Static description of the network; everything needed to rebuild it."""

    ratios: tuple[float, ...] = (1.0, 0.25)
    widths: tuple[int, ...] = (3, 16)
    m_clamp: tuple[int, int] = M_CLAMP_DEFAULT

    def __post_init__(self):
        if len(self.widths) != len(self.ratios):
            raise ConfigError(
                f"widths (len {len(self.widths)}) must match ratios (len {len(self.ratios)})"
            )
        if not self.widths or self.widths[0] != 3:
            raise ConfigError(f"widths must start with 3 (xyz coordinates), got {self.widths}")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must be >= 1, got {self.widths}")
        r = self.ratios
        if len(r) < 2 or r[0] != 1.0 or not r[-1] > 0 or not all(b < a for a, b in zip(r, r[1:])):
            raise ConfigError("ratios must start at 1.0 and strictly decrease to > 0 over at "
                              f"least two levels, got {r}")
        if len(self.m_clamp) != 2 or not 1 <= self.m_clamp[0] <= self.m_clamp[1]:
            raise ConfigError(f"m_clamp must be [lo, hi] with 1 <= lo <= hi, got {self.m_clamp}")


def _layout(hierarchy: MeshHierarchy, architecture: Architecture):
    """(name, conv topology, pool topology, in width, out width) of each block in
    order: the encoder down the levels, then the decoder on their transposes."""
    h, w, down = hierarchy, architecture.widths, range(len(hierarchy.conv_down))
    for l in down:
        yield f"enc{l}", h.conv_down[l], h.pool_down[l], w[l], w[l + 1]
    for i, l in enumerate(reversed(down)):
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
    """Holds hierarchy, architecture and the parameter vector; forward/backward are exact."""

    def __init__(self, hierarchy: MeshHierarchy, architecture: Architecture,
                 vector: np.ndarray | None = None):
        """The model on `vector` (zeros when None), which it adopts without a copy.

        vector is a C-contiguous float64 array of parameter_shapes' total size.
        """
        self.hierarchy = hierarchy
        self.architecture = architecture
        self.shapes = parameter_shapes(hierarchy, architecture)
        size = sum(math.prod(shape) for shape in self.shapes.values())
        self.vector = np.zeros(size) if vector is None else self._checked(vector, size)
        p = self._params = self.views(self.vector)
        # the encoder's, then the decoder's, as _layout orders them
        self.blocks = [
            _Block(name, conv_t, pool_t,
                   VcConvParams(*(p[f"{name}.conv.{f.name}"] for f in fields(VcConvParams))),
                   VdParams(p[f"{name}.res.rho"], p.get(f"{name}.res.matrix")))
            for name, conv_t, pool_t, _, _ in _layout(hierarchy, architecture)
        ]

    @staticmethod
    def _checked(vector: np.ndarray, size: int) -> np.ndarray:
        if vector.dtype != np.float64 or vector.shape != (size,) or not vector.flags.c_contiguous:
            raise DataError(f"a parameter vector must be C-contiguous float64 of shape ({size},), "
                            f"got {vector.dtype} {vector.shape}")
        return vector

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
        """Seed-deterministic parameter init; draw order is encoder then decoder.

        Each block's draws are copied into the vector as they are made.
        """
        rng = np.random.default_rng(seed)
        model = cls(hierarchy, architecture)
        for blk, (_, conv_t, pool_t, i, o) in zip(model.blocks, _layout(hierarchy, architecture)):
            for views, drawn in ((blk.conv, init_vc_conv(rng, conv_t, i, o)),
                                 (blk.res, init_vd(rng, pool_t, i, o))):
                for f in fields(drawn):
                    if (value := getattr(drawn, f.name)) is not None:
                        getattr(views, f.name)[...] = value
        return model

    # -- parameter access ---------------------------------------------------

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named, shaped views into a vector laid out as the parameters, in parameters() order."""
        out, start = {}, 0
        for name, shape in self.shapes.items():
            stop = start + math.prod(shape)
            out[name] = vector[start:stop].reshape(shape)
            start = stop
        return out

    def parameters(self) -> dict[str, np.ndarray]:
        """Named parameter arrays in a fixed order: views into the vector, not copies."""
        return dict(self._params)

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        """Copy arrays named and shaped as parameters() gives them into the vector."""
        for name, view in self._params.items():
            value = np.asarray(params[name])
            if value.shape != view.shape:
                raise DataError(f"parameter {name} has shape {value.shape}, expected {view.shape}")
            view[...] = value

    # -- forward / backward --------------------------------------------------

    def forward(self, x: np.ndarray, keep_cache: bool = False):
        """Run positions (n, 3), or a batch (n, B, 3), through the autoencoder.

        The output has x's shape. With keep_cache=True also returns, per
        block, what backward needs: the conv output and the conv's and the
        density layer's saved arrays.
        """
        x = np.asarray(x, dtype=np.float64)
        cache = []
        source = "the model input"
        for blk in self.blocks:
            try:
                layer = "conv"
                h, conv_saved = vc_conv(blk.conv, blk.conv_topology, x)
                layer = "res"
                r, res_saved = vd_res(blk.res, blk.pool_topology, x)
            except (MeshError, NumericalError) as exc:
                raise located(exc, f"{blk.name}.{layer} on {source}") from exc
            if keep_cache:
                cache.append((h, conv_saved, res_saved))
            x = elu(h) + r
            source = f"{blk.name}'s output"
        return (x, cache) if keep_cache else x

    def _reverse(self, cache, grad_out: np.ndarray, input_grad: bool,
                 out: np.ndarray | None) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
        """One reverse walk over the blocks: (parameter gradients, input gradient).

        The gradients are written into `out` (a new vector when None) and
        returned as its views. The first block forms its input gradient only
        if input_grad; otherwise the second value is None.
        """
        size = len(self.vector)
        grads = self.views(np.empty(size) if out is None else self._checked(out, size))
        g = np.asarray(grad_out, dtype=np.float64)
        for blk, (h, conv_saved, res_saved) in zip(reversed(self.blocks), reversed(cache)):
            need_dx = input_grad or blk is not self.blocks[0]
            try:
                layer = "conv"
                dx_conv, conv_grads = vc_conv_backward(blk.conv, blk.conv_topology, conv_saved,
                                                       elu_backward(h, g), need_dx)
                layer = "res"
                dx_res, res_grads = vd_res_backward(blk.res, blk.pool_topology, res_saved, g,
                                                    need_dx)
            except (MeshError, NumericalError) as exc:
                raise located(exc, f"{blk.name}.{layer} backward") from exc
            for part, part_grads in (("conv", conv_grads), ("res", res_grads)):
                for key, value in part_grads.items():
                    grads[f"{blk.name}.{part}.{key}"][...] = value
            g = dx_conv + dx_res if need_dx else None
            # copied or summed: not held through the next block's backward
            del conv_grads, res_grads, dx_conv, dx_res
        return grads, g

    def backward(self, cache, grad_out: np.ndarray,
                 out: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Parameter gradients for the forward pass that produced `cache`; summed over a batch.

        They are written into `out`, a vector shaped like the parameter vector
        (a new one when None), and returned as its named views. Training
        discards the input gradient, so the first block does not form it.
        """
        return self._reverse(cache, grad_out, False, out)[0]

    def input_gradient(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the input positions (used by gradient checks)."""
        return self._reverse(cache, grad_out, True, None)[1]
