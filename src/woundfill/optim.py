"""Bias-corrected Adam over one flat parameter vector, updated in place.

The model keeps every parameter array as a view into one contiguous vector
(model.Autoencoder.vector), and backward writes the gradients into a vector
of the same layout, so one step is 14 elementwise passes over the vector
rather than over each array. The passes run chunk by chunk, CHUNK entries at
a time, so a chunk stays in cache across them; each entry gets the same
operations in the same order as in one pass over the whole vector. The state
holds the moments and one chunk-sized scratch array, and a step writes its
last passes into the gradient chunk, which it no longer reads by then; it
allocates no vector-sized array, and holds no vector beyond the moments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = ["AdamState", "adam_init", "adam_step"]

# Entries per chunk of a step's passes. The chunks of params, grads, m, v and the
# scratch take 1.25 MiB, within a 2 MiB L2 cache. At P = 336,311 on such a Xeon a
# step took 2.7-3.6 ms, against 3.8-4.3 ms in whole-vector passes; smaller chunks
# pay more per-pass call overhead (3.3-4.3 ms at 8192).
CHUNK = 32768


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    # (name, end offset) of each parameter array in the vector, to name a bad gradient
    blocks: tuple[tuple[str, int], ...]
    scratch: np.ndarray = field(repr=False)  # min(CHUNK, vector size) entries
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0


def adam_init(params: np.ndarray, shapes: dict[str, tuple[int, ...]], lr=AdamState.lr,
              beta1=AdamState.beta1, beta2=AdamState.beta2, eps=AdamState.eps) -> AdamState:
    """State for the flat vector `params`, whose arrays are named and shaped by `shapes`
    in vector order (model.parameter_shapes)."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    if params.shape != (sum(sizes),):
        raise ValueError(f"parameter vector of shape {params.shape} does not hold {shapes}")
    return AdamState(np.zeros_like(params), np.zeros_like(params),
                     tuple(zip(shapes, itertools.accumulate(sizes))),
                     np.empty(min(CHUNK, len(params))), lr, beta1, beta2, eps)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One update of the vector `params` in place; m, v and state.step advance.

    grads is consumed: once m and v have read a chunk of it, the chunk holds
    the denominator. A non-finite gradient raises NumericalError naming the
    first parameter array that holds one, before anything changes. The arithmetic is
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p - (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps), in that operation order,
    elementwise, so each entry gets the bits a per-array update gives it.
    """
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ValueError(f"params {params.shape} and grads {grads.shape} must match the "
                         f"state's {state.m.shape}")
    # min and max read every entry, and are finite exactly when every entry is (NaN propagates)
    if not (np.isfinite(grads.min()) and np.isfinite(grads.max())):
        first = int(np.argmin(np.isfinite(grads)))
        start = 0
        for name, end in state.blocks:
            if first < end:
                break
            start = end
        raise NumericalError(
            f"non-finite gradient for {name!r} at step {state.step + 1} "
            f"(|g|_max={np.nanmax(np.abs(grads[start:end])):.3e})"
        )
    state.step += 1
    t = state.step
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.lr
    for start in range(0, len(params), CHUNK):
        chunk = slice(start, start + CHUNK)
        p, g, m, v = params[chunk], grads[chunk], state.m[chunk], state.v[chunk]
        s, den = state.scratch[:len(g)], g
        m *= b1
        m += np.multiply(g, 1 - b1, out=s)
        v *= b2
        np.multiply(g, 1 - b2, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(v, 1 - b2 ** t, out=den)  # the gradient chunk's last read was above
        np.sqrt(den, out=den)
        den += eps
        np.divide(m, 1 - b1 ** t, out=s)
        s *= lr
        s /= den
        np.subtract(p, s, out=p)
