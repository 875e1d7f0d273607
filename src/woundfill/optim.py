"""Bias-corrected Adam over one flat parameter vector, updated in place.

The model keeps every parameter array as a view into one contiguous vector
(model.Autoencoder.vector), and backward writes the gradients into a vector
of the same layout, so one step is 14 elementwise passes over the whole
vector rather than over each array. The state holds the moments and one
scratch vector, and a step writes its last passes into the gradient vector,
which it no longer reads by then; it allocates no vector-sized array, and
holds no more vectors than a per-array Adam did.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = ["AdamState", "adam_init", "adam_step"]


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    # (name, end offset) of each parameter array in the vector, to name a bad gradient
    blocks: tuple[tuple[str, int], ...]
    scratch: np.ndarray = field(repr=False)
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
                     tuple(zip(shapes, itertools.accumulate(sizes))), np.empty_like(params),
                     lr, beta1, beta2, eps)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One update of the vector `params` in place; m, v and state.step advance.

    grads is consumed: once m and v have read it, it holds the denominator.
    A non-finite gradient raises NumericalError naming the first parameter
    array that holds one, before anything changes. The arithmetic is
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
    m, v, s, den = state.m, state.v, state.scratch, grads
    m *= state.beta1
    m += np.multiply(grads, 1 - state.beta1, out=s)
    v *= state.beta2
    np.multiply(grads, 1 - state.beta2, out=s)
    v += np.multiply(s, grads, out=s)
    np.divide(v, 1 - state.beta2 ** t, out=den)  # the gradient's last read was above
    np.sqrt(den, out=den)
    den += state.eps
    np.divide(m, 1 - state.beta1 ** t, out=s)
    s *= state.lr
    s /= den
    np.subtract(params, s, out=params)
