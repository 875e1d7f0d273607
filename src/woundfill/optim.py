"""Bias-corrected Adam over named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = ["AdamState", "adam_init", "adam_step"]


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, np.ndarray] = field(default_factory=dict, repr=False)  # per parameter


def adam_init(params: dict[str, np.ndarray], lr=AdamState.lr, beta1=AdamState.beta1,
              beta2=AdamState.beta2, eps=AdamState.eps) -> AdamState:
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        scratch={k: np.empty_like(p) for k, p in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One update; returns fresh parameter arrays and mutates/returns the state.

    m and v are updated in place, and each parameter's intermediates go
    through one scratch array kept in the state. The arithmetic is
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p - (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps), in that operation order.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(
                f"non-finite gradient for {name!r} at step {state.step + 1} "
                f"(|g|_max={np.nanmax(np.abs(g)):.3e})"
            )
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        g, m, v, s = grads[name], state.m[name], state.v[name], state.scratch[name]
        m *= state.beta1
        m += np.multiply(g, 1 - state.beta1, out=s)
        v *= state.beta2
        np.multiply(g, 1 - state.beta2, out=s)
        v += np.multiply(s, g, out=s)
        den = np.divide(v, 1 - state.beta2 ** t, out=np.empty_like(p))
        np.sqrt(den, out=den)
        den += state.eps
        np.divide(m, 1 - state.beta1 ** t, out=s)
        s *= state.lr
        s /= den
        out[name] = np.subtract(p, s, out=den)
    return out, state
