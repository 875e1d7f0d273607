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


def adam_init(params: dict[str, np.ndarray], lr=AdamState.lr, beta1=AdamState.beta1,
              beta2=AdamState.beta2, eps=AdamState.eps) -> AdamState:
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One update; returns fresh parameter arrays and mutates/returns the state."""
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
        g = grads[name]
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / (1 - state.beta1 ** t)
        v_hat = state.v[name] / (1 - state.beta2 ** t)
        out[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out, state
