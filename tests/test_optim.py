import numpy as np
import pytest

from woundfill import adam_init, adam_step
from woundfill.errors import NumericalError


def make_params(rng):
    return {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}


def test_zero_gradient_leaves_params_unchanged():
    rng = np.random.default_rng(0)
    params = make_params(rng)
    state = adam_init(params)
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    new, state = adam_step(params, zeros, state)
    for k in params:
        assert np.array_equal(new[k], params[k])
    assert state.step == 1


def test_first_step_is_minus_lr():
    # with g = 1 everywhere, bias-corrected m_hat / sqrt(v_hat) = 1 exactly
    params = {"w": np.array([10.0, -4.0])}
    grads = {"w": np.ones(2)}
    state = adam_init(params, lr=0.1, eps=1e-8)
    new, _ = adam_step(params, grads, state)
    assert np.allclose(new["w"], params["w"] - 0.1, atol=1e-8)


def test_two_runs_identical():
    rng = np.random.default_rng(1)
    params = make_params(rng)
    grad_seq = [
        {k: np.random.default_rng([2, t]).normal(size=v.shape) for k, v in params.items()}
        for t in range(10)
    ]

    def run():
        p = {k: v.copy() for k, v in params.items()}
        s = adam_init(p, lr=3e-3)
        for g in grad_seq:
            p, s = adam_step(p, g, s)
        return p

    a, b = run(), run()
    for k in params:
        assert np.array_equal(a[k], b[k])


def test_nonfinite_gradient_aborts_with_diagnostics():
    params = {"w": np.zeros(3)}
    grads = {"w": np.array([0.0, np.nan, 0.0])}
    state = adam_init(params)
    with pytest.raises(NumericalError, match="'w'"):
        adam_step(params, grads, state)
    assert state.step == 0  # aborted before updating


def test_moments_shaped_like_params():
    rng = np.random.default_rng(3)
    params = make_params(rng)
    state = adam_init(params)
    for k, v in params.items():
        assert state.m[k].shape == v.shape
        assert state.v[k].shape == v.shape


def test_steps_equal_the_written_out_formula():
    # the update as plain expressions, each step allocating fresh m, v and params
    rng = np.random.default_rng(4)
    params = make_params(rng)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    state = adam_init(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    moments = [(state.m[k], state.v[k]) for k in params]  # updated in place, never replaced
    new = params
    ref, m, v = dict(params), {}, {}
    for k, p in params.items():
        m[k], v[k] = np.zeros_like(p), np.zeros_like(p)
    for t in range(1, 4):
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        new, state = adam_step(new, grads, state)
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1 ** t)
            v_hat = v[k] / (1 - b2 ** t)
            ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in params:
            assert np.array_equal(new[k], ref[k])
            assert np.array_equal(state.m[k], m[k])
            assert np.array_equal(state.v[k], v[k])
    assert all(state.m[k] is mk and state.v[k] is vk for k, (mk, vk) in zip(params, moments))
