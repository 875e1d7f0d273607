import math
import tracemalloc

import numpy as np
import pytest

from woundfill import adam_init, adam_step, optim
from woundfill.errors import NumericalError

SHAPES = {"a": (3, 2), "b": (4,)}


def make_params(rng):
    return rng.normal(size=sum(math.prod(s) for s in SHAPES.values()))


def named(vector, shapes=SHAPES):
    """Views of a flat vector, named and shaped as `shapes` lays it out."""
    out, start = {}, 0
    for name, shape in shapes.items():
        out[name] = vector[start:start + math.prod(shape)].reshape(shape)
        start += math.prod(shape)
    return out


def test_zero_gradient_leaves_params_unchanged():
    rng = np.random.default_rng(0)
    params = make_params(rng)
    before = named(params.copy())
    state = adam_init(params, SHAPES)
    adam_step(params, np.zeros_like(params), state)
    for k, v in named(params).items():
        assert np.array_equal(v, before[k])
    assert state.step == 1


def test_first_step_is_minus_lr():
    # with g = 1 everywhere, bias-corrected m_hat / sqrt(v_hat) = 1 exactly
    params = np.array([10.0, -4.0])
    state = adam_init(params, {"w": (2,)}, lr=0.1, eps=1e-8)
    adam_step(params, np.ones(2), state)
    assert np.allclose(params, np.array([10.0, -4.0]) - 0.1, atol=1e-8)


def test_two_runs_identical():
    rng = np.random.default_rng(1)
    params = make_params(rng)
    grad_seq = [np.random.default_rng([2, t]).normal(size=params.shape) for t in range(10)]

    def run():
        p = params.copy()
        s = adam_init(p, SHAPES, lr=3e-3)
        for g in grad_seq:
            adam_step(p, g.copy(), s)  # the step consumes its gradient
        return named(p)

    a, b = run(), run()
    for k in SHAPES:
        assert np.array_equal(a[k], b[k])


def test_nonfinite_gradient_aborts_with_diagnostics():
    params = np.zeros(3)
    grads = np.array([0.0, np.nan, 0.0])
    state = adam_init(params, {"w": (3,)})
    with pytest.raises(NumericalError, match="'w'"):
        adam_step(params, grads, state)
    assert state.step == 0  # aborted before updating
    assert not params.any() and not state.m.any() and not state.v.any()


def test_nonfinite_gradient_names_the_first_array_that_holds_one():
    shapes = {"a": (2, 2), "w": (3,), "z": (1,)}
    params, grads = np.zeros(8), np.zeros(8)
    grads[4] = np.nan  # w's first entry, the first array with a non-finite entry
    grads[7] = np.inf
    state = adam_init(params, shapes)
    with pytest.raises(NumericalError, match="'w' at step 1"):
        adam_step(params, grads, state)
    assert state.step == 0


def test_moments_shaped_like_params():
    rng = np.random.default_rng(3)
    params = make_params(rng)
    state = adam_init(params, SHAPES)
    assert state.m.shape == params.shape
    assert state.v.shape == params.shape
    for k, v in named(params).items():
        assert named(state.m)[k].shape == v.shape
        assert named(state.v)[k].shape == v.shape


def test_steps_equal_the_written_out_formula():
    # the update as plain expressions per named array, each step allocating fresh m, v and
    # params; adam_step updates the one vector in place
    rng = np.random.default_rng(4)
    params = make_params(rng)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    state = adam_init(params, SHAPES, lr=lr, beta1=b1, beta2=b2, eps=eps)
    buffers = [state.m, state.v, state.scratch]  # never replaced
    ref, m, v = {k: p.copy() for k, p in named(params).items()}, {}, {}
    for k, p in ref.items():
        m[k], v[k] = np.zeros_like(p), np.zeros_like(p)
    for t in range(1, 4):
        flat_grads = rng.normal(size=params.shape)
        adam_step(params, flat_grads.copy(), state)  # the step consumes its gradient
        for k, g in named(flat_grads).items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1 ** t)
            v_hat = v[k] / (1 - b2 ** t)
            ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in SHAPES:
            assert np.array_equal(named(params)[k], ref[k])
            assert np.array_equal(named(state.m)[k], m[k])
            assert np.array_equal(named(state.v)[k], v[k])
    assert all(a is b for a, b in zip(buffers, [state.m, state.v, state.scratch]))


def test_mismatched_vectors_are_refused():
    params = np.zeros(10)
    state = adam_init(params, SHAPES)
    with pytest.raises(ValueError):
        adam_step(params, np.zeros(1), state)  # would broadcast
    with pytest.raises(ValueError):
        adam_init(np.zeros(9), SHAPES)
    assert state.step == 0


def test_chunked_steps_equal_one_pass_over_the_vector(monkeypatch):
    # chunks of 3 and 4 entries over 10, the last one short, against a single chunk
    rng = np.random.default_rng(5)
    params = make_params(rng)
    grad_seq = [rng.normal(size=params.shape) for _ in range(4)]

    def run(chunk):
        monkeypatch.setattr(optim, "CHUNK", chunk)
        p = params.copy()
        state = adam_init(p, SHAPES, lr=3e-3)
        for g in grad_seq:
            adam_step(p, g.copy(), state)
        return p.tobytes() + state.m.tobytes() + state.v.tobytes()

    assert run(3) == run(4) == run(len(params))


def test_adam_holds_and_allocates_under_a_quarter_vector_beyond_its_moments():
    # the parameter count of the benchmark's train-deep model (V = 2562, widths 3/16/32)
    params = np.random.default_rng(6).normal(size=336_311)
    grads = np.random.default_rng(7).normal(size=params.shape)
    tracemalloc.start()
    try:
        state = adam_init(params, {"w": params.shape})
        adam_step(params, grads, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - state.m.nbytes - state.v.nbytes < params.nbytes / 4
