"""Tensor engine: op semantics, error contracts, and gradient checks.

Every differentiable op is checked against a central finite-difference oracle
on 20 seeded random inputs. Nondifferentiable kinks (max ties, clamp edges)
are kept away from the sample points so the oracle stays valid.
"""

from __future__ import annotations

import ast
import weakref
from pathlib import Path

import numpy as np
import pytest

import modalseg.tensor as T
from modalseg.tensor import NonFiniteError, Tensor, TensorError, backward, no_grad

import helpers
from helpers import (FD_TOL, channel_mix, check_grads, clamp, concat, cross_rectify, div,
                     exp, gelu, layer_norm, linear, log, max_rel_err, pool_global, reshape,
                     resample_bilinear, sigmoid, sum_all, transpose)

SEEDS = range(20)


@pytest.fixture(autouse=True)
def _fresh_tape():
    T.active_tape().clear()
    yield
    T.active_tape().clear()


# ---------------------------------------------------------------------------
# construction and invariants


def test_tensor_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_tensor_rejects_empty():
    with pytest.raises(TensorError):
        Tensor(np.zeros((0, 3)))


def test_op_output_nonfinite_is_error():
    x = Tensor([1000.0])
    with pytest.raises(NonFiniteError):
        exp(x)


def test_item_requires_scalar():
    with pytest.raises(TensorError):
        Tensor([1.0, 2.0]).item()


# ---------------------------------------------------------------------------
# elementwise


def test_add_values():
    out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_mul_by_one_is_exact_identity():
    x = Tensor([0.1, -7.25, 3e-200])
    out = T.mul(x, 1.0)
    assert out.data.tobytes() == x.data.tobytes()


def test_elementwise_shape_mismatch():
    with pytest.raises(TensorError):
        T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        div(Tensor([1.0]), Tensor([0.0]))
    with pytest.raises(ZeroDivisionError):
        div(Tensor([1.0]), 0.0)


def test_grad_of_mul_matches_spec_example():
    a, b = Tensor([2.0], requires_grad=True), Tensor([5.0], requires_grad=True)
    backward(sum_all(T.mul(a, b)))
    assert max_rel_err(a.grad, np.array([5.0])) < FD_TOL
    assert max_rel_err(b.grad, np.array([2.0])) < FD_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_elementwise_grads(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + np.where(rng.random((3, 4)) < 0.5, -2.0, 2.0)
    # b bounded away from 0 (div)
    check_grads(lambda x, y: sum_all(T.add(x, y)), [a, b])
    check_grads(lambda x, y: sum_all(T.mul(x, y)), [a, b])
    check_grads(lambda x, y: sum_all(div(x, y)), [a, b])
    check_grads(lambda x: sum_all(T.mul(x, 3.5)), [a])
    check_grads(lambda x: sum_all(div(x, -1.7)), [a])


# ---------------------------------------------------------------------------
# linear layer (matrix product plus bias) and structure: the ops of the
# encoder's reference chain in ``helpers``


def test_matmul_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = linear(Tensor(np.eye(2)), Tensor(x), Tensor(np.zeros(2)))
    assert np.array_equal(out.data, x)


def test_matmul_hand_values():
    out = linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]),
                   Tensor([0.0]))
    assert np.array_equal(out.data, [[3.0], [7.0]])
    out = linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]),
                   Tensor([0.5]))
    assert np.array_equal(out.data, [[3.5], [7.5]])


def test_matmul_dim_mismatch():
    with pytest.raises(TensorError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    with pytest.raises(TensorError):
        linear(Tensor(np.ones(3)), Tensor(np.ones((3, 2))), Tensor(np.ones(2)))
    with pytest.raises(TensorError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))))


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_grads(seed):
    rng = np.random.default_rng(100 + seed)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    pick = Tensor(rng.normal(size=(3, 2)))
    c = rng.normal(size=2)
    check_grads(lambda x, y, z: sum_all(T.mul(linear(x, y, z), pick)), [a, b, c],
                tol=1e-5)


def _matmul(a, b):
    """Matrix product as its own op; with ``_add_bias``, the reference chain for
    ``linear``."""
    ad, bd = a.data, b.data

    def bwd(g):
        T.accumulate_grad(a, g @ bd.T)
        T.accumulate_grad(b, ad.T @ g)

    return T.record_op("matmul", ad @ bd, (a, b), bwd)


def _add_bias(x, b):
    """Row-wise bias add as its own op."""
    c = b.shape[0]

    def bwd(g):
        T.accumulate_grad(x, g)
        T.accumulate_grad(b, g.reshape(-1, c).sum(axis=0))

    return T.record_op("add_bias", x.data + b.data, (x, b), bwd)


@pytest.mark.parametrize("seed", range(10))
def test_linear_bit_identical_to_matmul_then_add_bias(seed):
    rng = np.random.default_rng(1200 + seed)
    n, c, d = (int(v) for v in rng.integers(1, 9, size=3))
    arrays = [rng.normal(size=(c, n)), rng.normal(size=(c, d)), rng.normal(size=d)]
    pick = Tensor(rng.normal(size=(n, d)))
    runs = []
    for op in (linear, lambda x, w, b: _add_bias(_matmul(x, w), b)):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        # a transposed token matrix: not C-contiguous, and x gets two grads
        x = transpose(leaves[0], (1, 0))
        out = op(x, leaves[1], leaves[2])
        again = op(x, leaves[1], leaves[2])
        backward(sum_all(T.add(T.mul(out, pick), T.mul(again, out))))
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
    assert runs[0] == runs[1]


def test_linear_records_one_op(monkeypatch):
    names = []
    record = T.record_op

    def spy(name, *rest):
        names.append(name)
        return record(name, *rest)

    monkeypatch.setattr(helpers, "record_op", spy)  # the helpers' own binding
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    linear(x, Tensor(np.ones((2, 4))), Tensor(np.ones(4)))
    assert names == ["linear"]


@pytest.mark.parametrize("seed", SEEDS)
def test_structure_grads(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 3, 4))
    v = rng.normal(size=4)
    check_grads(lambda x: sum_all(exp(reshape(x, (6, 4)))), [a])
    check_grads(lambda x: sum_all(exp(transpose(x, (2, 0, 1)))), [a])
    check_grads(lambda x, y: sum_all(exp(concat([x, y], axis=1))), [a, b])
    w = rng.normal(size=(4, 4))
    check_grads(lambda x, y, z: sum_all(exp(linear(reshape(x, (6, 4)), y, z))),
                [a, w, v])
    check_grads(lambda x, y: sum_all(exp(T.stack([x, y]))), [a, b])
    check_grads(lambda x: sum_all(T.mul(exp(T.unstack(x)[1]), T.unstack(x)[0])), [a])


def test_structure_errors():
    t = Tensor(np.ones((2, 3)))
    with pytest.raises(TensorError):
        reshape(t, (4, 2))
    with pytest.raises(TensorError):
        transpose(t, (0, 0))
    with pytest.raises(TensorError):
        concat([t, Tensor(np.ones((2, 4)))], axis=0)
    with pytest.raises(TensorError):
        concat([], axis=0)
    with pytest.raises(TensorError):
        linear(t, Tensor(np.ones((3, 2))), Tensor(np.ones(3)))
    with pytest.raises(TensorError):
        T.stack([])
    with pytest.raises(TensorError):
        T.stack([t, Tensor(np.ones((3, 2)))])
    with pytest.raises(TensorError):
        T.unstack(Tensor(np.ones(4)))


# ---------------------------------------------------------------------------
# pointwise nonlinearities


@pytest.mark.parametrize("seed", SEEDS)
def test_pointwise_grads(seed):
    rng = np.random.default_rng(300 + seed)
    x = rng.normal(size=(3, 5))
    pos = rng.uniform(0.5, 2.0, size=(3, 5))
    check_grads(lambda t: sum_all(exp(t)), [x])
    check_grads(lambda t: sum_all(log(t)), [pos])
    check_grads(lambda t: sum_all(sigmoid(t)), [x])
    check_grads(lambda t: sum_all(gelu(t)), [x])


def test_gelu_matches_cube_formula():
    # x*x*x and x**3 may differ by an ulp; near -4 the 1 + tanh(u) term
    # cancels, so the error is bounded relative to max(|gelu(x)|, 1)
    x = np.linspace(-60.0, 60.0, 200_001)
    want = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
    got = gelu(Tensor(x)).data
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("seed", SEEDS)
def test_clamp_grads_away_from_edges(seed):
    rng = np.random.default_rng(400 + seed)
    x = rng.uniform(-3, 3, size=(4, 4))
    x[np.abs(np.abs(x) - 1.0) < 1e-3] = 0.0  # keep off the clamp boundaries
    check_grads(lambda t: sum_all(clamp(t, -1.0, 1.0)), [x])


def test_clamp_values_and_errors():
    out = clamp(Tensor([-5.0, 0.25, 5.0]), -1.0, 1.0)
    assert np.array_equal(out.data, [-1.0, 0.25, 1.0])
    with pytest.raises(TensorError):
        clamp(Tensor([0.0]), 2.0, 1.0)


def test_log_domain_error():
    with pytest.raises(TensorError):
        log(Tensor([1.0, -1.0]))


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm_grads(seed):
    rng = np.random.default_rng(500 + seed)
    x = rng.normal(size=(4, 6))
    gamma = rng.uniform(0.5, 1.5, size=6)
    beta = rng.normal(size=6) * 0.1
    pick = Tensor(rng.normal(size=(4, 6)))
    check_grads(
        lambda a, g, b: sum_all(T.mul(layer_norm(a, g, b), pick)),
        [x, gamma, beta])


def test_layer_norm_normalizes():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(8, 16)))
    out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-4)


# ---------------------------------------------------------------------------
# spatial ops


def test_pool_constant_map():
    f = Tensor(np.full((3, 4, 5), 3.0))
    for kind in ("avg", "max"):
        assert np.array_equal(pool_global(f, kind).data, [3.0, 3.0, 3.0])


def test_pool_single_pixel_identity():
    f = Tensor(np.array([[[2.0]], [[-1.5]]]))
    for kind in ("avg", "max"):
        assert np.array_equal(pool_global(f, kind).data, [2.0, -1.5])


def test_pool_hand_values():
    f = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    assert pool_global(f, "avg").data[0] == 2.5
    assert pool_global(f, "max").data[0] == 4.0
    # a stacked 2 x C x h x w pair pools to 2 x C; the leading axes stay
    pair = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]], [[0.0, -1.0], [7.0, 1.0]]],
                            [[[-2.0, -4.0], [-6.0, -8.0]], [[5.0, 5.0], [5.0, 5.0]]]]))
    assert np.array_equal(pool_global(pair, "avg").data, [[2.5, 1.75], [-5.0, 5.0]])
    assert np.array_equal(pool_global(pair, "max").data, [[4.0, 7.0], [-2.0, 5.0]])
    pair = Tensor(pair.data, requires_grad=True)
    weights = Tensor([[1.0, 2.0], [3.0, 4.0]])
    backward(sum_all(T.mul(pool_global(pair, "max"), weights)))
    want = np.zeros((2, 2, 2, 2))
    want[0, 0, 1, 1], want[0, 1, 1, 0], want[1, 0, 0, 0], want[1, 1, 0, 0] = 1, 2, 3, 4
    assert np.array_equal(pair.grad, want)  # ties (all 5s) go to the first max


def test_pool_bad_kind_and_rank():
    with pytest.raises(TensorError):
        pool_global(Tensor(np.ones((3, 2, 2))), "sum")
    with pytest.raises(TensorError):
        pool_global(Tensor(np.ones((3, 2))), "avg")


@pytest.mark.parametrize("seed", SEEDS)
def test_pool_grads(seed):
    rng = np.random.default_rng(600 + seed)
    f = rng.normal(size=(3, 4, 5))
    pair = rng.normal(size=(2, 3, 4, 5))
    for arr in (f, pair):
        check_grads(lambda t: sum_all(exp(pool_global(t, "avg"))), [arr])
        check_grads(lambda t: sum_all(exp(pool_global(t, "max"))), [arr])


@pytest.mark.parametrize("seed", SEEDS)
def test_channel_and_spatial_scaling_grads(seed):
    """``helpers.cross_rectify``, the reference for ``mim.mim_forward``'s
    rectify stages, with per-channel and per-pixel attention."""
    rng = np.random.default_rng(700 + seed)
    pair = rng.normal(size=(2, 3, 4, 5))
    w = rng.normal(size=(2, 3, 1, 1))
    m = rng.normal(size=(2, 1, 4, 5))
    check_grads(lambda a, b: sum_all(exp(cross_rectify(a, b))), [pair, w])
    check_grads(lambda a, b: sum_all(exp(cross_rectify(a, b))), [pair, m])


def test_scaling_shape_errors():
    pair = Tensor(np.ones((2, 3, 4, 5)))
    for att_shape in ((2, 4, 1, 1), (2, 1, 5, 4), (2, 3), (1, 3, 1, 1), (2, 3, 4, 5, 1)):
        with pytest.raises(TensorError):
            cross_rectify(pair, Tensor(np.ones(att_shape)))
    with pytest.raises(TensorError):  # not a pair
        cross_rectify(Tensor(np.ones((3, 3, 4, 5))), Tensor(np.ones((3, 3, 1, 1))))


# ---------------------------------------------------------------------------
# channel mixing (1x1 projection)


def _channel_mix_by_composition(f, w, b):
    """The reshape/transpose/linear chain that channel_mix fuses."""
    c, h, wd = f.shape
    tokens = transpose(reshape(f, (c, h * wd)), (1, 0))
    tokens = linear(tokens, w, b)
    return reshape(transpose(tokens, (1, 0)), (w.shape[1], h, wd))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("loss", ["weighted", "square"])
def test_channel_mix_bit_identical_to_composition(seed, loss):
    rng = np.random.default_rng(1100 + seed)
    c, d, h, w = (int(v) for v in rng.integers(1, 9, size=4))
    arrays = [rng.normal(size=(c, w, h)), rng.normal(size=(c, d)), rng.normal(size=d)]
    pick = Tensor(rng.normal(size=(d, h, w)))
    runs = []
    for op in (channel_mix, _channel_mix_by_composition):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        # a transposed input map, as the encoder hands over: not C-contiguous
        out = op(transpose(leaves[0], (0, 2, 1)), leaves[1], leaves[2])
        other = pick if loss == "weighted" else out
        backward(sum_all(T.mul(out, other)))
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
    assert runs[0] == runs[1]


def test_channel_mix_shape_errors():
    f = Tensor(np.ones((3, 4, 5)))
    w, b = Tensor(np.ones((3, 2))), Tensor(np.ones(2))
    with pytest.raises(TensorError):
        channel_mix(Tensor(np.ones((3, 20))), w, b)
    with pytest.raises(TensorError):
        channel_mix(f, Tensor(np.ones((4, 2))), b)
    with pytest.raises(TensorError):
        channel_mix(f, Tensor(np.ones(3)), b)
    with pytest.raises(TensorError):
        channel_mix(f, w, Tensor(np.ones(3)))


# ---------------------------------------------------------------------------
# bilinear resampling


def bilinear_oracle(f: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Scalar-loop reference: half-pixel source mapping, edge clamping."""
    c, h, w = f.shape
    out = np.zeros((c, h2, w2))
    for ch in range(c):
        for i in range(h2):
            sy = (i + 0.5) * h / h2 - 0.5
            y0 = int(np.floor(sy))
            ty = sy - y0
            y0c, y1c = min(max(y0, 0), h - 1), min(max(y0 + 1, 0), h - 1)
            for j in range(w2):
                sx = (j + 0.5) * w / w2 - 0.5
                x0 = int(np.floor(sx))
                tx = sx - x0
                x0c, x1c = min(max(x0, 0), w - 1), min(max(x0 + 1, 0), w - 1)
                out[ch, i, j] = ((1 - ty) * (1 - tx) * f[ch, y0c, x0c]
                                 + (1 - ty) * tx * f[ch, y0c, x1c]
                                 + ty * (1 - tx) * f[ch, y1c, x0c]
                                 + ty * tx * f[ch, y1c, x1c])
    return out


def test_resample_identity_is_bit_identical():
    rng = np.random.default_rng(13)
    f = Tensor(rng.normal(size=(2, 5, 7)))
    out = resample_bilinear(f, 5, 7)
    assert out.data.tobytes() == f.data.tobytes()


def test_resample_constant_map():
    f = Tensor(np.full((2, 3, 3), -1.25))
    out = resample_bilinear(f, 8, 5)
    assert np.allclose(out.data, -1.25, atol=1e-14)


def test_resample_2x2_to_4x4_matches_oracle():
    rng = np.random.default_rng(17)
    f = rng.normal(size=(1, 2, 2))
    got = resample_bilinear(Tensor(f), 4, 4).data
    assert np.max(np.abs(got - bilinear_oracle(f, 4, 4))) < 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_resample_matches_oracle_random_sizes(seed):
    rng = np.random.default_rng(800 + seed)
    h, w = rng.integers(1, 7, size=2)
    h2, w2 = rng.integers(1, 9, size=2)
    f = rng.normal(size=(2, h, w))
    got = resample_bilinear(Tensor(f), int(h2), int(w2)).data
    assert np.max(np.abs(got - bilinear_oracle(f, int(h2), int(w2)))) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_resample_grads(seed):
    rng = np.random.default_rng(900 + seed)
    f = rng.normal(size=(2, 3, 4))
    check_grads(lambda t: sum_all(exp(resample_bilinear(t, 5, 7))), [f])
    check_grads(lambda t: sum_all(exp(resample_bilinear(t, 2, 2))), [f])


def test_interp_matrix_is_cached_and_read_only():
    mat = T._interp_matrix(3, 7)
    assert T._interp_matrix(3, 7) is mat
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0


def test_resample_rejects_bad_target():
    with pytest.raises(TensorError):
        resample_bilinear(Tensor(np.ones((1, 2, 2))), 0, 4)


# ---------------------------------------------------------------------------
# backward contract


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3) + 1.0, requires_grad=True)
    backward(sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_zero_scaled_loss_gives_zeros():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    backward(sum_all(T.mul(x, 0.0)))
    assert np.array_equal(x.grad, np.zeros(3))


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, 2.0)
    with pytest.raises(TensorError):
        backward(y)


def test_backward_rejects_detached_loss():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        loss = sum_all(T.mul(x, 2.0))
    with pytest.raises(TensorError):
        backward(loss)


def test_fanout_accumulates_sum_of_branches():
    x = Tensor([1.5, -0.5], requires_grad=True)
    loss = T.add(sum_all(T.mul(x, 3.0)), sum_all(T.mul(x, x)))
    backward(loss)
    assert np.allclose(x.grad, 3.0 + 2.0 * x.data, atol=1e-12)


def test_tape_cleared_after_backward():
    x = Tensor([2.0], requires_grad=True)
    backward(sum_all(sigmoid(x)))
    assert len(T.active_tape()) == 0


def test_backward_releases_each_node_before_the_next_runs():
    """Inside an earlier op's backward, the later op's saved array is already
    freed, its output holds no gradient and its node is off the tape."""
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    seen = {}

    def earlier_bwd(g):
        tape = T.active_tape()
        seen["saved alive"] = saved_ref() is not None
        seen["later grad"] = later.grad
        seen["later on tape"] = any(out is later for out, _ in tape._nodes)
        seen["later index"] = later._node_index
        T.accumulate_grad(x, 2.0 * g)

    earlier = T.record_op("earlier", 2.0 * x.data, (x,), earlier_bwd)

    def record_later(t: Tensor) -> tuple[Tensor, weakref.ref]:
        saved = t.data * t.data  # only the closure keeps this array

        def bwd(g):
            T.accumulate_grad(t, g * 2.0 * t.data + 0.0 * saved)

        return T.record_op("later", np.sum(saved), (t,), bwd), weakref.ref(saved)

    later, saved_ref = record_later(earlier)
    assert saved_ref() is not None
    backward(later)
    assert seen == {"saved alive": False, "later grad": None, "later on tape": False,
                    "later index": None}
    assert np.array_equal(x.grad, 8.0 * x.data)  # d(sum (2x)^2)/dx


def test_after_backward_only_leaves_keep_grads():
    x = Tensor([0.5, -1.5], requires_grad=True)
    y = T.mul(x, x)
    z = T.add(y, x)
    loss = sum_all(T.mul(z, 3.0))
    unused = T.mul(y, 2.0)  # recorded after the loss: dropped, never run
    backward(loss)
    assert x.grad is not None
    assert all(t.grad is None and t._node_index is None for t in (y, z, loss, unused))
    assert len(T.active_tape()) == 0


def test_backward_that_raises_still_empties_the_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    a = T.mul(x, 2.0)

    def failing(g):
        raise RuntimeError("backward failed")

    b = T.record_op("failing", a.data + 1.0, (a,), failing)
    c = T.mul(b, 3.0)
    loss = sum_all(c)
    with pytest.raises(RuntimeError, match="backward failed"):
        backward(loss)
    assert len(T.active_tape()) == 0
    assert all(t._node_index is None for t in (a, b, c, loss))
    assert all(t.grad is None for t in (a, b, c, loss))


def test_no_grad_records_nothing():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = T.mul(x, 2.0)
    assert not y.requires_grad
    assert len(T.active_tape()) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_composite_two_matmuls_softmax(seed):
    rng = np.random.default_rng(1000 + seed)
    x = rng.normal(size=(2, 3))
    w1 = rng.normal(size=(3, 4))
    w2 = rng.normal(size=(4, 3))
    pick = Tensor(rng.normal(size=(2, 3)))
    b1, b2 = rng.normal(size=4), rng.normal(size=3)

    def build(xv, a, b, c1, c2):
        return sum_all(T.mul(gelu(linear(linear(xv, a, c1), b, c2)), pick))

    check_grads(build, [x, w1, w2, b1, b2], tol=FD_TOL, eps=1e-5)


def test_determinism_same_seed_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 4)))
        w = T.uniform_param(np.random.default_rng(43), (4, 4), fan_in=4)
        b = T.uniform_param(np.random.default_rng(44), (4,), fan_in=4)
        return sigmoid(linear(x, w, b)).data.tobytes()

    assert run() == run()


def test_uniform_param_bounds():
    w = T.uniform_param(np.random.default_rng(0), (50, 50), fan_in=25)
    assert np.all(np.abs(w.data) <= 0.2)
    assert w.requires_grad


# ---------------------------------------------------------------------------
# stacking along a new leading axis


def test_stack_unstack_round_trip_and_ops(monkeypatch):
    rng = np.random.default_rng(40)
    parts = [Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True) for _ in range(5)]
    names = []
    real = T.record_op

    def counting(name, *args):
        names.append(name)
        return real(name, *args)

    monkeypatch.setattr(T, "record_op", counting)
    stacked = T.stack(parts)
    back = T.unstack(stacked)
    assert names == ["stack"]  # the views record nothing
    assert len(T.active_tape()) == 1
    assert stacked.shape == (5, 2, 3, 4)
    for a, b in zip(parts, back):
        assert a.data.tobytes() == b.data.tobytes()
        assert np.shares_memory(b.data, stacked.data) and b.requires_grad
    T.active_tape().clear()


@pytest.mark.parametrize("seed", SEEDS)
def test_unstack_view_gradients(seed):
    """Finite differences through unstack views: of a recorded op's output
    whose view 0 is consumed twice while the base is consumed directly too
    (view 1 unused: its slice gets only the direct gradient), of a leaf, and
    of a view of a view."""
    rng = np.random.default_rng(700 + seed)
    a = rng.normal(size=(3, 2, 2))
    pick = Tensor(rng.normal(size=(3, 2, 2)))

    def twice_and_direct(t):
        x = T.mul(t, 1.5)
        v = T.unstack(x)
        return T.add(T.add(sum_all(exp(v[0])), sum_all(T.mul(v[0], v[2]))),
                     sum_all(T.mul(gelu(x), pick)))

    check_grads(twice_and_direct, [a])
    check_grads(lambda t: sum_all(T.mul(exp(T.unstack(t)[2]), T.unstack(t)[0])), [a])
    check_grads(lambda t: sum_all(exp(T.unstack(T.unstack(T.mul(t, 2.0))[1])[0])), [a])


def test_unstack_views_route_into_the_parent_gradient():
    """A view holds no gradient and sits on no tape: its consumers add into
    their slice of the parent's ``.grad``, and the parent's node runs after
    all of them."""
    t = Tensor(np.arange(12.0).reshape(3, 2, 2), requires_grad=True)
    seen = []

    def parent_bwd(g):
        seen.append(g.copy())
        T.accumulate_grad(t, g)

    x = T.record_op("parent", t.data * 1.0, (t,), parent_bwd)
    v = T.unstack(x)
    loss = T.add(sum_all(T.mul(v[0], 3.0)), sum_all(T.mul(v[2], 5.0)))
    assert all(view._node_index is None for view in v)
    backward(loss)
    want = np.stack([np.full((2, 2), 3.0), np.zeros((2, 2)), np.full((2, 2), 5.0)])
    assert len(seen) == 1 and np.array_equal(seen[0], want)
    assert np.array_equal(t.grad, want)
    assert all(view.grad is None for view in v) and x.grad is None
    with no_grad():
        assert not any(view.requires_grad for view in T.unstack(x))


@pytest.mark.parametrize("seed", range(5))
def test_deinterleave_view_gradients(seed):
    """Finite differences through deinterleaved views of a recorded op's
    output, one view consumed twice and the base consumed directly too, and
    through unstack views of a deinterleaved view's parent."""
    rng = np.random.default_rng(720 + seed)
    pick = Tensor(rng.normal(size=(6, 2, 2)))

    def build(t):
        x = T.mul(t, 1.5)
        v = T.deinterleave(x, 3)
        u = T.unstack(x)
        return T.add(T.add(sum_all(exp(v[0])), sum_all(T.mul(v[0], v[2]))),
                     T.add(sum_all(T.mul(x, pick)), sum_all(exp(u[4]))))

    check_grads(build, [rng.normal(size=(6, 2, 2))])


def test_deinterleave_views_route_into_strided_slices():
    t = Tensor(np.arange(24.0).reshape(6, 2, 2), requires_grad=True)
    x = T.mul(t, 1.0)
    views = T.deinterleave(x, 3)
    assert [v.shape for v in views] == [(2, 2, 2)] * 3
    assert all(np.shares_memory(v.data, x.data) for v in views)
    assert np.array_equal(views[1].data, x.data[1::3])
    backward(sum_all(T.mul(views[1], 2.0)))
    want = np.zeros((6, 2, 2))
    want[1::3] = 2.0
    assert np.array_equal(t.grad, want)
    with pytest.raises(TensorError):
        T.deinterleave(Tensor(np.ones((5, 2))), 3)
    with pytest.raises(TensorError):
        T.deinterleave(Tensor(np.ones(6)), 3)
    with pytest.raises(TensorError):  # a strided view's slices are not its rows
        T.unstack(T.deinterleave(T.mul(t, 1.0), 3)[0])
    T.active_tape().clear()


# ---------------------------------------------------------------------------
# engine contract


def test_every_public_tensor_function_has_a_caller_in_src():
    """The package keeps only what the program runs, so code that only tests
    use does not come back. Every public top-level function or class of every
    ``src/modalseg`` module is named in ``src/modalseg`` or ``bench/`` outside
    its own definition (an import alone is no use). ``tensor.py``'s functions
    meet a stricter rule: each is named in ``src/modalseg`` as ``T.<name>`` on
    an alias of the module, in ``from .tensor import <name>``, or bare inside
    ``tensor.py``. The alias matters: ``np.exp`` is no use of an ``exp`` op."""
    src = Path(T.__file__).parent
    engine = ast.parse((src / "tensor.py").read_text())
    public = {node.name for node in engine.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases |= {a.asname or a.name for a in node.names if a.name == "tensor"}
                elif node.module == "tensor":
                    used |= {a.name for a in node.names}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add(node.attr)
            elif path.name == "tensor.py" and isinstance(node, ast.Name):
                used.add(node.id)
    assert "stack" in public and "record_op" in used
    unused = sorted(public - used)
    assert not unused, f"public tensor functions without a caller in src: {unused}"

    definitions, named = {}, set()
    for path in [*src.glob("*.py"), *(src.parents[1] / "bench").glob("*.py")]:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and path.parent == src and not own.startswith("_"):
                definitions[own] = path.name
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:  # a recursive call is no caller
                    named.add(name)
    assert {"run_mass_eval", "TrainConfig", "encode_batch"} <= definitions.keys()
    uncalled = sorted(f"{definitions[n]}:{n}" for n in definitions.keys() - named)
    assert not uncalled, f"public names no program code uses: {uncalled}"
