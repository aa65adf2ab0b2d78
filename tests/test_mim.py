"""Rectification module: identities, scalar trace oracles, gradients, and the
fused op against the chain of tensor ops it replaced."""

from __future__ import annotations

import numpy as np
import pytest

import helpers
import modalseg.mim as mim
import modalseg.tensor as T
from modalseg.mim import fuse, mim_forward, rectify_channel, rectify_spatial
from modalseg.tensor import NonFiniteError, Tensor, TensorError, backward, no_grad

from helpers import (check_grads, check_param_grad, cross_rectify, exp, init_mim_params,
                     mim_chain, sum_all, transpose)


def params_for(channels, seed=0):
    return init_mim_params(channels, np.random.default_rng(seed))


def np_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# channel rectification


def test_channel_zero_attention_is_identity():
    params = params_for((3,))
    params["mim.l0.ch.w2"].data = np.zeros((6, 6))
    params["mim.l0.ch.b2"].data = np.full(6, -40.0)
    rng = np.random.default_rng(1)
    f_a, f_b = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 4))
    (out_a, out_b), (w_a, w_b), _ = rectify_channel(np.stack([f_a, f_b]), params, 0)
    assert np.allclose(out_a, f_a, atol=1e-15)
    assert np.allclose(out_b, f_b, atol=1e-15)
    assert np.all(w_a < 1e-15) and np.all(w_b < 1e-15)


def test_channel_equal_inputs_shape_and_finiteness():
    params = params_for((3,))
    f = np.random.default_rng(2).normal(size=(3, 4, 4))
    out, att, _ = rectify_channel(np.stack([f, f]), params, 0)
    for t in out:
        assert t.shape == (3, 4, 4)
        assert np.all(np.isfinite(t))
    for w in att:
        assert np.all((w > 0) & (w < 1))


def test_channel_scalar_trace_oracle():
    params = params_for((1,))
    w1 = np.array([[0.5, -0.3], [0.2, 0.1], [-0.4, 0.6], [0.3, 0.2]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[0.7, -0.5], [0.4, 0.8]])
    b2 = np.array([0.05, -0.1])
    params["mim.l0.ch.w1"].data = w1
    params["mim.l0.ch.b1"].data = b1
    params["mim.l0.ch.w2"].data = w2
    params["mim.l0.ch.b2"].data = b2
    a, b = 0.8, -0.6
    (out_a, out_b), (w_a, w_b), _ = rectify_channel(np.array([[[[a]]], [[[b]]]]),
                                                    params, 0)

    z = np.array([a, a, b, b])  # avg and max of a single pixel coincide
    att = np_sigmoid(np_gelu(z @ w1 + b1) @ w2 + b2)
    assert abs(w_a.item() - att[0]) < 1e-12
    assert abs(w_b.item() - att[1]) < 1e-12
    assert abs(out_a.item() - (a + att[1] * b)) < 1e-12
    assert abs(out_b.item() - (b + att[0] * a)) < 1e-12


def test_channel_shape_mismatch():
    params = params_for((3,))
    with pytest.raises(TensorError):
        mim_forward(Tensor(np.ones((3, 4, 4))), Tensor(np.ones((3, 2, 2))),
                    params, 0)


# ---------------------------------------------------------------------------
# spatial rectification


def test_spatial_zero_attention_is_identity():
    params = params_for((3,))
    params["mim.l0.sp.w"].data = np.zeros((6, 2))
    params["mim.l0.sp.b"].data = np.full(2, -40.0)
    rng = np.random.default_rng(3)
    f_a, f_b = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 4))
    (out_a, out_b), _ = rectify_spatial(np.stack([f_a, f_b]), params, 0)
    assert np.allclose(out_a, f_a, atol=1e-15)
    assert np.allclose(out_b, f_b, atol=1e-15)


def test_spatial_constant_inputs_give_constant_outputs():
    params = params_for((2,), seed=4)
    pair = np.stack([np.full((2, 3, 5), 0.7), np.full((2, 3, 5), -0.2)])
    (out_a, out_b), _ = rectify_spatial(pair, params, 0)
    for out in (out_a, out_b):
        per_channel = out.reshape(2, -1)
        assert np.allclose(per_channel, per_channel[:, :1], atol=1e-14)


def test_spatial_scalar_trace_oracle():
    params = params_for((1,))
    spw = np.array([[0.6, -0.2], [-0.3, 0.5]])
    spb = np.array([0.1, -0.05])
    params["mim.l0.sp.w"].data = spw
    params["mim.l0.sp.b"].data = spb
    fa = np.array([[[0.4, -0.9], [1.2, 0.0]]])
    fb = np.array([[[-0.3, 0.8], [0.5, -1.1]]])
    (out_a, out_b), _ = rectify_spatial(np.stack([fa, fb]), params, 0)

    for i in range(2):
        for j in range(2):
            att = np_sigmoid(np.array([fa[0, i, j], fb[0, i, j]]) @ spw + spb)
            assert abs(out_a[0, i, j] - (fa[0, i, j] + att[1] * fb[0, i, j])) < 1e-12
            assert abs(out_b[0, i, j] - (fb[0, i, j] + att[0] * fa[0, i, j])) < 1e-12


# ---------------------------------------------------------------------------
# fusion


def test_fuse_averaging_weights():
    params = params_for((3,))
    params["mim.l0.fuse.w"].data = np.vstack([0.5 * np.eye(3), 0.5 * np.eye(3)])
    params["mim.l0.fuse.b"].data = np.zeros(3)
    rng = np.random.default_rng(5)
    f_a, f_b = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 4))
    out, _ = fuse(np.stack([f_a, f_b]), params, 0)
    assert np.allclose(out, (f_a + f_b) / 2, atol=1e-14)


def test_fuse_zero_inputs_zero_bias():
    params = params_for((3,), seed=6)
    out, _ = fuse(np.zeros((2, 3, 2, 2)), params, 0)
    assert np.array_equal(out, np.zeros((3, 2, 2)))


# ---------------------------------------------------------------------------
# gradients and invariants


def mim_loss(f_a, f_b, params):
    return sum_all(exp(T.mul(mim_forward(f_a, f_b, params, 0), 0.1)))


def test_full_pipeline_grads_wrt_inputs():
    params = params_for((2,), seed=7)
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4))
    check_grads(lambda x, y: mim_loss(x, y, params), [a, b])


@pytest.mark.parametrize("pname", ["mim.l0.fuse.w", "mim.l0.ch.w1", "mim.l0.ch.w2",
                                   "mim.l0.sp.w", "mim.l0.fuse.b"])
def test_param_grads(pname):
    params = params_for((2,), seed=9)
    rng = np.random.default_rng(10)
    f_a = Tensor(rng.normal(size=(2, 4, 4)))
    f_b = Tensor(rng.normal(size=(2, 4, 4)))
    backward(mim_loss(f_a, f_b, params))
    check_param_grad(lambda p: mim_loss(f_a, f_b, p), params, pname)


def test_forward_mixes_channels_without_transposes(monkeypatch):
    """The whole pipeline, both 1x1 mixes included, is one recorded op."""
    names = []
    record = T.record_op
    spy = lambda name, *rest: names.append(name) or record(name, *rest)
    monkeypatch.setattr(T, "record_op", spy)
    monkeypatch.setattr(mim, "record_op", spy)
    rng = np.random.default_rng(13)
    f_a, f_b = Tensor(rng.normal(size=(3, 4, 5))), Tensor(rng.normal(size=(3, 4, 5)))
    with no_grad():
        mim_forward(f_a, f_b, params_for((3,), seed=13), 0)
    assert names == ["mim"]


# ---------------------------------------------------------------------------
# the fused op against the chain of tensor ops it replaced


@pytest.mark.parametrize("seed", range(10))
def test_stacked_pair_matches_two_map_chain(seed):
    """``mim_forward`` against ``helpers.mim_chain``: forward byte-equal; input
    and parameter gradients equal up to summation order."""
    rng = np.random.default_rng(300 + seed)
    c, h, w = (int(v) for v in rng.integers(1, 6, size=3))
    arrays = rng.normal(size=(2, c, h, w))
    pick = rng.normal(size=(c, h, w))
    results = []
    for forward in (mim_forward, mim_chain):
        params = params_for((c,), seed=seed)
        f_a, f_b = (Tensor(x, requires_grad=True) for x in arrays)
        out = forward(f_a, f_b, params, 0)
        backward(sum_all(T.mul(out, Tensor(pick))))
        grads = {"f_a": f_a.grad, "f_b": f_b.grad}
        grads.update((k, v.grad) for k, v in params.items())
        results.append((out.data, grads))
    (out, grads), (ref_out, ref_grads) = results
    assert out.tobytes() == ref_out.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * scale, name


# (C, grid side) of each level of the benchmark's training pyramid
TRAIN_LEVELS = [(8, 8), (12, 4), (16, 2), (24, 1)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("layout", ["channel-last", "C"])
def test_mim_body_bit_identical_to_reference_body(seed, layout):
    """``mim_forward`` against ``helpers.mim_forward_reference``, the body it
    replaced: the output, the maps' gradients and all eight parameter
    gradients equal byte for byte. The maps are the channel-last strided
    views ``encode_batch`` produces, where the pooling order depends on the
    layout, or C-order maps; scale 30 saturates the sigmoids, so some
    attention gradients are exact zeros."""
    rng = np.random.default_rng(900 + seed)
    shapes = [(c, s, s) for c, s in TRAIN_LEVELS]
    shapes.append(tuple(int(v) for v in rng.integers(1, 7, size=3)))
    for c, h, w in shapes:
        arrays = rng.normal(size=(2, h, w, c)) * rng.choice([1e-3, 1.0, 30.0])
        pick = Tensor(rng.normal(size=(c, h, w)))
        runs = []
        for forward in (mim_forward, helpers.mim_forward_reference):
            params = params_for((c,), seed)
            if layout == "C":
                leaf = Tensor(arrays.transpose(0, 3, 1, 2).copy(), requires_grad=True)
                maps = T.unstack(leaf)
            else:
                leaf, maps = helpers.channel_last_maps(arrays)
            out = forward(maps[0], maps[1], params, 0)
            backward(sum_all(T.mul(out, pick)))
            runs.append([out.data.tobytes(), leaf.grad.tobytes()]
                        + [t.grad.tobytes() for t in params.values()])
        assert runs[0] == runs[1], (c, h, w)


def test_mim_gradients_through_channel_last_views():
    """Finite differences of every input of ``mim_forward`` fed the two
    channel-last views of one leaf, as ``masm_forward`` feeds it."""
    rng = np.random.default_rng(910)
    params = params_for((3,), seed=910)
    names = list(params)
    weights = Tensor(rng.normal(size=(3, 2, 3)))

    def build(leaf, *ws):
        maps = T.unstack(transpose(leaf, (0, 3, 1, 2)))
        return sum_all(T.mul(mim_forward(maps[1], maps[0], dict(zip(names, ws)), 0), weights))

    check_grads(build, [rng.normal(size=(2, 2, 3, 3)),
                        *(rng.normal(scale=0.5, size=t.shape) for t in params.values())])


@pytest.mark.parametrize("pname", ["ch.w2", "sp.w"])
def test_huge_attention_weights_raise_nonfinite(pname):
    """An overflowing attention logit raises, though its sigmoid would be a
    finite 1, in the fused op as in the chain."""
    rng = np.random.default_rng(14)
    maps = rng.uniform(1.0, 2.0, size=(2, 3, 4, 4))
    for forward in (mim_forward, mim_chain):
        params = params_for((3,), seed=14)
        params["mim.l0.ch.w1"].data = np.ones((12, 6))  # positive hidden units
        params[f"mim.l0.{pname}"].data = np.full(params[f"mim.l0.{pname}"].shape, 1e308)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            forward(Tensor(maps[0]), Tensor(maps[1]), params, 0)


def test_cross_rectify_records_one_op(monkeypatch):
    names = []
    record = helpers.record_op

    def spy(name, *rest):
        names.append(name)
        return record(name, *rest)

    monkeypatch.setattr(helpers, "record_op", spy)
    pair = Tensor(np.array([[[[1.0, 2.0]]], [[[3.0, 4.0]]]]), requires_grad=True)
    att = Tensor(np.array([[[[0.5]]], [[[0.25]]]]), requires_grad=True)
    out = cross_rectify(pair, att)
    assert names == ["cross_rectify"]
    # a + w_b * b and b + w_a * a
    assert np.array_equal(out.data, [[[[1.75, 3.0]]], [[[3.5, 5.0]]]])
    backward(sum_all(out))
    assert np.array_equal(pair.grad, [[[[1.5, 1.5]]], [[[1.25, 1.25]]]])
    assert np.array_equal(att.grad, [[[[3.0]]], [[[7.0]]]])


def test_attention_weights_in_unit_interval():
    for seed in range(10):
        params = params_for((3,), seed=seed)
        rng = np.random.default_rng(100 + seed)
        pair = rng.normal(size=(2, 3, 4, 4)) * 3
        _, (w_a, w_b), _ = rectify_channel(pair, params, 0)
        assert np.all((w_a > 0) & (w_a < 1))
        assert np.all((w_b > 0) & (w_b < 1))


def test_output_shape_matches_input_at_every_stage():
    params = params_for((4, 6), seed=11)
    rng = np.random.default_rng(12)
    for level, c in enumerate((4, 6)):
        pair = rng.normal(size=(2, c, 3, 5))
        (a1, b1), _, _ = rectify_channel(pair, params, level)
        (a2, b2), _ = rectify_spatial(np.stack([a1, b1]), params, level)
        out, _ = fuse(np.stack([a2, b2]), params, level)
        assert a1.shape == b1.shape == a2.shape == b2.shape == (c, 3, 5)
        assert out.shape == (c, 3, 5)
