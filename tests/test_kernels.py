"""The in-place numpy kernel bodies against the expressions they replaced.

Each rewritten body runs the same IEEE operations in the same order as its
reference in ``helpers``, only into fewer buffers, so results must be equal
bit for bit (``np.array_equal``), not merely close. The shapes are those the
benchmark workloads run: ``eval-subsets`` (CLI default model, 64x64 scenes,
widths 16/32/64/96, d_embed 64, K=5), ``train-masm`` (32x32, widths
8/12/16/24, d_embed 16, K=3) and the 1 x 2C vectors inside MIM. Every call
must also leave its inputs unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

import modalseg.tensor as T
from helpers import (channel_mix, check_grads, class_argmax_reference, gelu_grad_reference,
                     gelu_reference, layer_norm, layer_norm_reference, linear,
                     linear_reference, mean_reference, mix_reference, reshape,
                     resample_bilinear, sigmoid_reference, sum_all)
from modalseg.data import generate_scene
from modalseg.encoder import encode_batch
from modalseg.head import embed
from modalseg.masm import mean_feature
from modalseg.model import class_argmax, infer, init_model_params, scene_tensors
from modalseg.tensor import Tensor, no_grad
from modalseg.train import TrainConfig

SCALES = (1e-3, 1.0, 1e3)

# decode input maps, encoder token matrices (eval, then train) and MIM vectors
GELU_SHAPES = [(64, 16, 16), (16, 8, 8),
               (1024, 32), (256, 64), (64, 128), (16, 192),
               (1024, 16), (256, 24), (64, 32), (16, 48),
               (1, 16), (1, 24), (1, 32), (1, 48)]
# encoder tokens x stage width, eval then train
NORM_SHAPES = [(1024, 16), (256, 32), (64, 64), (16, 96),
               (1024, 8), (256, 12), (64, 16), (16, 24)]
# (tokens, in, out): patch embeddings and mixer MLPs, then the MIM channel MLP
LINEAR_SHAPES = [(1024, 48, 16), (1024, 16, 32), (1024, 32, 16),
                 (1024, 48, 8), (256, 12, 24), (1, 32, 16), (1, 96, 48), (1, 48, 48)]
# (C, h, w, D): head classifier (eval, then train), then MIM spatial and fuse
MIX_SHAPES = [(64, 16, 16, 5), (16, 8, 8, 3), (16, 8, 8, 2), (16, 8, 8, 8), (48, 1, 1, 24)]


def draws(shape, seed):
    """Normal draws at each of SCALES, plus uniform draws up to 1e3."""
    rng = np.random.default_rng(seed)
    out = [rng.standard_normal(shape) * s for s in SCALES]
    out.append(rng.uniform(-1e3, 1e3, size=shape))
    return out


def unchanged(*arrays):
    """Copies of ``arrays`` and a check that the originals still equal them."""
    saved = [a.copy() for a in arrays]
    return lambda: all(np.array_equal(a, s) for a, s in zip(arrays, saved))


def same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("shape", GELU_SHAPES)
def test_gelu_matches_reference_bitwise(shape):
    for x in draws(shape, 1):
        check = unchanged(x)
        out, th = T._gelu(x)
        ref_out, ref_th = gelu_reference(x)
        assert same(out, ref_out) and same(th, ref_th)
        assert check()
        g = np.random.default_rng(2).standard_normal(shape)
        check = unchanged(g, x, th)
        assert same(T._gelu_grad(g, x, th), gelu_grad_reference(g, x, th))
        assert check()


# the MIM attention logits: channel (1 x 2C) and spatial (2 x h x w), train-masm
SIGMOID_SHAPES = [(1, 16), (1, 24), (1, 32), (1, 48),
                  (2, 8, 8), (2, 4, 4), (2, 2, 2), (2, 1, 1)]


@pytest.mark.parametrize("shape", SIGMOID_SHAPES)
def test_sigmoid_matches_reference_bitwise(shape):
    for x in draws(shape, 12):  # the uniform draws saturate
        check = unchanged(x)
        assert same(T._sigmoid(x), sigmoid_reference(x))
        assert check()


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_layer_norm_matches_reference_bitwise(shape):
    rng = np.random.default_rng(3)
    for x in draws(shape, 4):
        gamma, beta = rng.standard_normal(shape[-1:]), rng.standard_normal(shape[-1:])
        check = unchanged(x, gamma, beta)
        out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        assert same(out, layer_norm_reference(x, gamma, beta))
        assert check()


@pytest.mark.parametrize("n, c, d", LINEAR_SHAPES)
def test_linear_matches_reference_bitwise(n, c, d):
    rng = np.random.default_rng(5)
    for x in draws((n, c), 6):
        w, b = rng.standard_normal((c, d)), rng.standard_normal(d) * 1e3
        check = unchanged(x, w, b)
        assert same(linear(Tensor(x), Tensor(w), Tensor(b)).data, linear_reference(x, w, b))
        assert check()


@pytest.mark.parametrize("c, h, w, d", MIX_SHAPES)
def test_mix_matches_reference_bitwise(c, h, w, d):
    rng = np.random.default_rng(7)
    for f in draws((c, h, w), 8):
        wt, b = rng.standard_normal((c, d)), rng.standard_normal(d) * 1e3
        check = unchanged(f, wt, b)
        out, tokens = T._mix(f, wt, b)
        assert same(out, mix_reference(f, wt, b))
        assert np.shares_memory(tokens, f)  # a view the gradient reuses, not a copy
        assert same(channel_mix(Tensor(f), Tensor(wt), Tensor(b)).data, out)
        assert check()


@pytest.mark.parametrize("shape", [(64, 16, 16), (16, 8, 8), (24, 1, 1), ()])
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_mean_feature_matches_reference_bitwise(shape, count):
    rng = np.random.default_rng(9)
    arrays = [rng.standard_normal(shape) * rng.choice(SCALES) for _ in range(count)]
    check = unchanged(*arrays)
    out = mean_feature([Tensor(a) for a in arrays]).data
    assert same(out, mean_reference(arrays))
    assert check()
    assert not any(np.shares_memory(out, a) for a in arrays)  # one feature too


def test_same_size_resample_returns_the_input_array():
    """``_interp_matrix(n, n)`` is the identity, so a same-size resample gives
    the input's values, and its gradient passes through unchanged."""
    rng = np.random.default_rng(10)
    f = Tensor(rng.standard_normal((16, 16, 16)), requires_grad=True)
    check = unchanged(f.data)
    out = resample_bilinear(f, 16, 16)
    assert same(out.data, f.data)
    g = rng.standard_normal(f.shape)
    T.backward(linear(reshape(out, (1, f.size)),
                        Tensor(g.reshape(-1, 1)), Tensor(np.zeros(1))))
    assert same(f.grad, g)
    assert check()
    pick = Tensor(rng.standard_normal((2, 3, 4)))
    check_grads(lambda x: sum_all(T.mul(resample_bilinear(x, 3, 4), pick)),
                [rng.standard_normal((2, 3, 4))])


@pytest.mark.parametrize("shape", [(5, 64, 64), (3, 32, 32), (2, 8, 8), (16, 4, 4)])
def test_class_argmax_matches_numpy_argmax(shape):
    rng = np.random.default_rng(11)
    stacks = [rng.standard_normal(shape) * s for s in SCALES]
    stacks.append(rng.integers(0, 3, size=shape).astype(np.float64))  # many ties
    stacks.append(np.zeros(shape))
    for scores in stacks:
        check = unchanged(scores)
        assert same(class_argmax(scores), class_argmax_reference(scores))
        assert check()


def test_infer_breaks_exact_ties_toward_the_lowest_class():
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8).model_config(
        3, ("camera", "depth"))
    params = init_model_params(cfg, 0)
    scene = generate_scene(4, 32, 32, 3, m=2)
    with no_grad():
        embedded = T.unstack(embed(encode_batch(scene_tensors(scene), cfg, params),
                                   params))
    params["head.cls.w"].data = np.zeros_like(params["head.cls.w"].data)
    params["head.cls.b"].data = np.full(3, 0.25)  # every class plane equal
    assert not infer(embedded, cfg, params, (32, 32)).any()
    params["head.cls.b"].data = np.array([0.0, 1.0, 1.0])  # 1 and 2 tie above 0
    assert (infer(embedded, cfg, params, (32, 32)) == 1).all()
