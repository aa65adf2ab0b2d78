"""Shared-weight hierarchical encoder: shapes, purity, gradients."""

from __future__ import annotations

import numpy as np
import pytest

import modalseg.encoder as encoder
import modalseg.tensor as T
from modalseg.encoder import encode_batch, encode_stage
from modalseg.tensor import Tensor, TensorError, backward, no_grad
from modalseg.train import TrainConfig

from helpers import (check_param_grad, encode_batch_chain, encode_stage_chain,
                     init_encoder_params, split_pyramids, sum_all, transpose)

SMALL = TrainConfig(stage_channels=(4, 6, 8, 10)).model_config(2, ("camera",))


def small_params(seed=0):
    return init_encoder_params(SMALL, np.random.default_rng(seed))


def test_pyramid_shapes_64():
    cfg = TrainConfig().model_config(2, ("camera",))  # default channels 16/32/64/96
    params = init_encoder_params(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    with no_grad():
        pyr = split_pyramids(encode_batch([Tensor(rng.random((3, 64, 64)))], cfg, params))[0]
    assert [f.shape for f in pyr] == [(16, 16, 16), (32, 8, 8), (64, 4, 4), (96, 2, 2)]


def test_pyramid_shapes_non_square():
    params = small_params()
    with no_grad():
        image = Tensor(np.random.default_rng(3).random((3, 32, 64)))
        pyr = split_pyramids(encode_batch([image], SMALL, params))[0]
    assert [f.shape for f in pyr] == [(4, 8, 16), (6, 4, 8), (8, 2, 4), (10, 1, 2)]


def test_indivisible_size_rejected():
    params = small_params()
    with pytest.raises(TensorError):
        encode_batch([Tensor(np.ones((3, 48, 64)))], SMALL, params)
    with pytest.raises(TensorError):
        encode_batch([Tensor(np.ones((4, 32, 32)))], SMALL, params)


def test_zero_images_give_identical_pyramids():
    params = small_params()
    zero = np.zeros((3, 32, 32))
    with no_grad():
        p1, p2 = split_pyramids(encode_batch([Tensor(zero), Tensor(zero)], SMALL, params))
    for a, b in zip(p1, p2):
        assert a.data.tobytes() == b.data.tobytes()
        assert np.all(np.isfinite(a.data))


def test_encode_is_pure():
    params = small_params()
    img = Tensor(np.random.default_rng(5).random((3, 32, 32)))
    with no_grad():
        first = encode_batch([img], SMALL, params)
        second = encode_batch([img], SMALL, params)
    for a, b in zip(first, second):
        assert a.data.tobytes() == b.data.tobytes()


def test_batch_order_and_permutation():
    params = small_params()
    rng = np.random.default_rng(6)
    imgs = [Tensor(rng.random((3, 32, 32))) for _ in range(3)]
    with no_grad():
        abc = split_pyramids(encode_batch(imgs, SMALL, params))
        cab = split_pyramids(encode_batch([imgs[2], imgs[0], imgs[1]], SMALL, params))
    for level in range(4):
        assert cab[0][level].data.tobytes() == abc[2][level].data.tobytes()
        assert cab[1][level].data.tobytes() == abc[0][level].data.tobytes()
        assert cab[2][level].data.tobytes() == abc[1][level].data.tobytes()


def test_duplicated_modality_gives_identical_pyramids():
    params = small_params()
    img = Tensor(np.random.default_rng(7).random((3, 32, 32)))
    with no_grad():
        p1, p2 = split_pyramids(encode_batch([img, img], SMALL, params))
    for a, b in zip(p1, p2):
        assert a.data.tobytes() == b.data.tobytes()


def test_batch_rejects_mixed_sizes():
    params = small_params()
    with pytest.raises(TensorError):
        encode_batch([Tensor(np.ones((3, 32, 32))), Tensor(np.ones((3, 64, 64)))],
                     SMALL, params)
    with pytest.raises(TensorError):
        encode_batch([], SMALL, params)


def test_config_validation():
    """The encoder's architecture is checked where it is stated, in ``TrainConfig``."""
    with pytest.raises(ValueError):
        TrainConfig(stage_channels=(4, 6, 8))
    with pytest.raises(ValueError):
        TrainConfig(stage_channels=(4, 6, 8, 0))
    with pytest.raises(ValueError):
        TrainConfig(blocks_per_stage=0)


def pyramid_loss(image: Tensor, params) -> Tensor:
    levels = encode_batch([image], SMALL, params)
    total = sum_all(levels[0])
    for lvl in levels[1:]:
        total = T.add(total, sum_all(lvl))
    return total


@pytest.mark.parametrize("pname", ["enc.s1.patch.w", "enc.s2.b0.mlp.w1",
                                   "enc.s0.b0.ln.g", "enc.s3.patch.b"])
def test_stage_param_grads_match_finite_differences(pname):
    params = small_params(seed=11)
    img = Tensor(np.random.default_rng(12).random((3, 32, 32)))
    backward(pyramid_loss(img, params))
    check_param_grad(lambda p: pyramid_loss(img, p), params, pname)


def test_image_gradient_flows_to_input():
    params = small_params(seed=13)
    img = Tensor(np.random.default_rng(14).random((3, 32, 32)), requires_grad=True)
    backward(pyramid_loss(img, params))
    assert img.grad is not None and img.grad.shape == (3, 32, 32)
    assert np.any(img.grad != 0)


# ---------------------------------------------------------------------------
# one stacked pass for N images


@pytest.mark.parametrize("size", [32, 64])
def test_batch_matches_per_image_encode(size):
    params = small_params(seed=21)
    rng = np.random.default_rng(22)
    imgs = [Tensor(rng.random((3, size, size))) for _ in range(16)]
    with no_grad():
        batched = split_pyramids(encode_batch(imgs, SMALL, params))
        single = [split_pyramids(encode_batch([img], SMALL, params))[0] for img in imgs]
    for level in range(4):
        scale = max(np.max(np.abs(p[level].data)) for p in single)
        for b, s in zip(batched, single):
            assert b[level].shape == s[level].shape
            assert np.max(np.abs(b[level].data - s[level].data)) <= 1e-13 * scale


def squares_loss(pyramids) -> Tensor:
    parts = [sum_all(T.mul(lvl, lvl)) for levels in pyramids for lvl in levels]
    total = parts[0]
    for part in parts[1:]:
        total = T.add(total, part)
    return total


def test_batch_param_grads_equal_sum_of_per_image_grads():
    rng = np.random.default_rng(23)
    imgs = [Tensor(rng.random((3, 32, 32))) for _ in range(16)]
    batched = small_params(seed=24)
    backward(squares_loss(split_pyramids(encode_batch(imgs, SMALL, batched))))

    single = small_params(seed=24)
    summed = {n: np.zeros_like(p.data) for n, p in single.items()}
    for img in imgs:
        for p in single.values():
            p.grad = None
        backward(squares_loss([encode_batch([img], SMALL, single)]))
        for n, p in single.items():
            summed[n] += p.grad
    for n, p in batched.items():
        scale = np.max(np.abs(summed[n]))
        assert np.max(np.abs(p.grad - summed[n])) <= 1e-12 * scale, n


def test_batch_adds_only_one_unstack_per_image_per_stage(monkeypatch):
    names = []
    real = T.record_op
    spy = lambda name, *a: names.append(name) or real(name, *a)
    monkeypatch.setattr(T, "record_op", spy)
    monkeypatch.setattr(encoder, "record_op", spy)  # the fused stage's own binding
    counts = {}
    for n in (1, 16):
        names.clear()
        with no_grad():
            encode_batch([Tensor(np.ones((3, 32, 32)))] * n, SMALL, small_params())
        counts[n] = {name: names.count(name) for name in set(names)}
    assert "unstack" not in counts[1] and "unstack" not in counts[16]  # views record nothing
    assert counts[16] == counts[1] == {"stack": 1, "encode_stage": 4}  # one op per stage


# ---------------------------------------------------------------------------
# the fused stage against the chain of recorded ops it equals


def weighted_sum(tensors, rng) -> Tensor:
    """A fixed random weighting of every entry of ``tensors``, summed."""
    parts = [sum_all(T.mul(t, Tensor(rng.normal(size=t.shape)))) for t in tensors]
    total = parts[0]
    for part in parts[1:]:
        total = T.add(total, part)
    return total


@pytest.mark.parametrize("blocks", [1, 2])
def test_encode_batch_bit_identical_to_the_chain(blocks):
    """Every level's values and layout, and the gradients of every parameter
    and image, equal the chain's bit for bit; each stage after the first
    takes an input that also carries the previous level's gradient."""
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), blocks_per_stage=blocks).model_config(
        2, ("camera",))
    runs = []
    for encode in (encode_batch, encode_batch_chain):
        params = init_encoder_params(cfg, np.random.default_rng(31))
        rng = np.random.default_rng(32)
        images = [Tensor(rng.random((3, 64, 32)), requires_grad=True) for _ in range(3)]
        levels = encode(images, cfg, params)
        backward(weighted_sum(levels, rng))
        runs.append(([(lvl.data.tobytes(), lvl.data.strides) for lvl in levels],
                     {n: p.grad.tobytes() for n, p in params.items()},
                     [im.grad.tobytes() for im in images]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("stage", [0, 2])
def test_encode_stage_bit_identical_to_the_chain(blocks, stage):
    """One stage over channel-last maps of a leaf (stage 0: over images),
    the leaf's gradient included."""
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), blocks_per_stage=blocks).model_config(
        2, ("camera",))
    c = 3 if stage == 0 else cfg.stage_channels[stage - 1]
    runs = []
    for fused in (True, False):
        params = init_encoder_params(cfg, np.random.default_rng(33))
        rng = np.random.default_rng(34)
        leaf = Tensor(rng.normal(size=(2, 16, 8, c)), requires_grad=True)
        x = transpose(leaf, (0, 3, 1, 2))
        if fused:
            out = encode_stage(x, cfg, params, stage)
        else:
            out = encode_stage_chain(x, cfg, params, stage)
        backward(weighted_sum([out], rng))
        runs.append((out.data.tobytes(), out.data.strides, leaf.grad.tobytes(),
                     {n: p.grad.tobytes() for n, p in params.items() if p.grad is not None}))
    assert runs[0] == runs[1]
    assert len(runs[0][3]) == 2 + 6 * blocks  # exactly the stage's parameters
