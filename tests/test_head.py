"""Decode head and losses: shapes, the fused front against its unfolded chain,
CE oracle, shift invariance, gradients."""

from __future__ import annotations

import numpy as np
import pytest

import modalseg.head as head
import modalseg.tensor as T
from modalseg.head import cross_entropy, decode, embed, total_loss
from modalseg.tensor import Tensor, TensorError, backward, no_grad
from modalseg.train import TrainConfig

from helpers import (check_grads, check_param_grad, cross_entropy_reference, decode_chain,
                     embed_chain, init_head_params, sum_all)
from modalseg.masm import mean_feature

CHANNELS = (2, 3, 4, 5)


def head_params(d_embed=8, k=3, seed=0):
    return init_head_params(CHANNELS, d_embed, k, np.random.default_rng(seed))


def pyramid_for(size=32, seed=1, channels=CHANNELS):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=(c, size // (4 * 2 ** i), size // (4 * 2 ** i))))
            for i, c in enumerate(channels)]


def levels_of(pyramids):
    """Per-image pyramids as the level tensors ``embed`` takes."""
    return [T.stack(list(level)) for level in zip(*pyramids)]


def embed_one(pyramid, params):
    """The D x h1 x w1 embedding of one pyramid."""
    return T.unstack(embed(levels_of([pyramid]), params))[0]


# ---------------------------------------------------------------------------
# decode


def test_decode_shape_contract():
    params = init_head_params((16, 32, 64, 96), 64, 5, np.random.default_rng(2))
    pyr = pyramid_for(size=64, seed=3, channels=(16, 32, 64, 96))
    with no_grad():
        logits = decode(embed_one(pyr, params), params, (64, 64))
    assert logits.shape == (5, 64, 64)


def test_decode_zero_pyramid_zero_biases_gives_zero_logits():
    params = head_params(seed=4)
    zero_pyr = [Tensor(np.zeros((c, 8 // 2 ** i, 8 // 2 ** i)))
                for i, c in enumerate(CHANNELS)]
    with no_grad():
        logits = decode(embed_one(zero_pyr, params), params, (32, 32))
    assert np.array_equal(logits.data, np.zeros((3, 32, 32)))


def test_decode_rejects_wrong_level_count():
    params = head_params()
    with pytest.raises(TensorError):
        decode(embed_one(pyramid_for()[:3], params), params, (32, 32))


def test_decode_output_finite():
    params = head_params(seed=5)
    with no_grad():
        logits = decode(embed_one(pyramid_for(seed=6), params), params, (32, 32))
    assert np.all(np.isfinite(logits.data))


def test_decode_classifier_grads_match_finite_differences():
    params = head_params(seed=7)
    pyr = pyramid_for(seed=8)
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=(32, 32))
    labels[0, :] = 255

    def loss_fn(p):
        return cross_entropy([decode(embed_one(pyr, p), p, (32, 32))], [labels])

    backward(loss_fn(params))
    check_param_grad(loss_fn, params, "head.cls.w")
    check_param_grad(loss_fn, params, "head.proj2.b")


def test_decode_projects_without_transposes(monkeypatch):
    names = []
    record = T.record_op

    def spy(name, *rest):
        names.append(name)
        return record(name, *rest)

    monkeypatch.setattr(T, "record_op", spy)
    monkeypatch.setattr(head, "record_op", spy)  # the front's own binding
    with no_grad():
        params = head_params(seed=10)
        decode(embed_one(pyramid_for(seed=10), params), params, (32, 32))
    assert names.count("embed") == 1 and names.count("decode") == 1
    assert "transpose" not in names and "concat" not in names


@pytest.mark.parametrize("d_embed, k, grid, size", [(64, 5, 16, 64), (16, 3, 8, 32),
                                                     (4, 2, 3, 7)])
def test_decode_bit_identical_to_its_chain(d_embed, k, grid, size):
    """``decode`` against the ``gelu`` -> ``channel_mix`` ->
    ``resample_bilinear`` chain it fuses: logits and the gradients of the
    embedded map (a view, as ``head.embed``'s output is split) and of the
    classifier, byte for byte."""
    rng = np.random.default_rng(30 + k)
    embedded = rng.normal(size=(2, d_embed, grid, grid)) * 2
    w, b = rng.normal(size=(d_embed, k)), rng.normal(size=k)
    pick = rng.normal(size=(k, size, size))
    runs = []
    for op in (decode, decode_chain):
        leaf = Tensor(embedded, requires_grad=True)
        params = {"head.cls.w": Tensor(w, requires_grad=True),
                  "head.cls.b": Tensor(b, requires_grad=True)}
        out = op(T.unstack(T.mul(leaf, 1.0))[1], params, (size, size))
        backward(sum_all(T.mul(out, Tensor(pick))))
        runs.append([out.data.tobytes(), leaf.grad.tobytes()]
                    + [t.grad.tobytes() for t in params.values()])
    assert runs[0] == runs[1]


def test_decode_rejects_a_map_of_the_wrong_width_or_an_empty_target():
    params = head_params()
    with pytest.raises(TensorError):
        decode(Tensor(np.ones((7, 4, 4))), params, (8, 8))
    with pytest.raises(TensorError):
        decode(Tensor(np.ones((8, 4, 4))), params, (0, 8))


# ---------------------------------------------------------------------------
# the affine front: one folded op against the unfolded chain


FRONT_SHAPES = [  # (widths, d_embed, image size): eval-subsets, then train-masm
    ((16, 32, 64, 96), 64, 64),
    ((8, 12, 16, 24), 16, 32),
]


def _front_run(front, pyramids, params, weights):
    """Output and every input gradient of ``sum(front(pyramids) * weights)``."""
    leaves = [[Tensor(level.data, requires_grad=True) for level in p] for p in pyramids]
    for t in params.values():
        t.grad = None
    out = front(levels_of(leaves), params)
    backward(sum_all(T.mul(out, Tensor(weights))))
    grads = {name: t.grad for name, t in params.items() if not name.startswith("head.cls")}
    grads.update({f"pyramid {n} level {i}": level.grad
                  for n, p in enumerate(leaves) for i, level in enumerate(p)})
    return out.data, grads


@pytest.mark.parametrize("widths, d_embed, size", FRONT_SHAPES)
def test_embed_matches_the_unfolded_chain(widths, d_embed, size):
    params = init_head_params(widths, d_embed, 5, np.random.default_rng(20))
    rng = np.random.default_rng(21)
    for name, t in params.items():  # nonzero biases, so the folded bias is exercised
        if name.endswith(".b"):
            t.data = rng.normal(size=t.shape)
    pyramids = [pyramid_for(size, seed, widths) for seed in range(4)]
    weights = rng.normal(size=(4, d_embed, size // 4, size // 4))
    got, got_grads = _front_run(embed, pyramids, params, weights)
    want, want_grads = _front_run(embed_chain, pyramids, params, weights)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert got.shape == want.shape == (4, d_embed, size // 4, size // 4)
    assert rel(got, want) <= 1e-12
    assert got_grads.keys() == want_grads.keys() and len(got_grads) == 10 + 16
    for name, g in want_grads.items():
        assert got_grads[name].shape == g.shape
        assert rel(got_grads[name], g) <= 1e-12, name


def test_embed_zero_pyramid_zero_biases_gives_exact_zero():
    params = head_params(seed=22)
    for name, t in params.items():
        if name.endswith(".b"):
            t.data = np.zeros_like(t.data)
    zero = [Tensor(np.zeros(level.shape)) for level in pyramid_for(seed=23)]
    with no_grad():
        out = embed(levels_of([zero, pyramid_for(seed=24)]), params).data
    assert np.array_equal(out[0], np.zeros(out[0].shape))
    assert np.any(out[1] != 0.0)


def test_embed_rejects_malformed_pyramids():
    params = head_params()
    one, two = levels_of([pyramid_for()]), levels_of([pyramid_for()] * 2)
    for bad in ([], one[:3], [two[0], *one[1:]], [Tensor(np.ones((1, 2, 8))), *one[1:]],
                [Tensor(np.ones((1, 3, 8, 8))), *one[1:]]):
        with pytest.raises(TensorError):
            embed(bad, params)


def test_head_param_validation():
    """The head's class count and width are checked where the model config is built."""
    with pytest.raises(ValueError):
        TrainConfig(stage_channels=CHANNELS, d_embed=8).model_config(1, ("camera",))
    with pytest.raises(ValueError):
        TrainConfig(stage_channels=CHANNELS, d_embed=0)


# ---------------------------------------------------------------------------
# cross-entropy


def test_ce_uniform_logits_is_log_k():
    logits = Tensor(np.full((5, 4, 4), 0.37))
    labels = np.random.default_rng(10).integers(0, 5, size=(4, 4))
    with no_grad():
        loss = cross_entropy([logits], [labels]).item()
    assert abs(loss - np.log(5.0)) < 1e-12


def test_ce_large_margin_approaches_zero():
    labels = np.zeros((2, 2), dtype=np.int64)
    data = np.zeros((3, 2, 2))
    data[0] = 50.0
    with no_grad():
        loss = cross_entropy([Tensor(data)], [labels]).item()
    assert 0.0 <= loss < 1e-9


def test_ce_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(3, 2, 2)) * 2
    labels = np.array([[0, 2], [1, 255]], dtype=np.int64)
    with no_grad():
        got = cross_entropy([Tensor(data)], [labels]).item()

    acc = []
    for i in range(2):
        for j in range(2):
            if labels[i, j] == 255:
                continue
            z = data[:, i, j]
            p = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
            acc.append(-np.log(p[labels[i, j]]))
    assert abs(got - np.mean(acc)) < 1e-10


def test_ce_shift_invariance_per_pixel():
    rng = np.random.default_rng(12)
    data = rng.normal(size=(4, 3, 3))
    labels = rng.integers(0, 4, size=(3, 3))
    shifted = data.copy()
    shifted[:, 1, 2] += 137.0  # same constant added to every class logit
    with no_grad():
        a = cross_entropy([Tensor(data)], [labels]).item()
        b = cross_entropy([Tensor(shifted)], [labels]).item()
    assert abs(a - b) < 1e-10


def test_ce_all_ignored_is_error():
    with pytest.raises(TensorError):
        cross_entropy([Tensor(np.zeros((3, 2, 2)))],
                      [np.full((2, 2), 255, dtype=np.int64)])


def test_ce_label_validation():
    logits = Tensor(np.zeros((3, 2, 2)))
    with pytest.raises(TensorError):
        cross_entropy([logits], [np.full((2, 2), 3, dtype=np.int64)])
    with pytest.raises(TensorError):
        cross_entropy([logits], [np.full((2, 2), -1, dtype=np.int64)])
    with pytest.raises(TensorError):
        cross_entropy([logits], [np.zeros((2, 3), dtype=np.int64)])
    with pytest.raises(TensorError):
        cross_entropy([logits], [np.full((2, 2), 0.5)])
    for not_an_integer_array in (np.zeros((2, 2)), Tensor(np.zeros((2, 2)))):
        with pytest.raises(TensorError, match="integer array"):
            cross_entropy([logits], [not_an_integer_array])


@pytest.mark.parametrize("seed", range(10))
def test_ce_grads_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    data = rng.normal(size=(3, 3, 3))
    labels = rng.integers(0, 3, size=(3, 3))
    labels[rng.random(size=(3, 3)) < 0.2] = 255
    if np.all(labels == 255):
        labels[0, 0] = 1
    check_grads(lambda t: cross_entropy([t], [labels]), [data])


@pytest.mark.parametrize("scenes", [1, 2, 4])
def test_ce_over_scenes_equals_mean_of_per_scene_losses_bit_for_bit(scenes):
    """The batch's one ``cross_entropy`` op against the per-scene op it
    replaced (``helpers.cross_entropy_reference``) averaged by
    ``mean_feature``: the value and every logit gradient byte for byte."""
    rng = np.random.default_rng(40 + scenes)
    for case in range(10):
        data = rng.normal(size=(scenes, 3, 8, 8)) * rng.choice([0.1, 1.0, 30.0])
        labels = [rng.integers(0, 3, size=(8, 8)) for _ in range(scenes)]
        for grid in labels:
            grid[rng.random(size=grid.shape) < 0.3] = 255
            grid[0, 0] = 1
        runs = []
        for batched in (True, False):
            logits = [Tensor(d, requires_grad=True) for d in data]
            if batched:
                loss = cross_entropy(logits, labels)
            else:
                loss = mean_feature([cross_entropy_reference(t, grid)
                                     for t, grid in zip(logits, labels)])
            backward(T.mul(loss, 1.3))
            runs.append([loss.data.tobytes()] + [t.grad.tobytes() for t in logits])
        assert runs[0] == runs[1], case


def test_ce_over_scenes_rejects_mismatched_lists():
    logits = Tensor(np.zeros((3, 2, 2)))
    with pytest.raises(TensorError):
        cross_entropy([], [])
    with pytest.raises(TensorError):
        cross_entropy([logits, logits], [np.zeros((2, 2), dtype=np.int64)])


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_beta_zero_returns_lm_object():
    l_m = Tensor(1.234)
    l_c = Tensor(0.5)
    assert total_loss(l_m, l_c, 0.0) is l_m


def test_total_loss_zero_lc():
    with no_grad():
        out = total_loss(Tensor(1.5), Tensor(0.0), 0.5)
    assert out.item() == 1.5


def test_total_loss_arithmetic():
    with no_grad():
        out = total_loss(Tensor(1.5), Tensor(0.2), 0.5)
    assert abs(out.item() - 1.6) < 1e-15


def test_total_loss_rejects_negative_beta():
    with pytest.raises(ValueError):
        total_loss(Tensor(1.0), Tensor(1.0), -0.1)
