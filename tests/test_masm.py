"""Selection module: ranking rules, fusion wiring, consistency loss."""

from __future__ import annotations

import numpy as np
import pytest

import modalseg.masm as masm
import modalseg.tensor as T
from modalseg.encoder import EncoderConfig, encode_batch
from modalseg.masm import (SIM_EPS, consistency_loss, cosine, map_similarity,
                           masm_forward, mean_feature, rank_modalities)
from modalseg.tensor import Tensor, TensorError, backward, no_grad

from helpers import (check_param_grad, clamp, div, init_encoder_params, init_mim_params, log,
                     sum_all)


def feature_with_cosine(target: float, slot: int, dim: int = 6) -> Tensor:
    """Vector whose cosine against e_0 is exactly ``target`` (slot picks the
    orthogonal direction so the features stay linearly independent)."""
    v = np.zeros(dim)
    v[0] = target
    v[slot] = np.sqrt(1.0 - target * target)
    return Tensor(v.reshape(dim, 1, 1))


def unit_mean(dim: int = 6) -> Tensor:
    v = np.zeros(dim)
    v[0] = 1.0
    return Tensor(v.reshape(dim, 1, 1))


# ---------------------------------------------------------------------------
# mean feature


def test_mean_of_identical_features():
    f = Tensor(np.random.default_rng(0).normal(size=(3, 2, 2)))
    with no_grad():
        m = mean_feature([f, f, f])
    assert np.allclose(m.data, f.data, atol=1e-15)


def test_mean_of_opposites_is_zero():
    x = np.random.default_rng(1).normal(size=(3, 2, 2))
    with no_grad():
        m = mean_feature([Tensor(x), Tensor(-x)])
    assert np.array_equal(m.data, np.zeros((3, 2, 2)))


def test_mean_matches_numpy_oracle():
    rng = np.random.default_rng(2)
    arrs = [rng.normal(size=(4, 3, 3)) for _ in range(3)]
    with no_grad():
        m = mean_feature([Tensor(a) for a in arrs])
    assert np.allclose(m.data, np.mean(arrs, axis=0), atol=1e-15)


def test_mean_errors():
    with pytest.raises(TensorError):
        mean_feature([])
    with pytest.raises(TensorError):
        mean_feature([Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 2, 3)))])


# ---------------------------------------------------------------------------
# cosine


def test_cosine_self_is_one():
    v = Tensor(np.random.default_rng(3).normal(size=(5,)))
    with no_grad():
        assert abs(cosine(v, v).item() - 1.0) < 1e-12


def test_cosine_orthogonal_is_zero():
    with no_grad():
        c = cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
    assert c.item() == 0.0


def test_cosine_zero_vector_convention():
    with no_grad():
        assert cosine(Tensor([0.0, 0.0]), Tensor([1.0, 2.0])).item() == 0.0
        assert cosine(Tensor([1.0, 2.0]), Tensor([0.0, 0.0])).item() == 0.0


def test_cosine_scale_invariance():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(3, 2, 2)), rng.normal(size=(3, 2, 2))
    with no_grad():
        base = cosine(Tensor(a), Tensor(b)).item()
        scaled = cosine(Tensor(137.0 * a), Tensor(b)).item()
    assert abs(base - scaled) < 1e-12


def test_cosine_size_mismatch():
    with pytest.raises(TensorError):
        cosine(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_cosine_records_one_op(monkeypatch):
    names = []
    record = T.record_op

    def spy(name, *rest):
        names.append(name)
        return record(name, *rest)

    monkeypatch.setattr(T, "record_op", spy)
    monkeypatch.setattr(masm, "record_op", spy)
    rng = np.random.default_rng(20)
    a = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    c = cosine(a, b)
    assert names == ["cosine"]
    backward(c)
    assert a.grad.shape == a.shape and b.grad.shape == b.shape


def test_cosine_of_zero_feature_is_zero_without_gradient():
    rng = np.random.default_rng(21)
    for small in (0.0, 1e-14):  # a norm below NORM_EPS counts as zero
        zero = Tensor(np.full((3, 2, 2), small), requires_grad=True)
        other = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
        for x, y in ((zero, other), (other, zero)):
            zero.zero_grad()
            other.zero_grad()
            c = cosine(x, y)
            assert c.item() == 0.0
            backward(T.add(c, sum_all(T.mul(zero, 2.0))))
            assert other.grad is None
            assert np.array_equal(zero.grad, np.full((3, 2, 2), 2.0))


# ---------------------------------------------------------------------------
# ranking


def test_ranking_matches_spec_example():
    scores = [0.9, 0.1, 0.5, 0.3]
    feats = [feature_with_cosine(s, slot=i + 1) for i, s in enumerate(scores)]
    rank = rank_modalities(feats, unit_mean())
    assert rank.robust_idx == 0
    assert rank.fragile_idx == 1
    assert rank.remaining == (2, 3)
    assert np.allclose(rank.scores, scores, atol=1e-12)


def test_ranking_all_equal_uses_stable_tiebreak():
    f = Tensor(np.random.default_rng(5).normal(size=(4, 2, 2)))
    rank = rank_modalities([f, f, f, f], f)
    assert rank.robust_idx == 0
    assert rank.fragile_idx == 3
    assert rank.remaining == (1, 2)


def test_ranking_requires_two_modalities():
    f = Tensor(np.ones((2, 2, 2)))
    with pytest.raises(TensorError):
        rank_modalities([f], f)


def test_ranking_against_brute_force_oracle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        feats = [rng.normal(size=(3, 2, 2)) for _ in range(4)]
        f_m = np.mean(feats, axis=0)
        rank = rank_modalities([Tensor(f) for f in feats], Tensor(f_m))

        def np_cos(a, b):
            return float(a.ravel() @ b.ravel()
                         / (np.linalg.norm(a) * np.linalg.norm(b)))

        scores = np.array([np_cos(f, f_m) for f in feats])
        order = list(np.argsort(-scores, kind="stable"))
        assert rank.robust_idx == order[0]
        assert rank.fragile_idx == order[-1]
        assert list(rank.remaining) == order[1:-1]
        assert np.allclose(rank.scores, scores, atol=1e-12)
        assert all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for s in rank.scores)


def test_ranking_scores_equal_tensor_cosine_bit_for_bit():
    rng = np.random.default_rng(8)
    for trial in range(20):
        # transposed views give non-contiguous data, as encoder maps have
        feats = [T.transpose(Tensor(rng.normal(size=(3, 4, 5))), (2, 1, 0))
                 for _ in range(4)]
        if trial % 4 == 0:
            feats[trial % 3] = Tensor(np.zeros((5, 4, 3)))
        f_m = mean_feature(feats)
        rank = rank_modalities(feats, f_m)
        with no_grad():
            want = tuple(cosine(f, f_m).item() for f in feats)
        assert rank.scores == want


# ---------------------------------------------------------------------------
# consistency loss


def test_consistency_zero_when_terms_equal():
    c = Tensor(0.73)
    loss = consistency_loss([[c, c]], class_count=9)
    assert loss.item() == 0.0


def test_consistency_symmetry():
    c1, c2 = Tensor(0.9), Tensor(0.2)
    with no_grad():
        a = consistency_loss([[c1, c2]], class_count=7).item()
        b = consistency_loss([[c2, c1]], class_count=7).item()
    assert abs(a - b) < 1e-12


def test_consistency_extreme_value_oracle():
    eps = SIM_EPS
    with no_grad():
        got = consistency_loss([[Tensor(1.0), Tensor(eps)]], class_count=25).item()
    mid = (1.0 + eps) / 2.0
    exact = 25.0 * (np.log(1.0 / mid) + eps * np.log(eps / mid))
    assert abs(got - exact) < 1e-12
    assert abs(got - 25.0 * np.log(2.0)) < 1e-3


def test_consistency_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c1, c2 = rng.uniform(SIM_EPS, 1.0, size=2)
        with no_grad():
            val = consistency_loss([[Tensor(c1), Tensor(c2)]], class_count=11).item()
        assert val >= -1e-15


def test_consistency_empty_scales_is_zero():
    assert consistency_loss([[], []], class_count=5).item() == 0.0
    with pytest.raises(TensorError):
        consistency_loss([[Tensor(0.5), Tensor(0.5)]], class_count=0)


def test_consistency_means_over_contributing_scales_only():
    pair_a = [Tensor(0.9), Tensor(0.4)]
    pair_b = [Tensor(0.8), Tensor(0.1)]
    with no_grad():
        la = consistency_loss([pair_a], class_count=3).item()
        lb = consistency_loss([pair_b], class_count=3).item()
        both = consistency_loss([pair_a, [], pair_b], class_count=3).item()
    assert abs(both - (la + lb) / 2) < 1e-12


def test_map_similarity_range():
    for c in (-1.0, -0.999999, 0.0, 0.5, 1.0):
        with no_grad():
            v = map_similarity(Tensor(c)).item()
        assert SIM_EPS <= v <= 1.0
    with no_grad():
        assert map_similarity(Tensor(-1.0)).item() == SIM_EPS
        assert map_similarity(Tensor(1.0)).item() == 1.0


def test_consistency_rejects_nonpositive_terms():
    for pair in ((0.0, 0.5), (0.5, -0.2), (-0.5, 0.5)):
        with pytest.raises(TensorError):
            consistency_loss([[Tensor(pair[0]), Tensor(pair[1])]], class_count=3)


# ---------------------------------------------------------------------------
# fused ops against the equivalent chains of elementary ops


def _mean_by_chain(features):
    total = features[0]
    for f in features[1:]:
        total = T.add(total, f)
    return div(total, float(len(features)))


def _map_similarity_by_chain(c):
    return clamp(T.mul(T.add(c, 1.0), 0.5), SIM_EPS, 1.0)


def _consistency_by_chain(terms, class_count):
    per_scale = []
    for scale_terms in terms:
        if len(scale_terms) < 2:
            continue
        c1, c2 = scale_terms[0], scale_terms[1]
        mid = T.mul(T.add(c1, c2), 0.5)
        contrib = T.add(T.mul(c1, log(div(c1, mid))),
                        T.mul(c2, log(div(c2, mid))))
        per_scale.append(T.mul(contrib, float(class_count)))
    return _mean_by_chain(per_scale)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("order", [(0,), (0, 1), (0, 1, 0, 2, 0), (2, 1, 0, 1)])
def test_mean_feature_bit_identical_to_add_div_chain(seed, order):
    rng = np.random.default_rng(30 + seed)
    arrays = [rng.normal(size=(3, 2, 4)) for _ in range(3)]
    pick = Tensor(rng.normal(size=(3, 2, 4)))
    runs = []
    for op in (mean_feature, _mean_by_chain):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op([leaves[i] for i in order])
        # leaf 0 feeds a second op too, so its gradients' summing order counts
        backward(T.add(sum_all(T.mul(leaves[0], leaves[1])),
                       sum_all(T.mul(out, pick))))
        runs.append([out.data.tobytes()]
                    + [t.grad.tobytes() for t in leaves if t.grad is not None])
    assert runs[0] == runs[1]


def test_map_similarity_bit_identical_to_add_mul_clamp_chain():
    rng = np.random.default_rng(31)
    edges = [-1.5, -1.0, -1.0 + 2 * SIM_EPS, -0.999999, -0.3, 0.0, 0.7, 1.0, 1.2]
    arr = np.concatenate([edges, rng.uniform(-1.0, 1.0, 31)])
    pick = Tensor(rng.normal(size=arr.shape))
    runs = []
    for op in (map_similarity, _map_similarity_by_chain):
        c = Tensor(arr, requires_grad=True)
        out = op(c)
        backward(sum_all(T.mul(out, pick)))
        runs.append((out.data.tobytes(), c.grad.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", range(10))
def test_consistency_forward_bit_identical_to_chain_and_grads_close(seed):
    rng = np.random.default_rng(40 + seed)
    values = rng.uniform(SIM_EPS, 1.0, size=9)
    values[3] = values[2]  # one scale with equal terms
    shapes = [[0, 1], [], [2, 3, 4], [5], [6, 7, 8]]
    runs = []
    for op in (consistency_loss, _consistency_by_chain):
        leaves = [Tensor(v, requires_grad=True) for v in values]
        loss = op([[leaves[i] for i in scale] for scale in shapes], 5)
        backward(T.mul(loss, 1.7))
        runs.append((loss.data.tobytes(),
                     np.array([0.0 if t.grad is None else float(t.grad) for t in leaves])))
    (fused_value, fused_grad), (chain_value, chain_grad) = runs
    assert fused_value == chain_value
    assert np.max(np.abs(fused_grad - chain_grad)) <= 1e-12 * np.max(np.abs(chain_grad))
    assert fused_grad[[4, 5]].tolist() == [0.0, 0.0]  # not among a scale's first two


@pytest.mark.parametrize("name", ["mean", "map_similarity", "consistency"])
def test_fused_masm_ops_record_one_op(monkeypatch, name):
    names = []
    record = T.record_op

    def spy(op_name, *rest):
        names.append(op_name)
        return record(op_name, *rest)

    monkeypatch.setattr(T, "record_op", spy)
    monkeypatch.setattr(masm, "record_op", spy)
    rng = np.random.default_rng(22)
    leaves = [Tensor(v, requires_grad=True) for v in rng.uniform(0.1, 0.9, size=4)]
    build = {
        "mean": lambda: mean_feature(leaves),
        "map_similarity": lambda: map_similarity(leaves[0]),
        "consistency": lambda: consistency_loss([leaves[:2], [], leaves[2:]], 3),
    }[name]
    out = build()
    assert names == [name]
    backward(out)
    assert leaves[0].grad is not None


# ---------------------------------------------------------------------------
# full forward


def tiny_pyramids(m, seed, channels=(2, 3), size=4):
    rng = np.random.default_rng(seed)
    pyramids = []
    for _ in range(m):
        pyr = [Tensor(rng.normal(size=(c, size // (2 ** i), size // (2 ** i))))
               for i, c in enumerate(channels)]
        pyramids.append(pyr)
    return pyramids


def test_masm_forward_m2_has_empty_remaining():
    params = init_mim_params((2, 3), np.random.default_rng(8))
    with no_grad():
        fused, rankings, terms = masm_forward(tiny_pyramids(2, 9), params)
    assert len(fused) == 2
    assert all(r.remaining == () for r in rankings)
    assert all(t == [] for t in terms)
    assert consistency_loss(terms, class_count=4).item() == 0.0


def test_masm_forward_m4_has_two_remaining_per_scale():
    params = init_mim_params((2, 3), np.random.default_rng(10))
    with no_grad():
        fused, rankings, terms = masm_forward(tiny_pyramids(4, 11), params)
    for rank, scale_terms, lvl in zip(rankings, terms, fused):
        assert len(rank.remaining) == 2
        assert len(scale_terms) == 2
        assert all(SIM_EPS <= t.item() <= 1.0 for t in scale_terms)
        assert np.all(np.isfinite(lvl.data))
    assert [r.scale for r in rankings] == [1, 2]


def test_masm_forward_identical_modalities_tie_order():
    params = init_mim_params((2, 3), np.random.default_rng(12))
    base = tiny_pyramids(1, 13)[0]
    with no_grad():
        _, rankings, _ = masm_forward([base, base, base], params)
    for rank in rankings:
        assert rank.robust_idx == 0
        assert rank.fragile_idx == 2
        assert rank.remaining == (1,)


def test_masm_forward_requires_two_modalities():
    params = init_mim_params((2, 3), np.random.default_rng(14))
    with pytest.raises(TensorError):
        masm_forward(tiny_pyramids(1, 15), params)


def test_masm_permutation_equivariance():
    params = init_mim_params((2, 3), np.random.default_rng(16))
    pyramids = tiny_pyramids(3, 17)
    perm = [2, 0, 1]
    with no_grad():
        fused_a, ranks_a, _ = masm_forward(pyramids, params)
        fused_b, ranks_b, _ = masm_forward([pyramids[j] for j in perm], params)
    for ra, rb in zip(ranks_a, ranks_b):
        assert perm[rb.robust_idx] == ra.robust_idx
        assert perm[rb.fragile_idx] == ra.fragile_idx
    for fa, fb in zip(fused_a, fused_b):
        assert np.allclose(fa.data, fb.data, atol=1e-12)


def test_consistency_grads_reach_encoder_weights():
    cfg = EncoderConfig(stage_channels=(4, 6, 8, 10))
    rng = np.random.default_rng(18)
    enc_params = init_encoder_params(cfg, rng)
    mim_params = init_mim_params(cfg.stage_channels, rng)
    params = {**enc_params, **mim_params}
    data_rng = np.random.default_rng(19)
    images = [Tensor(data_rng.random((3, 32, 32))) for _ in range(4)]

    def loss_fn(p):
        pyramids = encode_batch(images, cfg, p)
        _, _, terms = masm_forward(pyramids, p)
        return consistency_loss(terms, class_count=5)

    backward(loss_fn(params))
    check_param_grad(loss_fn, params, "enc.s0.b0.mlp.b2", eps=1e-5)
    check_param_grad(loss_fn, params, "enc.s3.patch.b", eps=1e-5)
