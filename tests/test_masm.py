"""Selection module: ranking rules, fusion wiring, consistency loss."""

from __future__ import annotations

import numpy as np
import pytest

import modalseg.masm as masm
import modalseg.tensor as T
from modalseg.encoder import encode_batch
from modalseg.masm import (SIM_EPS, consistency_loss, fuse_level, masm_forward, mean_feature,
                           rank_modalities)
from modalseg.tensor import Tensor, TensorError, backward, no_grad
from modalseg.train import TrainConfig

import helpers
from helpers import (check_grads, check_param_grad, clamp, consistency_chain, cosine, div,
                     init_encoder_params, init_mim_params, log, map_similarity, sum_all,
                     transpose)


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
# cosine: the one forward that the ranking scores and the consistency loss read


def cosine_to(f: Tensor, f_m: Tensor) -> float:
    """The ranking's cosine score of ``f`` against ``f_m``."""
    return rank_modalities([f, f_m], f_m).scores[0]


def divergence(c1: float, c2: float, k: float) -> float:
    """K * [c1*log(c1/m) + c2*log(c2/m)] of two mapped similarities, m the midpoint."""
    mid = (c1 + c2) / 2.0
    return k * (c1 * np.log(c1 / mid) + c2 * np.log(c2 / mid))


def mapped(c: float) -> float:
    return float(np.clip((c + 1.0) * 0.5, SIM_EPS, 1.0))


def test_cosine_self_is_one():
    v = Tensor(np.random.default_rng(3).normal(size=(5,)))
    assert abs(cosine_to(v, v) - 1.0) < 1e-12


def test_cosine_orthogonal_is_zero():
    assert cosine_to(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])) == 0.0


def test_cosine_zero_vector_convention():
    assert cosine_to(Tensor([0.0, 0.0]), Tensor([1.0, 2.0])) == 0.0
    assert cosine_to(Tensor([1.0, 2.0]), Tensor([0.0, 0.0])) == 0.0


def test_cosine_scale_invariance():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(3, 2, 2)), rng.normal(size=(3, 2, 2))
    base = cosine_to(Tensor(a), Tensor(b))
    scaled = cosine_to(Tensor(137.0 * a), Tensor(b))
    assert abs(base - scaled) < 1e-12


def test_cosine_size_mismatch():
    short, long_ = Tensor(np.ones((2, 1, 1))), Tensor(np.ones((3, 1, 1)))
    with pytest.raises(TensorError):
        rank_modalities([short, long_], long_)
    for term in ((long_, short, long_), (long_, long_, short), (short, long_, long_)):
        with pytest.raises(TensorError):
            consistency_loss([[term]], class_count=3)


def test_cosine_of_zero_feature_is_zero_without_gradient():
    """A ~zero feature's cosine is 0, so its similarity maps to 0.5, and
    ``consistency_loss`` passes no gradient along that cosine."""
    rng = np.random.default_rng(21)
    for small in (0.0, 1e-14):  # a norm below NORM_EPS counts as zero
        zero = Tensor(np.full((3, 2, 2), small), requires_grad=True)
        f_mim, other = (Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
                        for _ in range(2))
        c_other = mapped(cosine_to(other, f_mim))
        for term, want, others_get_grad in (
                ((f_mim, zero, other), divergence(0.5, c_other, 5.0), True),
                ((f_mim, other, zero), divergence(c_other, 0.5, 5.0), True),
                ((zero, other, f_mim), 0.0, False)):  # both cosines undefined
            for t in (zero, f_mim, other):
                t.grad = None
            loss = consistency_loss([[term]], class_count=5)
            assert abs(loss.item() - want) < 1e-12
            backward(T.add(loss, sum_all(T.mul(zero, 2.0))))
            assert np.array_equal(zero.grad, np.full((3, 2, 2), 2.0))
            assert all((t.grad is not None) == others_get_grad for t in (f_mim, other))


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
    """The ranking scores equal the recorded ``cosine`` op of the reference
    chain, which the consistency loss reproduces byte for byte."""
    rng = np.random.default_rng(8)
    for trial in range(20):
        # transposed views give non-contiguous data, as encoder maps have
        feats = [transpose(Tensor(rng.normal(size=(3, 4, 5))), (2, 1, 0))
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


def one_scene_consistency(terms, class_count):
    """``consistency_loss`` of a batch of one scene."""
    return consistency_loss([terms], class_count)


def random_features(rng, count, shape=(3, 2, 2)):
    return [Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(count)]


def test_consistency_zero_when_terms_equal():
    f_mim, f = random_features(np.random.default_rng(0), 2)
    twin = Tensor(f.data.copy())
    assert consistency_loss([[(f_mim, f, f)]], class_count=9).item() == 0.0
    assert consistency_loss([[(f_mim, f, twin)]], class_count=9).item() == 0.0


def test_consistency_symmetry():
    f_mim, f_1, f_2 = random_features(np.random.default_rng(1), 3)
    with no_grad():
        a = consistency_loss([[(f_mim, f_1, f_2)]], class_count=7).item()
        b = consistency_loss([[(f_mim, f_2, f_1)]], class_count=7).item()
    assert abs(a - b) < 1e-12


def test_consistency_extreme_value_oracle():
    eps = SIM_EPS
    f = Tensor(np.random.default_rng(2).normal(size=(3, 2, 2)))
    with no_grad():  # cosines 1 and -1: the second maps below SIM_EPS and is clipped
        got = consistency_loss([[(f, f, T.mul(f, -1.0))]], class_count=25).item()
    mid = (1.0 + eps) / 2.0
    exact = 25.0 * (np.log(1.0 / mid) + eps * np.log(eps / mid))
    assert abs(got - exact) < 1e-12
    assert abs(got - 25.0 * np.log(2.0)) < 1e-3


def test_consistency_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        with no_grad():
            val = consistency_loss([[tuple(random_features(rng, 3))]], class_count=11).item()
        assert val >= -1e-15


def test_consistency_empty_scales_is_zero():
    assert consistency_loss([], class_count=5).item() == 0.0
    assert consistency_loss([[], []], class_count=5).item() == 0.0
    term = tuple(random_features(np.random.default_rng(3), 3))
    with pytest.raises(TensorError):
        consistency_loss([[term]], class_count=0)
    with pytest.raises(TensorError):  # scenes of one batch carry equally many terms
        consistency_loss([[term], [term, term]], class_count=3)


def test_consistency_means_over_contributing_scales_only():
    rng = np.random.default_rng(5)
    term_a, term_b = tuple(random_features(rng, 3)), tuple(random_features(rng, 3))
    with no_grad():
        la = consistency_loss([[term_a]], class_count=3).item()
        lb = consistency_loss([[term_b]], class_count=3).item()
        both = consistency_loss([[term_a, term_b]], class_count=3).item()
    assert abs(both - (la + lb) / 2) < 1e-12


def test_map_similarity_range():
    """Cosines map to (c+1)/2 clipped to [SIM_EPS, 1]; an (almost)
    antiparallel feature clips to SIM_EPS and gets zero gradient."""
    for c in (-1.0, -1.0 + 1e-6, -1.0 + 4e-6, -0.999999, 0.0, 0.5, 1.0):
        f_1, f_2 = feature_with_cosine(c, slot=1), feature_with_cosine(0.3, slot=2)
        f_1.requires_grad = True
        loss = consistency_loss([[(unit_mean(), f_1, f_2)]], class_count=4)
        assert abs(loss.item() - divergence(mapped(c), 0.65, 4.0)) < 1e-12
        backward(loss)
        if -1.0 < c < 1.0:  # the cosine's own gradient is zero at the ends
            assert np.any(f_1.grad) == ((c + 1.0) * 0.5 >= SIM_EPS)


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
    for f_mim, f_1, f_2 in terms:
        c1, c2 = (_map_similarity_by_chain(cosine(f, f_mim)) for f in (f_1, f_2))
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
    arrays = [rng.normal(size=(3, 2, 2)) for _ in range(7)]
    triples = [(0, 1, 2), (3, 4, 4), (5, 6, 1)]  # the second with equal similarities
    runs = []
    for op in (one_scene_consistency, _consistency_by_chain):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        loss = op([tuple(leaves[i] for i in t) for t in triples], 5)
        backward(T.mul(loss, 1.7))
        runs.append((loss.data.tobytes(), np.concatenate([t.grad.ravel() for t in leaves])))
    (fused_value, fused_grad), (chain_value, chain_grad) = runs
    assert fused_value == chain_value
    assert np.max(np.abs(fused_grad - chain_grad)) <= 1e-12 * np.max(np.abs(chain_grad))


def _reference_case(rng):
    """Leaves and consistency terms for one draw, with zero-norm features,
    antiparallel pairs (similarities clipped at -1), equal similarities and
    tensors shared between terms."""
    arrays = [rng.normal(size=(2, 3, 2)) for _ in range(int(rng.integers(3, 7)))]
    for i in range(1, len(arrays)):
        kind = rng.integers(8)
        if kind == 0:
            arrays[i] = np.zeros_like(arrays[i]) if rng.random() < 0.5 else arrays[i] * 1e-14
        elif kind == 1:
            arrays[i] = -arrays[int(rng.integers(i))] * rng.uniform(0.5, 2.0)
        elif kind == 2:
            arrays[i] = arrays[int(rng.integers(i))].copy()
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    terms = [tuple(leaves[j] for j in rng.integers(0, len(leaves), size=3))
             for _ in range(int(rng.integers(1, 5)))]
    return leaves, terms


def test_consistency_op_byte_equal_to_reference_chain():
    """Value and every input gradient of the fused op equal those of the
    ``cosine`` -> ``map_similarity`` -> divergence chain it replaced."""
    rng = np.random.default_rng(50)
    for case in range(300):
        state = rng.bit_generator.state
        runs = []
        for op in (one_scene_consistency, consistency_chain):
            rng.bit_generator.state = state  # the same draw for both
            leaves, terms = _reference_case(rng)
            pick = Tensor(rng.normal(size=leaves[0].shape))
            loss = op(terms, int(rng.integers(1, 9)))
            # leaf 0 feeds a second op too, so its gradients' summing order counts
            backward(T.add(T.mul(loss, 1.7), sum_all(T.mul(leaves[0], pick))))
            runs.append([loss.data.tobytes()]
                        + [None if t.grad is None else t.grad.tobytes() for t in leaves])
        assert runs[0] == runs[1], f"case {case}"


def _channel_last_case(rng, count):
    """One N x h x w x C leaf and its channel-last views (``encode_batch``'s
    layout), with zero, ~zero, antiparallel and repeated maps mixed in."""
    c, h, w = (int(v) for v in rng.integers(1, 9, size=3))
    arrays = rng.normal(size=(count, h, w, c)) * rng.choice([1e-3, 1.0, 30.0])
    for i in range(1, count):
        kind = rng.integers(8)
        if kind == 0:
            arrays[i] = 0.0 if rng.random() < 0.5 else arrays[i] * 1e-14
        elif kind == 1:
            arrays[i] = -arrays[int(rng.integers(i))] * rng.uniform(0.5, 2.0)
        elif kind == 2:
            arrays[i] = arrays[int(rng.integers(i))]
    return helpers.channel_last_maps(arrays)


def test_ranking_bit_identical_to_reference():
    """``rank_modalities`` takes every cosine as a row sum over C-order rows;
    its scores and order equal ``helpers.rank_modalities_reference``'s, which
    takes one flat 1-d sum per feature, in 300 cases of channel-last maps."""
    rng = np.random.default_rng(60)
    for case in range(300):
        _, maps = _channel_last_case(rng, int(rng.integers(2, 6)))
        f_m = mean_feature(maps)
        for ref in (f_m, maps[0]):
            got = rank_modalities(maps, ref)
            want = helpers.rank_modalities_reference(maps, ref)
            assert np.array(got.scores).tobytes() == np.array(want.scores).tobytes(), case
            assert got == want, case


def test_consistency_bit_identical_to_reference():
    """Value and every gradient of ``consistency_loss`` equal those of
    ``helpers.consistency_chain``, with one flat cosine per similarity, byte
    for byte, in 300 cases of channel-last maps shared between terms, with an
    f_mim that is a recorded op's output."""
    rng = np.random.default_rng(61)
    for case in range(300):
        state = rng.bit_generator.state
        runs = []
        for op in (one_scene_consistency, consistency_chain):
            rng.bit_generator.state = state  # the same draw for both
            leaf, maps = _channel_last_case(rng, int(rng.integers(3, 7)))
            maps.append(T.mul(maps[-1], 1.3))
            terms = [tuple(maps[j] for j in rng.integers(0, len(maps), size=3))
                     for _ in range(int(rng.integers(1, 5)))]
            loss = op(terms, int(rng.integers(1, 9)))
            pick = Tensor(rng.normal(size=maps[0].shape))
            # map 0 feeds a second op too, so its gradients' summing order counts
            backward(T.add(T.mul(loss, 1.7), sum_all(T.mul(maps[0], pick))))
            runs.append((loss.data.tobytes(), leaf.grad.tobytes()))
        assert runs[0] == runs[1], f"case {case}"


def test_consistency_gradients_through_channel_last_views():
    rng = np.random.default_rng(62)

    def build(leaf):
        f = T.unstack(transpose(leaf, (0, 3, 1, 2)))
        return consistency_loss([[(f[0], f[1], f[2]), (f[3], f[2], f[0])]], 5)

    for _ in range(5):
        check_grads(build, [rng.normal(size=(4, 2, 3, 2))])


@pytest.mark.parametrize("name", ["mean", "consistency", "fuse_level"])
def test_fused_masm_ops_record_one_op(monkeypatch, name):
    names = []
    record = T.record_op

    def spy(op_name, *rest):
        names.append(op_name)
        return record(op_name, *rest)

    monkeypatch.setattr(T, "record_op", spy)
    monkeypatch.setattr(masm, "record_op", spy)
    rng = np.random.default_rng(22)
    scalars = [Tensor(v, requires_grad=True) for v in rng.uniform(0.1, 0.9, size=4)]
    features = random_features(rng, 4)
    f_m = Tensor(np.stack([f.data for f in features[2:]]), requires_grad=True)
    build, leaf = {
        "mean": (lambda: mean_feature(scalars), scalars[0]),
        "consistency": (lambda: consistency_loss(
            [[tuple(features[:3]), (features[3], features[0], features[1])]], 3), features[0]),
        "fuse_level": (lambda: fuse_level(features[:2], f_m), f_m),
    }[name]
    out = build()
    assert names == [name]
    backward(out if out.size == 1 else sum_all(out))
    assert leaf.grad is not None


# ---------------------------------------------------------------------------
# the batched ops: each scene's slice against the per-scene op it replaced


def _scene_leaves(rng, scenes, m):
    """Arrays of one N x h x w x C channel-last level (N = scenes * m), with
    zero, antiparallel and repeated maps mixed in, and a weighting of it."""
    c, h, w = (int(v) for v in rng.integers(1, 7, size=3))
    arrays = rng.normal(size=(scenes * m, h, w, c)) * rng.choice([1e-3, 1.0, 30.0])
    for i in range(1, scenes * m):
        kind = rng.integers(6)
        if kind == 0:
            arrays[i] = 0.0
        elif kind == 1:
            arrays[i] = -arrays[int(rng.integers(i))]
        elif kind == 2:
            arrays[i] = arrays[int(rng.integers(i))]
    return arrays, rng.normal(size=arrays.shape)


@pytest.mark.parametrize("scenes, m", [(1, 2), (3, 4), (4, 3)])
def test_mean_of_deinterleaved_maps_equals_each_scenes_mean_bit_for_bit(scenes, m):
    """One ``mean`` op over the deinterleaved level gives, in scene b's slice,
    the bytes of ``mean_feature`` over scene b's own maps, and every map the
    gradient bytes; the leaf feeds a second op too, so summing order counts."""
    rng = np.random.default_rng(70 + scenes)
    for case in range(20):
        arrays, pick = _scene_leaves(rng, scenes, m)
        runs = []
        for batched in (True, False):
            leaf = Tensor(arrays, requires_grad=True)
            level = transpose(leaf, (0, 3, 1, 2))
            if batched:
                means = T.unstack(mean_feature(T.deinterleave(level, m)))
            else:
                maps = T.unstack(level)
                means = [mean_feature(maps[b * m:(b + 1) * m]) for b in range(scenes)]
            loss = sum_all(T.mul(leaf, Tensor(pick)))
            for f in means:
                loss = T.add(loss, sum_all(T.mul(f, f)))
            backward(loss)
            runs.append(([f.data.tobytes() for f in means], leaf.grad.tobytes()))
        assert runs[0] == runs[1], case


def test_fuse_level_equals_each_scenes_add_bit_for_bit():
    """Scene b's slice of ``fuse_level`` and every gradient equal ``T.add`` of its
    interaction output and its mean, byte for byte."""
    rng = np.random.default_rng(75)
    for case in range(20):
        c, h, w = (int(v) for v in rng.integers(1, 7, size=3))
        mims, means = rng.normal(size=(3, c, h, w)), rng.normal(size=(3, h, w, c))
        pick = rng.normal(size=(3, c, h, w))
        runs = []
        for batched in (True, False):
            f_mims = [Tensor(a, requires_grad=True) for a in mims]
            leaf = Tensor(means, requires_grad=True)
            f_m = transpose(leaf, (0, 3, 1, 2))
            if batched:
                fused = T.unstack(fuse_level(f_mims, f_m))
            else:
                fused = [T.add(a, b) for a, b in zip(f_mims, T.unstack(f_m))]
            loss = sum_all(T.mul(f_mims[0], Tensor(pick[0])))  # a second consumer
            for f, p in zip(fused, pick):
                loss = T.add(loss, sum_all(T.mul(f, Tensor(p))))
            backward(loss)
            runs.append(([f.data.tobytes() for f in fused], leaf.grad.tobytes(),
                         [f.grad.tobytes() for f in f_mims]))
        assert runs[0] == runs[1], case
    with pytest.raises(TensorError):
        fuse_level([Tensor(np.ones((2, 1, 1)))], Tensor(np.ones((2, 2, 1, 1))))


def test_consistency_over_scenes_equals_mean_of_per_scene_chains_bit_for_bit():
    """The batch's one ``consistency`` op against a ``consistency_chain`` per
    scene averaged by ``mean_feature``, the per-scene ops and batch mean it
    replaced: value and every gradient byte for byte, over channel-last maps
    with zero, antiparallel and repeated maps and f_mim recorded ops."""
    rng = np.random.default_rng(76)
    for case in range(100):
        scenes, count = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        arrays, pick = _scene_leaves(rng, scenes, 3)
        picks = [rng.integers(0, 3, size=3) for _ in range(count)]
        k = int(rng.integers(1, 9))
        runs = []
        for batched in (True, False):
            leaf = Tensor(arrays, requires_grad=True)
            maps = T.unstack(transpose(leaf, (0, 3, 1, 2)))
            scene_terms = []
            for b in range(scenes):
                own = maps[3 * b:3 * b + 3]
                scene_terms.append([(T.mul(own[i], 1.3), own[j], own[l]) for i, j, l in picks])
            if batched:
                loss = consistency_loss(scene_terms, k)
            else:
                loss = mean_feature([consistency_chain(terms, k) for terms in scene_terms])
            backward(T.add(T.mul(loss, 1.7), sum_all(T.mul(leaf, Tensor(pick)))))
            runs.append((loss.data.tobytes(), leaf.grad.tobytes()))
        assert runs[0] == runs[1], case


def test_masm_forward_over_scenes_equals_each_scene_alone():
    """Every scene's fused levels, rankings and terms from one batched
    ``masm_forward`` equal those of the scene run alone, and its maps'
    gradients from a loss on the fused levels are the same bytes."""
    params = init_mim_params((2, 3), np.random.default_rng(77))
    leaves = tiny_leaves(4, 78, scenes=3)
    rng = np.random.default_rng(79)
    weights = [rng.normal(size=(3, c, s, s)) for c, s in ((2, 4), (3, 2))]

    def run(arrays, w):
        mine = [Tensor(a, requires_grad=True) for a in arrays]
        fused, rankings, terms = masm_forward(
            [transpose(leaf, (0, 3, 1, 2)) for leaf in mine], 4, params)
        loss = sum_all(T.mul(fused[0], Tensor(w[0])))
        loss = T.add(loss, sum_all(T.mul(fused[1], Tensor(w[1]))))
        values = [[f.data.tobytes() for f in T.unstack(level)] for level in fused]
        term_bytes = [[[t.data.tobytes() for t in term] for term in scene] for scene in terms]
        backward(loss)
        return values, rankings, term_bytes, [leaf.grad for leaf in mine]

    batch = run([leaf.data for leaf in leaves], weights)
    for b in range(3):
        alone = run([leaf.data[4 * b:4 * b + 4] for leaf in leaves], [w[b:b + 1] for w in weights])
        assert [level[b] for level in batch[0]] == [level[0] for level in alone[0]]
        assert batch[1][b] == alone[1][0] and batch[2][b] == alone[2][0]
        for got, want in zip(batch[3], alone[3]):
            assert got[4 * b:4 * b + 4].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# full forward


def tiny_leaves(m, seed, scenes=1, channels=(2, 3), size=4):
    """Per level, an N x h x w x C leaf holding the m modality maps of each
    scene in turn."""
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=(scenes * m, size // 2 ** i, size // 2 ** i, c)),
                   requires_grad=True) for i, c in enumerate(channels)]


def tiny_levels(m, seed, scenes=1, **kwargs):
    """Level tensors laid out as ``encode_batch`` gives them, channel-last in
    memory."""
    return [transpose(leaf, (0, 3, 1, 2)) for leaf in tiny_leaves(m, seed, scenes, **kwargs)]


def test_masm_forward_m2_has_empty_remaining():
    params = init_mim_params((2, 3), np.random.default_rng(8))
    with no_grad():
        fused, rankings, terms = masm_forward(tiny_levels(2, 9), 2, params)
    assert len(fused) == 2
    assert all(r.remaining == () for r in rankings[0])
    assert terms == [[]]
    assert consistency_loss(terms, class_count=4).item() == 0.0


def test_masm_forward_m4_has_two_remaining_per_scale():
    params = init_mim_params((2, 3), np.random.default_rng(10))
    levels = tiny_levels(4, 11)
    with no_grad():
        fused, rankings, terms = masm_forward(levels, 4, params)
    assert len(terms[0]) == 2
    for i, (rank, (f_mim, f_1, f_2), lvl) in enumerate(zip(rankings[0], terms[0], fused)):
        assert len(rank.remaining) == 2
        for f, j in ((f_1, rank.remaining[0]), (f_2, rank.remaining[1])):
            assert np.shares_memory(f.data, levels[i].data)
            assert f.data.tobytes() == levels[i].data[j].tobytes()
        assert lvl.shape == (1, *f_mim.shape)
        assert np.all(np.isfinite(lvl.data))
    assert len(rankings[0]) == 2  # one per level, in level order


def test_masm_forward_terms_read_only_the_first_two_remaining():
    """No term at M=3, where one modality remains; at M=5 one term per scale
    from the first two of three remaining, and the third gets no gradient."""
    params = init_mim_params((2, 3), np.random.default_rng(23))
    with no_grad():
        assert masm_forward(tiny_levels(3, 24), 3, params)[2] == [[]]
    leaves = tiny_leaves(5, 24)
    levels = [transpose(leaf, (0, 3, 1, 2)) for leaf in leaves]
    _, rankings, terms = masm_forward(levels, 5, params)
    backward(consistency_loss(terms, class_count=4))
    assert len(terms[0]) == 2
    for i, (rank, (_, f_1, f_2)) in enumerate(zip(rankings[0], terms[0])):
        first, second, third = rank.remaining
        assert f_1.data.tobytes() == levels[i].data[first].tobytes()
        assert f_2.data.tobytes() == levels[i].data[second].tobytes()
        grad = leaves[i].grad
        assert np.any(grad[first]) and np.any(grad[second]) and not np.any(grad[third])


def test_masm_forward_identical_modalities_tie_order():
    params = init_mim_params((2, 3), np.random.default_rng(12))
    base = tiny_levels(1, 13)
    levels = [Tensor(np.concatenate([level.data] * 3)) for level in base]
    with no_grad():
        _, rankings, _ = masm_forward(levels, 3, params)
    for rank in rankings[0]:
        assert rank.robust_idx == 0
        assert rank.fragile_idx == 2
        assert rank.remaining == (1,)


def test_masm_forward_requires_two_modalities():
    params = init_mim_params((2, 3), np.random.default_rng(14))
    with pytest.raises(TensorError):
        masm_forward(tiny_levels(1, 15), 1, params)


def test_masm_permutation_equivariance():
    params = init_mim_params((2, 3), np.random.default_rng(16))
    levels = tiny_levels(3, 17)
    perm = [2, 0, 1]
    with no_grad():
        fused_a, ranks_a, _ = masm_forward(levels, 3, params)
        fused_b, ranks_b, _ = masm_forward([Tensor(level.data[perm]) for level in levels], 3,
                                           params)
    for ra, rb in zip(ranks_a[0], ranks_b[0]):
        assert perm[rb.robust_idx] == ra.robust_idx
        assert perm[rb.fragile_idx] == ra.fragile_idx
    for fa, fb in zip(fused_a, fused_b):
        assert np.allclose(fa.data, fb.data, atol=1e-12)


def test_consistency_grads_reach_encoder_weights():
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10)).model_config(5, ("a", "b", "c", "d"))
    rng = np.random.default_rng(18)
    enc_params = init_encoder_params(cfg, rng)
    mim_params = init_mim_params(cfg.stage_channels, rng)
    params = {**enc_params, **mim_params}
    data_rng = np.random.default_rng(19)
    images = [Tensor(data_rng.random((3, 32, 32))) for _ in range(4)]

    def loss_fn(p):
        _, _, terms = masm_forward(encode_batch(images, cfg, p), 4, p)
        return consistency_loss(terms, class_count=5)

    backward(loss_fn(params))
    check_param_grad(loss_fn, params, "enc.s0.b0.mlp.b2", eps=1e-5)
    check_param_grad(loss_fn, params, "enc.s3.patch.b", eps=1e-5)
