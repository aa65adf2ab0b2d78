"""Modality selection by cosine ranking, per-scale fusion, consistency loss.

Training runs over the batch: a level is one tensor of the M modality maps of
each of B scenes in turn. Per level one ``mean`` op gives every scene's mean
map, each scene ranks its maps by cosine similarity to it, the most and least
similar (robust and fragile) are cross-rectified by the interaction module,
one ``mim`` op per scene, and one ``fuse_level`` op adds each scene's result
to its mean. The first two remaining modalities, if any, are pulled toward
the interaction output by a symmetric divergence of their mapped cosines to
it, one recorded op for the batch. Ranking and loss read one cosine kernel that
takes every dot product and norm as a row sum. All of this is training-time
machinery; inference fuses by plain averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .mim import mim_forward
from .tensor import Tensor, TensorError, accumulate_grad, record_op

SIM_EPS = 1e-6  # floor for mapped similarities before logs
NORM_EPS = 1e-12  # below this a feature counts as zero for cosine

Term = tuple[Tensor, Tensor, Tensor]  # f_mim, then the first two remaining modalities


@dataclass(frozen=True)
class RankingResult:
    """Per-scale outcome of the similarity ranking."""

    scores: tuple[float, ...]
    robust_idx: int
    fragile_idx: int
    remaining: tuple[int, ...]  # descending score, excludes robust and fragile


def mean_feature(features: list[Tensor]) -> Tensor:
    """Elementwise arithmetic mean of equal-shape tensors, added in list
    order, one recorded op."""
    if not features:
        raise TensorError("mean_feature: empty feature list")
    shape = features[0].shape
    for f in features[1:]:
        if f.shape != shape:
            raise TensorError(f"mean_feature: shape mismatch {f.shape} vs {shape}")
    total = np.array(features[0].data)  # the one fresh buffer
    for f in features[1:]:
        total += f.data
    n = float(len(features))
    total /= n

    def bwd(g):
        share = g / n
        for f in features:
            accumulate_grad(f, share)

    return record_op("mean", total, tuple(features), bwd)


def _rows(groups) -> np.ndarray:
    """The G x (m + 1) x size C-order copy of G groups of m + 1 tensors."""
    return np.array([[f.data for f in g] for g in groups]).reshape(len(groups), len(groups[0]), -1)


def _cosines(groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosines of each group's tensors to its last one, the reference, over
    G groups of m + 1 equal-shape tensors, and what their gradients read
    besides the ``_rows``: ``(cos, norms, ref_norms)``, G x m cosines and
    norms and G x 1 reference norms. Each dot product and squared norm is a
    row sum, and a cosine is 0 where either norm is below NORM_EPS."""
    shape = groups[0][-1].shape
    for group in groups:
        if any(f.shape != shape for f in group):
            raise TensorError(f"cosine: shape mismatch {[f.shape for f in group]} vs {shape}")
    rows = _rows(groups)
    dots = (rows * rows[:, -1:]).sum(axis=2)  # the last is the reference's squared norm
    norms = np.sqrt((rows[:, :-1] * rows[:, :-1]).sum(axis=2))
    ref_norms = np.sqrt(dots[:, -1:])
    cos = np.zeros(norms.shape)
    np.divide(dots[:, :-1], norms * ref_norms, out=cos,
              where=np.minimum(norms, ref_norms) >= NORM_EPS)
    return cos, norms, ref_norms


def rank_modalities(features: list[Tensor], f_m: Tensor) -> RankingResult:
    """Stable descending sort of cosine scores; first is robust, last fragile."""
    if len(features) < 2:
        raise TensorError("rank_modalities: need at least 2 modalities")
    scores = tuple(_cosines([(*features, f_m)])[0][0].tolist())
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return RankingResult(scores=scores, robust_idx=order[0], fragile_idx=order[-1],
                         remaining=tuple(order[1:-1]))


def masm_forward(levels: list[Tensor], modalities: int, params: dict[str, Tensor]
                 ) -> tuple[list[Tensor], list[list[RankingResult]], list[list[Term]]]:
    """Rank, rectify and fuse every level of a batch. Level i is an
    N x C_i x h_i x w_i tensor holding the ``modalities`` maps of each scene
    in turn. Returns the fused B x C_i x h_i x w_i levels, and per scene its
    rankings in level order and a ``consistency_loss`` term for each level
    with two or more remaining modalities."""
    if modalities < 2:
        raise TensorError("masm_forward: training requires at least 2 modalities")
    scenes = levels[0].shape[0] // modalities
    rankings, terms = [[] for _ in range(scenes)], [[] for _ in range(scenes)]
    fused = []
    for i, level in enumerate(levels):
        f_m = mean_feature(T.deinterleave(level, modalities))
        maps, means = T.unstack(level), T.unstack(f_m)
        f_mims = []
        for s in range(scenes):
            features = maps[s * modalities:(s + 1) * modalities]
            rank = rank_modalities(features, means[s])
            f_mim = mim_forward(features[rank.robust_idx], features[rank.fragile_idx],
                                params, level=i)
            if len(rank.remaining) >= 2:
                terms[s].append((f_mim, *(features[j] for j in rank.remaining[:2])))
            rankings[s].append(rank)
            f_mims.append(f_mim)
        fused.append(fuse_level(f_mims, f_m))
    return fused, rankings, terms


def fuse_level(f_mims: list[Tensor], f_m: Tensor) -> Tensor:
    """The fused level: scene b's interaction output plus its mean feature
    ``f_m[b]``, one recorded op over the B scenes."""
    out = np.stack([f.data for f in f_mims])
    if out.shape != f_m.shape:
        raise TensorError(f"fuse_level: interaction outputs {out.shape} vs means {f_m.shape}")
    out += f_m.data

    def bwd(g):
        for f, g_f in zip(f_mims, g):
            accumulate_grad(f, g_f)
        accumulate_grad(f_m, g)

    return record_op("fuse_level", out, (*f_mims, f_m), bwd)


def consistency_loss(scene_terms: list[list[Term]], class_count: int) -> Tensor:
    """L_C of a batch from ``masm_forward``'s terms, as one recorded op: the
    mean over the scenes of each scene's mean over its terms. In each term
    ``(f_mim, f_1, f_2)`` the cosines of f_1 and f_2 to f_mim, mapped to
    c1, c2 in [SIM_EPS, 1], give K * [c1*log(c1/m) + c2*log(c2/m)], m their
    midpoint. Scenes carry equally many terms, the j-th of equal shape; no terms
    give an untracked 0. dL/dc_j is K/(B*n) * log(c_j/m) for n terms a scene;
    a clipped similarity, or a zero-norm feature's cosine (mapped to 0.5),
    passes no gradient. The backward rebuilds the terms' row copies and
    accumulates in one pass: last term position first and, within one, last
    scene first, which is the order of a tape of one op per term whenever no
    tensor is shared between scenes."""
    if class_count < 1:
        raise TensorError("consistency_loss: class_count must be positive")
    if not any(scene_terms):
        return Tensor(0.0)
    if len({len(terms) for terms in scene_terms}) != 1:
        raise TensorError("consistency_loss: scenes carry different numbers of terms")
    k, b, n = float(class_count), float(len(scene_terms)), float(len(scene_terms[0]))
    columns = []  # per term position, over the scenes: what its backward reads
    totals = None
    for column in zip(*scene_terms):
        groups = [(f_1, f_2, f_mim) for f_mim, f_1, f_2 in column]
        cos, norms, ref_norms = _cosines(groups)
        xs = (cos + 1.0) * 0.5  # [-1, 1] to [0, 1], then clipped
        sims = np.clip(xs, SIM_EPS, 1.0)
        logs = np.log(sims / ((sims[:, 0] + sims[:, 1]) * 0.5)[:, None])
        values = (sims[:, 0] * logs[:, 0] + sims[:, 1] * logs[:, 1]) * k
        totals = values if totals is None else totals + values
        columns.append((groups, cos, norms, ref_norms,
                        (xs >= SIM_EPS) & (xs <= 1.0), logs))
    total = None
    for loss in (totals / n).tolist():
        total = loss if total is None else total + loss

    def bwd(g):
        s = float(g / b) * (k / n)  # the output is a scalar
        for groups, cos, norms, ref_norms, inside, logs in reversed(columns):
            g_c = ((s * logs) * inside) * 0.5  # a clipped similarity passes no gradient
            has_grad = np.minimum(norms, ref_norms) >= NORM_EPS
            na = np.where(has_grad, norms, 1.0)
            nb = np.where(has_grad, ref_norms, 1.0)
            s_c = g_c / (na * nb)
            rows = _rows(groups)
            g_f = s_c[..., None] * rows[:, 2:] - (g_c * cos / (na * na))[..., None] * rows[:, :2]
            g_m = s_c[..., None] * rows[:, :2] - (g_c * cos / (nb * nb))[..., None] * rows[:, 2:]
            del rows
            for i in reversed(range(len(groups))):
                *features, f_mim = groups[i]
                for j in (1, 0):  # last similarity first
                    if has_grad[i, j]:
                        f = features[j]
                        accumulate_grad(f, g_f[i, j].reshape(f.shape))
                        accumulate_grad(f_mim, g_m[i, j].reshape(f_mim.shape))

    inputs = tuple(t for terms in scene_terms for term in terms for t in term)
    return record_op("consistency", np.asarray(total / b), inputs, bwd)
