"""Modality selection by cosine ranking, per-scale fusion, consistency loss.

At every pyramid level the M modality features are ranked by cosine
similarity to their arithmetic mean. The most and least similar (robust and
fragile) are cross-rectified by the interaction module; the result plus the
mean feature is the fused level. The first two remaining modalities, if
any, are pulled toward the interaction output by a symmetric divergence of
their mapped cosines to it, one recorded op per sample. Both read one
cosine kernel that takes every dot product and norm as a row sum. All of
this is training-time machinery; inference fuses by plain averaging.
"""

from __future__ import annotations

import math
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


def _cosines(features, ref: Tensor):
    """Cosines of the features to ``ref`` as Python floats, and what their
    gradients read: ``(rows, norms, ref_norm)``, the features and then ``ref``
    as C-order rows. Each dot product and squared norm is a row sum, ``ref``'s
    norm is taken once, and a cosine is 0 where either norm is below NORM_EPS."""
    m, n = len(features), ref.size
    rows = np.empty((m + 1, n))
    for row, f in zip(rows, (*features, ref)):
        if f.size != n:
            raise TensorError(f"cosine: size mismatch {f.shape} vs {ref.shape}")
        row.reshape(f.shape)[...] = f.data
    dots = (rows * rows[m]).sum(axis=1)  # the last is ref's squared norm
    norms = np.sqrt((rows[:m] * rows[:m]).sum(axis=1))
    ref_norm = math.sqrt(dots[m])
    cos = np.zeros(m)
    if ref_norm >= NORM_EPS:
        np.divide(dots[:m], norms * ref_norm, out=cos, where=norms >= NORM_EPS)
    return cos.tolist(), (rows, norms.tolist(), ref_norm)


def rank_modalities(features: list[Tensor], f_m: Tensor) -> RankingResult:
    """Stable descending sort of cosine scores; first is robust, last fragile."""
    if len(features) < 2:
        raise TensorError("rank_modalities: need at least 2 modalities")
    scores = tuple(_cosines(features, f_m)[0])
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return RankingResult(scores=scores, robust_idx=order[0], fragile_idx=order[-1],
                         remaining=tuple(order[1:-1]))


def masm_forward(pyramids: list[list[Tensor]], params: dict[str, Tensor]
                 ) -> tuple[list[Tensor], list[RankingResult], list[Term]]:
    """Rank, rectify, and fuse every pyramid level of one sample. Returns the
    fused pyramid, the rankings in level order, and a ``consistency_loss``
    term for each scale with two or more remaining modalities."""
    if len(pyramids) < 2:
        raise TensorError("masm_forward: training requires at least 2 modalities")
    levels = len(pyramids[0])
    fused: list[Tensor] = []
    rankings: list[RankingResult] = []
    terms: list[Term] = []
    for i in range(levels):
        features = [pyr[i] for pyr in pyramids]
        f_m = mean_feature(features)
        rank = rank_modalities(features, f_m)
        f_mim = mim_forward(features[rank.robust_idx], features[rank.fragile_idx],
                            params, level=i)
        fused.append(T.add(f_mim, f_m))
        if len(rank.remaining) >= 2:
            terms.append((f_mim, features[rank.remaining[0]], features[rank.remaining[1]]))
        rankings.append(rank)
    return fused, rankings, terms


def consistency_loss(terms: list[Term], class_count: int) -> Tensor:
    """L_C from ``masm_forward``'s terms as one recorded op. In each term
    ``(f_mim, f_1, f_2)`` the cosines of f_1 and f_2 to f_mim, mapped to c1, c2
    in [SIM_EPS, 1], give K * [c1*log(c1/m) + c2*log(c2/m)], m their midpoint.
    Returns the mean over terms, or exact 0 for none. dL/dc_j is
    K/n * log(c_j/m); a clipped similarity, or a zero-norm feature's cosine
    (mapped to 0.5), passes no gradient."""
    if class_count < 1:
        raise TensorError("consistency_loss: class_count must be positive")
    if not terms:
        return Tensor(0.0)
    k = float(class_count)
    total = None
    sims = []  # per similarity with a gradient: what its backward reads
    for f_mim, f_1, f_2 in terms:
        cos, (rows, norms, ref_norm) = _cosines((f_1, f_2), f_mim)
        xs = [(c + 1.0) * 0.5 for c in cos]  # [-1, 1] to [0, 1], then clipped
        a, b = (min(max(x, SIM_EPS), 1.0) for x in xs)
        mid = (a + b) * 0.5
        la, lb = np.log(a / mid), np.log(b / mid)
        for f, row, na, c, x, log_ratio in zip((f_1, f_2), rows, norms, cos, xs, (la, lb)):
            inside = SIM_EPS <= x <= 1.0  # a clipped similarity passes no gradient
            if na >= NORM_EPS and ref_norm >= NORM_EPS:
                sims.append((f, f_mim, row, rows[2], na, ref_norm, c, inside, log_ratio))
        value = (a * la + b * lb) * k
        total = value if total is None else total + value
    n = float(len(terms))

    def bwd(g):
        s = float(g) * (k / n)  # the output is a scalar
        # last similarity first: the order a tape of one op per step would take
        for f, f_mim, af, bf, na, nb, c, inside, log_ratio in reversed(sims):
            g_c = ((s * log_ratio) * inside) * 0.5
            s_c = g_c / (na * nb)
            accumulate_grad(f, (s_c * bf - (g_c * c / (na * na)) * af).reshape(f.shape))
            accumulate_grad(f_mim,
                            (s_c * af - (g_c * c / (nb * nb)) * bf).reshape(f_mim.shape))

    return record_op("consistency", total / n, tuple(t for term in terms for t in term), bwd)
