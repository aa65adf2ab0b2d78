"""Modality selection by cosine ranking, per-scale fusion, consistency loss.

At every pyramid level the M modality features are ranked by cosine
similarity to their arithmetic mean. The most and least similar (robust and
fragile) are cross-rectified by the interaction module; the result plus the
mean feature is the fused level. The first two remaining modalities, if
any, are pulled toward the interaction output by a symmetric divergence of
their mapped cosines to it, one recorded op per sample. All of this is
training-time machinery; inference fuses by plain averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    scale: int
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


def _cosine_parts(a: np.ndarray, b: np.ndarray):
    """``(cosine, (af, bf, na, nb))`` of two equal-size arrays: their cosine
    similarity and the flat arrays and norms it came from, or ``(0.0, None)``
    when either norm is below NORM_EPS. The one cosine forward, read by the
    ranking and by ``consistency_loss``."""
    if a.size != b.size:
        raise TensorError(f"cosine: size mismatch {a.shape} vs {b.shape}")
    af, bf = a.reshape(-1), b.reshape(-1)
    na = np.sqrt((af * af).sum())
    nb = np.sqrt((bf * bf).sum())
    if na < NORM_EPS or nb < NORM_EPS:
        return 0.0, None
    return float((af * bf).sum() / (na * nb)), (af, bf, na, nb)


def rank_modalities(features: list[Tensor], f_m: Tensor) -> RankingResult:
    """Stable descending sort of cosine scores; first is robust, last fragile."""
    if len(features) < 2:
        raise TensorError("rank_modalities: need at least 2 modalities")
    scores = tuple(_cosine_parts(f.data, f_m.data)[0] for f in features)
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return RankingResult(scale=0, scores=scores, robust_idx=order[0],
                         fragile_idx=order[-1], remaining=tuple(order[1:-1]))


def masm_forward(pyramids: list[list[Tensor]], params: dict[str, Tensor]
                 ) -> tuple[list[Tensor], list[RankingResult], list[Term]]:
    """Rank, rectify, and fuse every pyramid level of one sample. Returns the
    fused pyramid, per-scale rankings, and a ``consistency_loss`` term for
    each scale with two or more remaining modalities."""
    if len(pyramids) < 2:
        raise TensorError("masm_forward: training requires at least 2 modalities")
    levels = len(pyramids[0])
    fused: list[Tensor] = []
    rankings: list[RankingResult] = []
    terms: list[Term] = []
    for i in range(levels):
        features = [pyr[i] for pyr in pyramids]
        f_m = mean_feature(features)
        rank = replace(rank_modalities(features, f_m), scale=i + 1)
        f_mim = mim_forward(features[rank.robust_idx], features[rank.fragile_idx],
                            params, level=i)
        fused.append(T.add(f_mim, f_m))
        if len(rank.remaining) >= 2:
            terms.append((f_mim, features[rank.remaining[0]], features[rank.remaining[1]]))
        rankings.append(rank)
    return fused, rankings, terms


def _mapped_cosine(f: Tensor, f_mim: Tensor):
    """Cosine of ``f`` to ``f_mim`` mapped from [-1, 1] to [SIM_EPS, 1] so the
    divergence logs stay defined, and what its backward reads."""
    c, parts = _cosine_parts(f.data, f_mim.data)
    x = (np.float64(c) + 1.0) * 0.5
    return np.clip(x, SIM_EPS, 1.0), (f, f_mim, c, parts, (x >= SIM_EPS) & (x <= 1.0))


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
    sims = []  # per similarity: its inputs, cosine parts, clip mask and log ratio
    for f_mim, f_1, f_2 in terms:
        a, sim_a = _mapped_cosine(f_1, f_mim)
        b, sim_b = _mapped_cosine(f_2, f_mim)
        mid = (a + b) * 0.5
        la, lb = np.log(a / mid), np.log(b / mid)
        sims += [(*sim_a, la), (*sim_b, lb)]
        value = (a * la + b * lb) * k
        total = value if total is None else total + value
    n = float(len(terms))

    def bwd(g):
        s = g * (k / n)
        # last similarity first: the order a tape of one op per step would take
        for f, f_mim, c, parts, inside, log_ratio in reversed(sims):
            if parts is None:
                continue
            af, bf, na, nb = parts
            g_c = ((s * log_ratio) * inside) * 0.5
            s_c = g_c / (na * nb)
            accumulate_grad(f, (s_c * bf - (g_c * c / (na * na)) * af).reshape(f.shape))
            accumulate_grad(f_mim,
                            (s_c * af - (g_c * c / (nb * nb)) * bf).reshape(f_mim.shape))

    return record_op("consistency", total / n, tuple(t for term in terms for t in term), bwd)
