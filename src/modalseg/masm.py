"""Modality selection by cosine ranking, per-scale fusion, consistency loss.

At every pyramid level the M modality features are ranked by cosine
similarity to their arithmetic mean. The most and least similar (robust and
fragile) are cross-rectified by the interaction module; the result plus the
mean feature is the fused level. The remaining modalities supply mapped
similarities for a symmetric divergence penalty that pulls them toward the
fused feature. All of this is training-time machinery; inference fuses by
plain averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .mim import mim_forward
from .tensor import Tensor, TensorError, accumulate_grad, record_op

SIM_EPS = 1e-6  # floor for mapped similarities before logs
NORM_EPS = 1e-12  # below this a feature counts as zero for cosine


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
    when either norm is below NORM_EPS. The one cosine forward: ranking reads
    the value, ``cosine`` records it as an op."""
    if a.size != b.size:
        raise TensorError(f"cosine: size mismatch {a.shape} vs {b.shape}")
    af, bf = a.reshape(-1), b.reshape(-1)
    na = np.sqrt((af * af).sum())
    nb = np.sqrt((bf * bf).sum())
    if na < NORM_EPS or nb < NORM_EPS:
        return 0.0, None
    return float((af * bf).sum() / (na * nb)), (af, bf, na, nb)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of two equal-size features, one recorded op; 0, with
    no gradient, when either is ~zero."""
    c, parts = _cosine_parts(a.data, b.data)
    if parts is None:
        return Tensor(0.0)
    af, bf, na, nb = parts

    def bwd(g):
        s = g / (na * nb)
        accumulate_grad(a, (s * bf - (g * c / (na * na)) * af).reshape(a.shape))
        accumulate_grad(b, (s * af - (g * c / (nb * nb)) * bf).reshape(b.shape))

    return record_op("cosine", np.asarray(c), (a, b), bwd)


def rank_modalities(features: list[Tensor], f_m: Tensor) -> RankingResult:
    """Stable descending sort of cosine scores; first is robust, last fragile."""
    if len(features) < 2:
        raise TensorError("rank_modalities: need at least 2 modalities")
    scores = tuple(_cosine_parts(f.data, f_m.data)[0] for f in features)
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return RankingResult(scale=0, scores=scores, robust_idx=order[0],
                         fragile_idx=order[-1], remaining=tuple(order[1:-1]))


def map_similarity(c: Tensor) -> Tensor:
    """[-1,1] cosine -> [eps,1] so the divergence logs stay defined; one op."""
    x = (c.data + 1.0) * 0.5
    inside = (x >= SIM_EPS) & (x <= 1.0)

    def bwd(g):
        accumulate_grad(c, (g * inside) * 0.5)

    return record_op("map_similarity", np.clip(x, SIM_EPS, 1.0), (c,), bwd)


def masm_forward(pyramids: list[list[Tensor]], params: dict[str, Tensor]
                 ) -> tuple[list[Tensor], list[RankingResult], list[list[Tensor]]]:
    """Rank, rectify, and fuse every pyramid level of one sample.

    Returns the fused pyramid, per-scale rankings, and per-scale mapped
    similarities of the remaining modalities against the fused pair feature
    (rank order), for the consistency loss.
    """
    if len(pyramids) < 2:
        raise TensorError("masm_forward: training requires at least 2 modalities")
    levels = len(pyramids[0])
    fused: list[Tensor] = []
    rankings: list[RankingResult] = []
    terms: list[list[Tensor]] = []
    for i in range(levels):
        features = [pyr[i] for pyr in pyramids]
        f_m = mean_feature(features)
        rank = replace(rank_modalities(features, f_m), scale=i + 1)
        f_mim = mim_forward(features[rank.robust_idx], features[rank.fragile_idx],
                            params, level=i)
        fused.append(T.add(f_mim, f_m))
        terms.append([map_similarity(cosine(features[j], f_mim))
                      for j in rank.remaining])
        rankings.append(rank)
    return fused, rankings, terms


def consistency_loss(terms: list[list[Tensor]], class_count: int) -> Tensor:
    """Symmetric divergence of the first two remaining similarities per scale.

    Each contributing scale adds K * [c1*log(c1/m) + c2*log(c2/m)] with m the
    midpoint; scales with fewer than two remaining modalities contribute
    nothing. Returns the mean over contributing scales, or exact 0. One
    recorded op: since m moves with both terms, dL/dc_j is K/n * log(c_j/m).
    """
    if class_count < 1:
        raise TensorError("consistency_loss: class_count must be positive")
    pairs = [scale_terms[:2] for scale_terms in terms if len(scale_terms) >= 2]
    if not pairs:
        return Tensor(0.0)
    k = float(class_count)
    total = None
    logs = []
    for c1, c2 in pairs:
        a, b = c1.data, c2.data
        if (a <= 0.0).any() or (b <= 0.0).any():
            raise TensorError("consistency_loss: similarities must be positive")
        mid = (a + b) * 0.5
        la, lb = np.log(a / mid), np.log(b / mid)
        logs.append((la, lb))
        value = (a * la + b * lb) * k
        total = value if total is None else total + value
    n = float(len(pairs))

    def bwd(g):
        s = g * (k / n)
        for (c1, c2), (la, lb) in zip(pairs, logs):
            accumulate_grad(c1, s * la)
            accumulate_grad(c2, s * lb)

    return record_op("consistency", total / n, tuple(c for pair in pairs for c in pair),
                     bwd)
