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
    """Elementwise arithmetic mean of equal-shape tensors, added in list order."""
    if not features:
        raise TensorError("mean_feature: empty feature list")
    shape = features[0].shape
    for f in features[1:]:
        if f.shape != shape:
            raise TensorError(f"mean_feature: shape mismatch {f.shape} vs {shape}")
    total = features[0]
    for f in features[1:]:
        total = T.add(total, f)
    return T.div(total, float(len(features)))


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
    """[-1,1] cosine -> [eps,1] so the divergence logs stay defined."""
    return T.clamp(T.mul(T.add(c, 1.0), 0.5), SIM_EPS, 1.0)


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
    nothing. Returns the mean over contributing scales, or exact 0.
    """
    if class_count < 1:
        raise TensorError("consistency_loss: class_count must be positive")
    per_scale: list[Tensor] = []
    for scale_terms in terms:
        if len(scale_terms) < 2:
            continue
        c1, c2 = scale_terms[0], scale_terms[1]
        mid = T.mul(T.add(c1, c2), 0.5)
        contrib = T.add(T.mul(c1, T.log(T.div(c1, mid))),
                        T.mul(c2, T.log(T.div(c2, mid))))
        per_scale.append(T.mul(contrib, float(class_count)))
    if not per_scale:
        return Tensor(0.0)
    return mean_feature(per_scale)
