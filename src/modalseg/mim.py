"""Cross-modal feature rectification and fusion for one (robust, fragile) pair.

The pair travels as one 2 x C x h x w stack: index 0 the robust map, index 1
the fragile one. Channel stage: dual global pooling of both maps feeds a
shared 2-layer MLP whose sigmoid output gives one attention vector per map.
Spatial stage: a 1x1 mix of the pair yields one sigmoid map per map. Both
stages rectify with ``cross_rectify``: each map gains the other map weighted
by the other's attention. A final 1x1 mix of the rectified pair produces the
fused map.

Rectification is additive (f + W (.) other), so zero attention degenerates to
the identity. Each pyramid level owns an independent parameter set.
"""

from __future__ import annotations

from . import tensor as T
from .tensor import Tensor, TensorError, accumulate_grad, record_op


def init_mim_params(stage_channels, rng) -> dict[str, Tensor]:
    """Per-level attention/fusion parameters for the given pyramid widths."""
    params: dict[str, Tensor] = {}
    for lvl, c in enumerate(stage_channels):
        p = f"mim.l{lvl}"
        params[f"{p}.ch.w1"] = T.uniform_param(rng, (4 * c, 2 * c), 4 * c)
        params[f"{p}.ch.b1"] = T.zeros_param((2 * c,))
        params[f"{p}.ch.w2"] = T.uniform_param(rng, (2 * c, 2 * c), 2 * c)
        params[f"{p}.ch.b2"] = T.zeros_param((2 * c,))
        params[f"{p}.sp.w"] = T.uniform_param(rng, (2 * c, 2), 2 * c)
        params[f"{p}.sp.b"] = T.zeros_param((2,))
        params[f"{p}.fuse.w"] = T.uniform_param(rng, (2 * c, c), 2 * c)
        params[f"{p}.fuse.b"] = T.zeros_param((c,))
    return params


def cross_rectify(pair: Tensor, att: Tensor) -> Tensor:
    """``pair + (pair * att)[::-1]``: each map of a 2 x ... stack plus the
    other map scaled by the other's attention. ``att`` has the pair's rank
    and broadcasts over the axes where it has length 1."""
    if pair.shape[0] != 2 or att.shape[0] != 2 or att.ndim != pair.ndim or any(
            a not in (1, p) for a, p in zip(att.shape, pair.shape)):
        raise TensorError(f"cross_rectify: attention {att.shape} does not "
                          f"broadcast over a 2 x ... pair {pair.shape}")
    pd, ad = pair.data, att.data
    axes = tuple(i for i, (a, p) in enumerate(zip(att.shape, pair.shape)) if a != p)

    def bwd(g):
        swapped = g[::-1]
        accumulate_grad(pair, g + swapped * ad)
        accumulate_grad(att, (swapped * pd).sum(axis=axes, keepdims=True))

    return record_op("cross_rectify", pd + (pd * ad)[::-1], (pair, att), bwd)


def rectify_channel(pair: Tensor, params: dict[str, Tensor],
                    level: int) -> tuple[Tensor, Tensor]:
    """Cross-calibrate per channel: returns the rectified pair and the
    2 x C x 1 x 1 attention."""
    _, c, _, _ = pair.shape
    p = f"mim.l{level}"
    z = T.concat([T.pool_global(pair, "avg"), T.pool_global(pair, "max")], axis=1)
    z = T.reshape(z, (1, 4 * c))  # [avg_a, max_a, avg_b, max_b]
    hidden = T.gelu(T.linear(z, params[f"{p}.ch.w1"], params[f"{p}.ch.b1"]))
    att = T.sigmoid(T.linear(hidden, params[f"{p}.ch.w2"], params[f"{p}.ch.b2"]))
    att = T.reshape(att, (2, c, 1, 1))
    return cross_rectify(pair, att), att


def rectify_spatial(pair: Tensor, params: dict[str, Tensor], level: int) -> Tensor:
    """Cross-calibrate per pixel: returns the rectified pair."""
    _, c, h, w = pair.shape
    p = f"mim.l{level}"
    att = T.sigmoid(T.channel_mix(T.reshape(pair, (2 * c, h, w)),
                                  params[f"{p}.sp.w"], params[f"{p}.sp.b"]))
    return cross_rectify(pair, T.reshape(att, (2, 1, h, w)))


def fuse(pair: Tensor, params: dict[str, Tensor], level: int) -> Tensor:
    """Mix the rectified pair down to one C x h x w map."""
    _, c, h, w = pair.shape
    p = f"mim.l{level}"
    return T.channel_mix(T.reshape(pair, (2 * c, h, w)),
                         params[f"{p}.fuse.w"], params[f"{p}.fuse.b"])


def mim_forward(f_robust: Tensor, f_fragile: Tensor, params: dict[str, Tensor],
                level: int) -> Tensor:
    """Full rectify-then-fuse pipeline for one scale; the two maps must be
    equal C x h x w maps."""
    if f_robust.ndim != 3:
        raise TensorError(f"mim_forward: need C x h x w maps, got {f_robust.shape}")
    pair, _ = rectify_channel(T.stack([f_robust, f_fragile]), params, level)
    return fuse(rectify_spatial(pair, params, level), params, level)
