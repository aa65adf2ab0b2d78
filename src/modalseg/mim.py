"""Cross-modal feature rectification and fusion for one (robust, fragile) pair.

Channel stage: dual global pooling of both maps feeds a shared 2-layer MLP
whose sigmoid output splits into one attention vector per input; each map is
rectified additively with the other's weighted map. Spatial stage: a 1x1 mix
of the concatenated pair yields two sigmoid maps used the same way. A final
1x1 mix of the rectified pair produces the fused map.

Rectification is additive (f + W (.) other), so zero attention degenerates to
the identity. Each pyramid level owns an independent parameter set.
"""

from __future__ import annotations

from . import tensor as T
from .tensor import Tensor, TensorError


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


def _check_pair(name: str, f_a: Tensor, f_b: Tensor) -> tuple[int, int, int]:
    if f_a.ndim != 3 or f_a.shape != f_b.shape:
        raise TensorError(f"{name}: need equal C x h x w maps, got "
                          f"{f_a.shape} vs {f_b.shape}")
    return f_a.shape


def rectify_channel(f_a: Tensor, f_b: Tensor, params: dict[str, Tensor],
                    level: int) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Cross-calibrate per-channel: returns (f_a', f_b', W_a, W_b)."""
    c, _, _ = _check_pair("rectify_channel", f_a, f_b)
    p = f"mim.l{level}"
    z = T.concat([T.pool_global(f_a, "avg"), T.pool_global(f_a, "max"),
                  T.pool_global(f_b, "avg"), T.pool_global(f_b, "max")], axis=0)
    z = T.reshape(z, (1, 4 * c))
    hidden = T.gelu(T.linear(z, params[f"{p}.ch.w1"], params[f"{p}.ch.b1"]))
    att = T.sigmoid(T.linear(hidden, params[f"{p}.ch.w2"], params[f"{p}.ch.b2"]))
    w_a, w_b = T.unstack(T.reshape(att, (2, c)))
    out_a = T.add(f_a, T.scale_channels(f_b, w_b))
    out_b = T.add(f_b, T.scale_channels(f_a, w_a))
    return out_a, out_b, w_a, w_b


def rectify_spatial(f_a: Tensor, f_b: Tensor, params: dict[str, Tensor],
                    level: int) -> tuple[Tensor, Tensor]:
    """Cross-calibrate per-pixel: returns (f_a'', f_b'')."""
    _check_pair("rectify_spatial", f_a, f_b)
    p = f"mim.l{level}"
    att = T.sigmoid(T.channel_mix(T.concat([f_a, f_b], axis=0),
                                  params[f"{p}.sp.w"], params[f"{p}.sp.b"]))
    m_a, m_b = T.unstack(att)
    out_a = T.add(f_a, T.scale_spatial(f_b, m_b))
    out_b = T.add(f_b, T.scale_spatial(f_a, m_a))
    return out_a, out_b


def fuse(f_a: Tensor, f_b: Tensor, params: dict[str, Tensor], level: int) -> Tensor:
    """Mix the rectified pair down to one C x h x w map."""
    _check_pair("fuse", f_a, f_b)
    p = f"mim.l{level}"
    return T.channel_mix(T.concat([f_a, f_b], axis=0),
                         params[f"{p}.fuse.w"], params[f"{p}.fuse.b"])


def mim_forward(f_robust: Tensor, f_fragile: Tensor, params: dict[str, Tensor],
                level: int) -> Tensor:
    """Full rectify-then-fuse pipeline for one scale."""
    a, b, _, _ = rectify_channel(f_robust, f_fragile, params, level)
    a, b = rectify_spatial(a, b, params, level)
    return fuse(a, b, params, level)
