"""Cross-modal feature rectification and fusion for one (robust, fragile) pair.

``mim_forward`` records the whole module as one op, ``mim``, with a
hand-written backward. Inside it the pair travels as one 2 x C x h x w array
(index 0 the robust map, index 1 the fragile one) through three plain-numpy
stages. Each stage returns its output and its backward, which maps the
output gradient to the input gradient and accumulates the stage's parameter
gradients on the way:

- ``rectify_channel``: dual global pooling of both maps feeds a shared
  2-layer MLP whose sigmoid output gives one attention vector per map.
- ``rectify_spatial``: a 1x1 mix of the pair yields one sigmoid map per map.
- ``fuse``: a final 1x1 mix of the rectified pair gives the fused map.

Both rectify stages cross-rectify, ``pair + (pair * att)[::-1]``: each map
gains the other map weighted by the other's attention. Rectification is
additive (f + W (.) other), so zero attention degenerates to the identity.
Each pyramid level owns an independent parameter set. The pair keeps the
layout ``np.stack`` gives the maps (channel-last for encoder views): its
pooling and attention gradients sum in memory order.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .tensor import NonFiniteError, Tensor, TensorError, accumulate_grad, record_op

_PARAM_NAMES = ("ch.w1", "ch.b1", "ch.w2", "ch.b2", "sp.w", "sp.b", "fuse.w", "fuse.b")


def mim_param_specs(stage_channels) -> T.ParamSpecs:
    """Name and spec of every per-level attention/fusion parameter, in draw order."""
    for lvl, c in enumerate(stage_channels):
        p = f"mim.l{lvl}"
        yield f"{p}.ch.w1", T.ParamSpec((4 * c, 2 * c), 4 * c)
        yield f"{p}.ch.b1", T.ParamSpec((2 * c,))
        yield f"{p}.ch.w2", T.ParamSpec((2 * c, 2 * c), 2 * c)
        yield f"{p}.ch.b2", T.ParamSpec((2 * c,))
        yield f"{p}.sp.w", T.ParamSpec((2 * c, 2), 2 * c)
        yield f"{p}.sp.b", T.ParamSpec((2,))
        yield f"{p}.fuse.w", T.ParamSpec((2 * c, c), 2 * c)
        yield f"{p}.fuse.b", T.ParamSpec((c,))


@functools.lru_cache(maxsize=None)
def _names(level: int) -> tuple[str, ...]:
    """The level's parameter names, in ``_PARAM_NAMES`` order."""
    return tuple(f"mim.l{level}.{n}" for n in _PARAM_NAMES)


@functools.lru_cache(maxsize=None)
def _map_channel_index(c: int) -> tuple[np.ndarray, np.ndarray]:
    """A 2 x C pair's map and channel indices, shared by every call: only read."""
    return np.arange(2)[:, None], np.arange(c)


def _cross_rectify(pair: np.ndarray, logits: np.ndarray, shape, axes, stage: str):
    """``pair + (pair * att)[::-1]``: each map plus the other map scaled by the
    other's attention ``att``, the sigmoid of ``logits`` viewed as ``shape``.
    Returns it, ``att`` and its backward, which gives the pair's gradient and
    the logits' (the attention's, summed over ``axes``, through the sigmoid).
    The sigmoid maps an Inf logit to a finite 0 or 1, so logits are checked."""
    if not np.isfinite(logits).all():
        raise NonFiniteError(f"mim: non-finite {stage} attention logits")
    sig = T._sigmoid(logits)
    att = sig.reshape(shape)

    def grad(g):
        swapped = g[::-1]
        g_att = np.add.reduce(swapped * pair, axis=axes).reshape(sig.shape)
        return g + swapped * att, T._sigmoid_grad(g_att, sig)

    return pair + (pair * att)[::-1], att, grad


def rectify_channel(pair: np.ndarray, params: dict[str, Tensor], level: int):
    """Cross-calibrate per channel. Returns the rectified pair, the
    2 x C x 1 x 1 attention and the stage's backward."""
    _, c, h, w = pair.shape
    w1, b1, w2, b2 = (params[n] for n in _names(level)[:4])
    w1d, w2d = w1.data, w2.data
    # each map and channel's max pixel, first max in row-major order winning
    peaks = (*_map_channel_index(c),
             *np.unravel_index(pair.reshape(2, c, h * w).argmax(axis=-1), (h, w)))
    # [avg_a, max_a, avg_b, max_b]; the avg as np.mean takes it
    z = np.concatenate([np.add.reduce(pair, axis=(2, 3)) / (h * w), pair[peaks]],
                       axis=1).reshape(1, 4 * c)
    pre = z @ w1d + b1.data
    hidden, th = T._gelu(pre)
    logits = hidden @ w2d + b2.data
    out, att, rectify_grad = _cross_rectify(pair, logits, (2, c, 1, 1), (2, 3), "channel")

    def grad(g):
        g_pair, g_logits = rectify_grad(g)
        accumulate_grad(b2, g_logits.sum(axis=0))
        accumulate_grad(w2, hidden.T @ g_logits)
        g_pre = T._gelu_grad(g_logits @ w2d.T, pre, th)
        accumulate_grad(b1, g_pre.sum(axis=0))
        accumulate_grad(w1, z.T @ g_pre)
        g_z = (g_pre @ w1d.T).reshape(2, 2, c)
        g_pair[peaks] += g_z[:, 1]  # each max to its pixel
        g_pair += (g_z[:, 0] / (h * w))[..., None, None]
        return g_pair

    return out, att, grad


def rectify_spatial(pair: np.ndarray, params: dict[str, Tensor], level: int):
    """Cross-calibrate per pixel. Returns the rectified pair and the stage's
    backward."""
    _, c, h, w = pair.shape
    sw, sb = (params[n] for n in _names(level)[4:6])
    swd = sw.data
    logits, _ = T._mix(pair.reshape(2 * c, h, w), swd, sb.data)
    out, _, rectify_grad = _cross_rectify(pair, logits, (2, 1, h, w), 1, "spatial")

    def grad(g):
        g_pair, g_logits = rectify_grad(g)
        tokens = pair.reshape(2 * c, h * w).T  # _mix's copy again, rather than kept on the tape
        g_f, g_w, g_b = T._mix_grad(g_logits, tokens, swd)
        accumulate_grad(sb, g_b)
        accumulate_grad(sw, g_w)
        g_pair += g_f.reshape(pair.shape)
        return g_pair

    return out, grad


def fuse(pair: np.ndarray, params: dict[str, Tensor], level: int):
    """Mix the rectified pair down to one C x h x w map. Returns the map and
    the stage's backward."""
    _, c, h, w = pair.shape
    fw, fb = (params[n] for n in _names(level)[6:])
    fwd = fw.data
    out, tokens = T._mix(pair.reshape(2 * c, h, w), fwd, fb.data)

    def grad(g):
        g_f, g_w, g_b = T._mix_grad(g, tokens, fwd)
        accumulate_grad(fb, g_b)
        accumulate_grad(fw, g_w)
        return g_f.reshape(pair.shape)

    return out, grad


def mim_forward(f_robust: Tensor, f_fragile: Tensor, params: dict[str, Tensor],
                level: int) -> Tensor:
    """Full rectify-then-fuse pipeline for one scale as one recorded op; the
    two maps must be equal C x h x w maps."""
    if f_robust.ndim != 3 or f_fragile.shape != f_robust.shape:
        raise TensorError(f"mim_forward: need two equal C x h x w maps, got "
                          f"{f_robust.shape} and {f_fragile.shape}")
    pair = np.concatenate((f_robust.data[None], f_fragile.data[None]))  # as np.stack lays it out
    pair, _, channel_grad = rectify_channel(pair, params, level)
    pair, spatial_grad = rectify_spatial(pair, params, level)
    out, fuse_grad = fuse(pair, params, level)

    def bwd(g):
        g_pair = channel_grad(spatial_grad(fuse_grad(g)))
        accumulate_grad(f_robust, g_pair[0])
        accumulate_grad(f_fragile, g_pair[1])

    inputs = (f_robust, f_fragile, *(params[n] for n in _names(level)))
    return record_op("mim", out, inputs, bwd)
