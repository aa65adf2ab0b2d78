"""Cross-modal feature rectification and fusion for one (robust, fragile) pair.

``mim_forward`` records the whole module as one op, ``mim``: one
straight-line forward in three sections over the pair as one 2 x C x h x w
array (index 0 the robust map, index 1 the fragile one), and one backward
that walks them in reverse:

- channel: dual global pooling of both maps feeds a shared 2-layer MLP whose
  sigmoid output gives one attention vector per map;
- spatial: a 1x1 mix of the pair yields one sigmoid map per map;
- fuse: a final 1x1 mix of the rectified pair gives the fused map.

Both rectify sections cross-rectify, ``pair + (pair * att)[::-1]``: each map
gains the other map weighted by the other's attention. Rectification is
additive (f + W (.) other), so zero attention degenerates to the identity.
Each pyramid level owns an independent parameter set. The pair keeps the
layout ``np.stack`` gives the maps (channel-last for encoder views): its
pooling and attention gradients sum in memory order. The backward keeps the
pair, the channel section's output, the MLP's intermediates, both sigmoids
and the fuse mix's tokens; it rebuilds the spatial mix's tokens. The stages,
each with its own backward, live on in ``tests/helpers.py``
(``rectify_channel_reference``, ``rectify_spatial_reference``,
``fuse_reference``) as the references this op matches byte for byte.
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


def mim_forward(f_robust: Tensor, f_fragile: Tensor, params: dict[str, Tensor],
                level: int) -> Tensor:
    """Full rectify-then-fuse pipeline for one scale as one recorded op; the
    two maps must be equal C x h x w maps."""
    if f_robust.ndim != 3 or f_fragile.shape != f_robust.shape:
        raise TensorError(f"mim_forward: need two equal C x h x w maps, got "
                          f"{f_robust.shape} and {f_fragile.shape}")
    inputs = (f_robust, f_fragile, *(params[n] for n in _names(level)))
    w1, b1, w2, b2, sw, sb, fw, fb = inputs[2:]
    w1d, w2d, swd, fwd = w1.data, w2.data, sw.data, fw.data
    pair = np.concatenate((f_robust.data[None], f_fragile.data[None]))  # as np.stack lays it out
    _, c, h, w = pair.shape

    # channel: each map and channel's avg and max pixel (the first max in
    # row-major order wins), [avg_a, max_a, avg_b, max_b], feed the MLP
    peaks = (*_map_channel_index(c),
             *np.unravel_index(pair.reshape(2, c, h * w).argmax(axis=-1), (h, w)))
    z = np.concatenate([np.add.reduce(pair, axis=(2, 3)) / (h * w), pair[peaks]],
                       axis=1).reshape(1, 4 * c)  # the avg as np.mean takes it
    pre = z @ w1d + b1.data
    hidden, th = T._gelu(pre)
    logits = hidden @ w2d + b2.data
    if not np.isfinite(logits).all():  # the sigmoid maps an Inf logit to a finite 0 or 1
        raise NonFiniteError("mim: non-finite channel attention logits")
    ch_sig = T._sigmoid(logits)
    ch_att = ch_sig.reshape(2, c, 1, 1)
    ch_out = pair + (pair * ch_att)[::-1]

    # spatial: a 1x1 mix of the pair gives one attention map per map
    logits, _ = T._mix(ch_out.reshape(2 * c, h, w), swd, sb.data)
    if not np.isfinite(logits).all():
        raise NonFiniteError("mim: non-finite spatial attention logits")
    sp_sig = T._sigmoid(logits)
    sp_att = sp_sig.reshape(2, 1, h, w)
    sp_out = ch_out + (ch_out * sp_att)[::-1]

    # fuse: a final 1x1 mix of the rectified pair
    out, tokens = T._mix(sp_out.reshape(2 * c, h, w), fwd, fb.data)

    def bwd(g):
        # fuse
        g_f, g_w, g_b = T._mix_grad(g, tokens, fwd)
        accumulate_grad(fb, g_b)
        accumulate_grad(fw, g_w)
        g = g_f.reshape(pair.shape)

        # spatial: the attention's gradient sums over channels
        swapped = g[::-1]
        g_att = np.add.reduce(swapped * ch_out, axis=1).reshape(sp_sig.shape)
        g = g + swapped * sp_att
        sp_tokens = ch_out.reshape(2 * c, h * w).T  # _mix's copy again, rather than kept
        g_f, g_w, g_b = T._mix_grad(T._sigmoid_grad(g_att, sp_sig), sp_tokens, swd)
        accumulate_grad(sb, g_b)
        accumulate_grad(sw, g_w)
        g += g_f.reshape(pair.shape)

        # channel: the attention's gradient sums over pixels
        swapped = g[::-1]
        g_att = np.add.reduce(swapped * pair, axis=(2, 3)).reshape(ch_sig.shape)
        g = g + swapped * ch_att
        g_logits = T._sigmoid_grad(g_att, ch_sig)
        accumulate_grad(b2, g_logits.sum(axis=0))
        accumulate_grad(w2, hidden.T @ g_logits)
        g_pre = T._gelu_grad(g_logits @ w2d.T, pre, th)
        accumulate_grad(b1, g_pre.sum(axis=0))
        accumulate_grad(w1, z.T @ g_pre)
        g_z = (g_pre @ w1d.T).reshape(2, 2, c)
        g[peaks] += g_z[:, 1]  # each max to its pixel
        g += (g_z[:, 0] / (h * w))[..., None, None]
        accumulate_grad(f_robust, g[0])
        accumulate_grad(f_fragile, g[1])

    return record_op("mim", out, inputs, bwd)
