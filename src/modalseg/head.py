"""All-MLP decode head and the training objective.

``embed`` is the affine front, one recorded op over a batch: it maps every
pyramid level linearly to the common width D, resamples it to the
quarter-resolution grid and sums, which equals SegFormer's per-level
projection, concat and fuse mix with each projection folded into its slice
of the fuse weight. ``decode``, one op per map, activates it (GELU),
classifies it and resamples the logits to the label grid. Supervision is one
op over the batch: the scenes' mean of softmax cross-entropy over each
scene's pixels; pixels labeled 255 never contribute.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoder import PYRAMID_LEVELS
from .tensor import Tensor, TensorError, accumulate_grad, record_op

IGNORE_LABEL = 255


def head_param_specs(stage_channels, d_embed: int, num_classes: int) -> T.ParamSpecs:
    """Name and spec of every head parameter, in draw order."""
    for i, c in enumerate(stage_channels):
        yield f"head.proj{i}.w", T.ParamSpec((c, d_embed), c)
        yield f"head.proj{i}.b", T.ParamSpec((d_embed,))
    fan = len(stage_channels) * d_embed
    yield "head.fuse.w", T.ParamSpec((fan, d_embed), fan)
    yield "head.fuse.b", T.ParamSpec((d_embed,))
    yield "head.cls.w", T.ParamSpec((d_embed, num_classes), d_embed)
    yield "head.cls.b", T.ParamSpec((num_classes,))


def embed(levels: list[Tensor], params: dict[str, Tensor]) -> Tensor:
    """The four levels of N pyramids, level i an N x C_i x h_i x w_i tensor,
    to the N x D x h1 x w1 maps that enter the GELU, as one recorded op;
    callers split the result into ``T.unstack`` views.

    Each level's projection is folded into its D x D slice of the fuse weight
    (``proj_i.w @ fuse.w[iD:(i+1)D]``, C_i x D), so every level goes straight
    to D channels at its own resolution, is resampled to the level-0 grid and
    summed, and one folded bias is added; there is no concat and no 4D-wide
    mix. The front is still affine, so the mean of the embeddings of N
    pyramids equals the embedding of their mean-fused pyramid.
    """
    widths = tuple(params[f"head.proj{i}.w"].shape[0] for i in range(PYRAMID_LEVELS))
    if (len(levels) != PYRAMID_LEVELS or any(level.ndim != 4 for level in levels)
            or tuple(level.shape[1] for level in levels) != widths
            or len({level.shape[0] for level in levels}) != 1):
        raise TensorError(f"embed: expected {PYRAMID_LEVELS} levels of N x C x h x w maps "
                          f"with stage channels {widths}, got "
                          f"{[level.shape for level in levels]}")
    n, _, h1, w1 = levels[0].shape
    fuse_w = params["head.fuse.w"]
    d = fuse_w.shape[1]
    proj = [(params[f"head.proj{i}.w"], params[f"head.proj{i}.b"])
            for i in range(PYRAMID_LEVELS)]
    slices = [fuse_w.data[i * d:(i + 1) * d] for i in range(PYRAMID_LEVELS)]
    folded = [w.data @ f for (w, _), f in zip(proj, slices)]  # C_i x D each
    bias = params["head.fuse.b"].data.copy()
    for (_, b), f in zip(proj, slices):
        bias += b.data @ f
    # each level as N x C_i x (h_i w_i) pixel columns, in the level's layout
    cols = [level.data.reshape(n, c, -1) for level, c in zip(levels, widths)]
    grids = [level.shape[2:] for level in levels]

    out = np.matmul(folded[0].T, cols[0]).reshape(n, d, h1, w1)  # level 0 is the grid
    for x, wf, (h, w) in zip(cols[1:], folded[1:], grids[1:]):
        y = np.matmul(wf.T, x).reshape(n, d, h, w)
        out += np.matmul(np.matmul(T._interp_matrix(h, h1), y), T._interp_matrix(w, w1).T)
    out += bias[:, None, None]

    def bwd(g):
        g_bias = g.sum(axis=(0, 2, 3))
        accumulate_grad(params["head.fuse.b"], g_bias)
        g_fuse = np.empty(fuse_w.shape)
        for i, (level, x, wf, (h, w)) in enumerate(zip(levels, cols, folded, grids)):
            gi = g
            if i:  # level 0 is the grid
                gi = np.matmul(np.matmul(T._interp_matrix(h, h1).T, g),
                               T._interp_matrix(w, w1))
            gi = gi.reshape(n, d, h * w)
            accumulate_grad(level, np.matmul(wf, gi).reshape(level.shape))
            g_fold = np.matmul(x, gi.transpose(0, 2, 1)).sum(axis=0)  # C_i x D
            (pw, pb), f = proj[i], slices[i]
            accumulate_grad(pw, g_fold @ f.T)
            accumulate_grad(pb, f @ g_bias)
            g_fuse[i * d:(i + 1) * d] = pw.data.T @ g_fold + np.outer(pb.data, g_bias)
        accumulate_grad(fuse_w, g_fuse)

    inputs = (*levels, *(t for pair in proj for t in pair), fuse_w, params["head.fuse.b"])
    return record_op("embed", out, inputs, bwd)


def decode(embedded: Tensor, params: dict[str, Tensor],
           out_size: tuple[int, int]) -> Tensor:
    """An embedded D x h x w map to K x H x W logits, one recorded op: GELU,
    the classifier's 1x1 mix, then bilinear resampling (half-pixel centers,
    edges clamped) to ``out_size``; the backward rebuilds the GELU output."""
    w, b = params["head.cls.w"], params["head.cls.b"]
    if embedded.ndim != 3 or embedded.shape[0] != w.shape[0] or min(out_size) < 1:
        raise TensorError(f"decode: need a {w.shape[0]} x h x w map and a positive "
                          f"target, got {embedded.shape} and {out_size}")
    x, wd = embedded.data, w.data
    act, th = T._gelu(x)
    logits, _ = T._mix(act, wd, b.data)
    wy = T._interp_matrix(x.shape[1], out_size[0])
    wx = T._interp_matrix(x.shape[2], out_size[1])

    def bwd(g):
        g_act, g_w, g_b = T._mix_grad(np.matmul(np.matmul(wy.T, g), wx),
                                      T._gelu_out(x, th).reshape(x.shape[0], -1).T, wd)
        accumulate_grad(b, g_b)
        accumulate_grad(w, g_w)
        accumulate_grad(embedded, T._gelu_grad(g_act, x, th))

    return record_op("decode", np.matmul(np.matmul(wy, logits), wx.T), (embedded, w, b), bwd)


def cross_entropy(logits: list[Tensor], labels: list) -> Tensor:
    """Mean over the scenes of each scene's mean -log softmax(logits)[label]
    over its pixels whose label is not 255, one recorded op, whose backward rebuilds
    the log-softmax; ``logits[i]`` is K x H x W and ``labels[i]`` its H x W integers."""
    if not logits or len(logits) != len(labels):
        raise TensorError(f"cross_entropy: {len(logits)} logit maps for "
                          f"{len(labels)} label grids")
    total = None
    scenes = []  # per scene: what its backward reads
    for t, grid in zip(logits, labels):
        grid = np.asarray(grid)
        if not np.issubdtype(grid.dtype, np.integer):
            raise TensorError("cross_entropy: labels must be an integer array")
        if t.ndim != 3:
            raise TensorError(f"cross_entropy: logits must be K x H x W, got {t.shape}")
        k = t.shape[0]
        if grid.shape != t.shape[1:]:
            raise TensorError(f"cross_entropy: label grid {grid.shape} does not match "
                              f"logits {t.shape[1:]}")
        flat_labels = grid.ravel()
        valid = flat_labels != IGNORE_LABEL
        pix = np.flatnonzero(valid)
        if not pix.size:
            raise TensorError("cross_entropy: every pixel is ignored")
        cls = flat_labels[pix]
        if cls.min() < 0 or cls.max() >= k:
            raise TensorError(f"cross_entropy: labels outside [0, {k})")
        loss = -_log_softmax(t)[cls, pix].mean()
        total = loss if total is None else total + loss
        scenes.append((t, valid, cls, pix))
    n = float(len(logits))

    def bwd(g):
        share = g / n
        for t, valid, cls, pix in reversed(scenes):
            d = np.exp(_log_softmax(t))  # the softmax minus the one-hot label, valid pixels only
            d *= valid
            d[cls, pix] -= 1.0
            accumulate_grad(t, (share * d / pix.size).reshape(t.shape))

    return record_op("cross_entropy", np.asarray(total / n), tuple(logits), bwd)


def _log_softmax(t: Tensor) -> np.ndarray:
    """log softmax over the classes of a K x H x W map, as K x HW rows."""
    flat = t.data.reshape(t.shape[0], -1)
    shifted = flat - flat.max(axis=0)
    return shifted - np.log(np.exp(shifted).sum(axis=0))


def total_loss(l_m: Tensor, l_c: Tensor, beta: float) -> Tensor:
    """L_M + beta * L_C; returns L_M itself when beta is exactly 0."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0.0:
        return l_m
    return T.add(l_m, T.mul(l_c, float(beta)))
