"""All-MLP decode head and the training objective.

``embed`` is the affine front, one recorded op over a batch of pyramids: it
maps every pyramid level linearly to the common width D, resamples it to the
quarter-resolution grid and sums, which equals SegFormer's per-level
projection, concat and fuse mix with each projection folded into its slice
of the fuse weight. ``decode`` activates that map, classifies it and
resamples the logits to the label grid. Supervision is mean softmax
cross-entropy over non-ignored pixels; pixels labeled 255 never contribute.
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


def embed(pyramids: list[list[Tensor]], params: dict[str, Tensor]) -> Tensor:
    """N pyramids to the N x D x h1 x w1 maps that enter the GELU, as one
    recorded op; callers split the result into ``T.unstack`` views.

    Each level's projection is folded into its D x D slice of the fuse weight
    (``proj_i.w @ fuse.w[iD:(i+1)D]``, C_i x D), so every level goes straight
    to D channels at its own resolution, is resampled to the level-0 grid and
    summed, and one folded bias is added; there is no concat and no 4D-wide
    mix. The front is still affine, so the mean of the embeddings of N
    pyramids equals the embedding of their mean-fused pyramid.
    """
    if not pyramids:
        raise TensorError("embed: no pyramids")
    widths = tuple(params[f"head.proj{i}.w"].shape[0] for i in range(PYRAMID_LEVELS))
    for pyramid in pyramids:
        if (any(level.ndim != 3 for level in pyramid)
                or tuple(level.shape[0] for level in pyramid) != widths):
            raise TensorError(f"embed: expected {PYRAMID_LEVELS}-level pyramids of "
                              f"C x h x w maps with stage channels {widths}, got "
                              f"{[level.shape for level in pyramid]}")
    for i in range(PYRAMID_LEVELS):
        shapes = {pyramid[i].shape for pyramid in pyramids}
        if len(shapes) != 1:
            raise TensorError(f"embed: level {i} shapes differ: {sorted(shapes)}")
    n = len(pyramids)
    h1, w1 = pyramids[0][0].shape[1:]
    fuse_w = params["head.fuse.w"]
    d = fuse_w.shape[1]
    proj = [(params[f"head.proj{i}.w"], params[f"head.proj{i}.b"])
            for i in range(PYRAMID_LEVELS)]
    slices = [fuse_w.data[i * d:(i + 1) * d] for i in range(PYRAMID_LEVELS)]
    folded = [w.data @ f for (w, _), f in zip(proj, slices)]  # C_i x D each
    bias = params["head.fuse.b"].data.copy()
    for (_, b), f in zip(proj, slices):
        bias += b.data @ f
    # level i of every pyramid as N x C_i x (h_i w_i) pixel columns
    levels = [np.stack([pyramid[i].data for pyramid in pyramids]).reshape(n, c, -1)
              for i, c in enumerate(widths)]
    grids = [pyramids[0][i].shape[1:] for i in range(PYRAMID_LEVELS)]

    out = np.matmul(folded[0].T, levels[0]).reshape(n, d, h1, w1)  # level 0 is the grid
    for x, wf, (h, w) in zip(levels[1:], folded[1:], grids[1:]):
        y = np.matmul(wf.T, x).reshape(n, d, h, w)
        out += np.matmul(np.matmul(T._interp_matrix(h, h1), y), T._interp_matrix(w, w1).T)
    out += bias[:, None, None]

    def bwd(g):
        g_bias = g.sum(axis=(0, 2, 3))
        accumulate_grad(params["head.fuse.b"], g_bias)
        g_fuse = np.empty(fuse_w.shape)
        for i, (x, wf, (h, w)) in enumerate(zip(levels, folded, grids)):
            gi = g
            if i:  # level 0 is the grid
                gi = np.matmul(np.matmul(T._interp_matrix(h, h1).T, g),
                               T._interp_matrix(w, w1))
            gi = gi.reshape(n, d, h * w)
            g_x = np.matmul(wf, gi)
            for pyramid, gx in zip(pyramids, g_x):
                accumulate_grad(pyramid[i], gx.reshape(pyramid[i].shape))
            g_fold = np.matmul(x, gi.transpose(0, 2, 1)).sum(axis=0)  # C_i x D
            (pw, pb), f = proj[i], slices[i]
            accumulate_grad(pw, g_fold @ f.T)
            accumulate_grad(pb, f @ g_bias)
            g_fuse[i * d:(i + 1) * d] = pw.data.T @ g_fold + np.outer(pb.data, g_bias)
        accumulate_grad(fuse_w, g_fuse)

    inputs = (*(level for pyramid in pyramids for level in pyramid),
              *(t for pair in proj for t in pair), fuse_w, params["head.fuse.b"])
    return record_op("embed", out, inputs, bwd)


def decode(embedded: Tensor, params: dict[str, Tensor],
           out_size: tuple[int, int]) -> Tensor:
    """Embedded map to K x H x W logits."""
    logits = T.channel_mix(T.gelu(embedded), params["head.cls.w"], params["head.cls.b"])
    return T.resample_bilinear(logits, out_size[0], out_size[1])


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean -log softmax(logits)[label] over pixels whose label is not 255.

    ``labels`` is an H x W integer array.
    """
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise TensorError("cross_entropy: labels must be an integer array")
    if logits.ndim != 3:
        raise TensorError(f"cross_entropy: logits must be K x H x W, got {logits.shape}")
    k = logits.shape[0]
    if labels.shape != logits.shape[1:]:
        raise TensorError(f"cross_entropy: label grid {labels.shape} does not match "
                          f"logits {logits.shape[1:]}")
    flat_labels = labels.ravel()
    valid = flat_labels != IGNORE_LABEL
    if not np.any(valid):
        raise TensorError("cross_entropy: every pixel is ignored")
    if flat_labels[valid].min() < 0 or flat_labels[valid].max() >= k:
        raise TensorError(f"cross_entropy: labels outside [0, {k})")

    flat = logits.data.reshape(k, -1)
    shifted = flat - flat.max(axis=0)
    logp = shifted - np.log(np.exp(shifted).sum(axis=0))
    pix = np.flatnonzero(valid)
    cls = flat_labels[pix]
    n_valid = pix.size
    loss = -logp[cls, pix].mean()

    def bwd(g):
        d = np.zeros_like(flat)
        d[:, pix] = np.exp(logp[:, pix])
        d[cls, pix] -= 1.0
        accumulate_grad(logits, (g * d / n_valid).reshape(logits.shape))

    return record_op("cross_entropy", np.asarray(loss), (logits,), bwd)


def total_loss(l_m: Tensor, l_c: Tensor, beta: float) -> Tensor:
    """L_M + beta * L_C; returns L_M itself when beta is exactly 0."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0.0:
        return l_m
    return T.add(l_m, T.mul(l_c, float(beta)))
