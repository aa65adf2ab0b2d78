"""All-MLP decode head and the training objective.

``embed`` projects every pyramid level linearly to a common width,
resamples it to the quarter-resolution grid, concatenates and mixes: the
affine front. ``decode`` activates that map, classifies it and resamples the
logits to the label grid. Supervision is mean softmax cross-entropy over
non-ignored pixels; pixels labeled 255 never contribute.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoder import PYRAMID_LEVELS
from .tensor import Tensor, TensorError, accumulate_grad, record_op

IGNORE_LABEL = 255


def head_param_specs(stage_channels, d_embed: int, num_classes: int) -> T.ParamSpecs:
    """Name and spec of every head parameter, in draw order."""
    if num_classes < 2:
        raise ValueError("decode head needs at least 2 classes")
    if d_embed < 1:
        raise ValueError("embedding width must be positive")
    for i, c in enumerate(stage_channels):
        yield f"head.proj{i}.w", T.ParamSpec((c, d_embed), c)
        yield f"head.proj{i}.b", T.ParamSpec((d_embed,))
    fan = len(stage_channels) * d_embed
    yield "head.fuse.w", T.ParamSpec((fan, d_embed), fan)
    yield "head.fuse.b", T.ParamSpec((d_embed,))
    yield "head.cls.w", T.ParamSpec((d_embed, num_classes), d_embed)
    yield "head.cls.b", T.ParamSpec((num_classes,))


def embed(pyramid: list[Tensor], params: dict[str, Tensor]) -> Tensor:
    """Pyramid to the D x h1 x w1 map that enters the GELU.

    Projection, resampling, concat and the fuse mix are all affine, so the
    embedding of a mean-fused pyramid is the mean of its modalities' embeddings.
    """
    widths = tuple(params[f"head.proj{i}.w"].shape[0] for i in range(PYRAMID_LEVELS))
    got = tuple(level.shape[0] for level in pyramid)
    if got != widths:
        raise TensorError(f"embed: expected a {PYRAMID_LEVELS}-level pyramid with "
                          f"stage channels {widths}, got widths {got}")
    h1, w1 = pyramid[0].shape[1], pyramid[0].shape[2]
    projected = []
    for i, level in enumerate(pyramid):
        p = T.channel_mix(level, params[f"head.proj{i}.w"], params[f"head.proj{i}.b"])
        projected.append(T.resample_bilinear(p, h1, w1))
    stack = T.concat(projected, axis=0)
    return T.channel_mix(stack, params["head.fuse.w"], params["head.fuse.b"])


def decode(embedded: Tensor, params: dict[str, Tensor],
           out_size: tuple[int, int]) -> Tensor:
    """Embedded map to K x H x W logits."""
    logits = T.channel_mix(T.gelu(embedded), params["head.cls.w"], params["head.cls.b"])
    return T.resample_bilinear(logits, out_size[0], out_size[1])


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean -log softmax(logits)[label] over pixels whose label is not 255.

    ``labels`` is an H x W integer array (or integer-valued Tensor).
    """
    if isinstance(labels, Tensor):
        labels = labels.data
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        rounded = np.rint(labels)
        if not np.array_equal(rounded, labels):
            raise TensorError("cross_entropy: labels must be integers")
        labels = rounded.astype(np.int64)
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
