"""Hierarchical 4-stage encoder shared across all modalities.

Each stage merges k x k patches with a strided linear embedding, then runs
channel-MLP mixer blocks (pre-norm, residual). One parameter set encodes
every modality, so the encoder is modality-blind by construction: features
differ only because inputs do.

The output pyramid has 4 levels at 1/4, 1/8, 1/16, 1/32 of the input size.
N images are encoded as one stack: each stage is one recorded op on the
previous stage's N x C x h x w tensor, and ``encode_batch`` returns all four.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .tensor import Tensor, TensorError, accumulate_grad, record_op

STAGE_DOWNSAMPLE = (4, 2, 2, 2)
PYRAMID_LEVELS = len(STAGE_DOWNSAMPLE)
TOTAL_DOWNSAMPLE = 32
IMAGE_CHANNELS = 3  # every modality image is 3 x H x W, here and in .mmss files
LAYER_NORM_EPS = 1e-5
_BLOCK_PARAMS = ("ln.g", "ln.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")  # per mixer block

if TYPE_CHECKING:
    from .model import ModelConfig


def encoder_param_specs(cfg: ModelConfig) -> T.ParamSpecs:
    """Name and spec of every encoder parameter, in draw order; reads the
    config's ``stage_channels`` and ``blocks_per_stage``."""
    c_in = IMAGE_CHANNELS
    for s, (k, c_out) in enumerate(zip(STAGE_DOWNSAMPLE, cfg.stage_channels)):
        fan = c_in * k * k
        yield f"enc.s{s}.patch.w", T.ParamSpec((fan, c_out), fan)
        yield f"enc.s{s}.patch.b", T.ParamSpec((c_out,))
        hidden = 2 * c_out
        for b in range(cfg.blocks_per_stage):
            p = f"enc.s{s}.b{b}"
            yield f"{p}.ln.g", T.ParamSpec((c_out,), fill=1.0)
            yield f"{p}.ln.b", T.ParamSpec((c_out,))
            yield f"{p}.mlp.w1", T.ParamSpec((c_out, hidden), c_out)
            yield f"{p}.mlp.b1", T.ParamSpec((hidden,))
            yield f"{p}.mlp.w2", T.ParamSpec((hidden, c_out), hidden)
            yield f"{p}.mlp.b2", T.ParamSpec((c_out,))
        c_in = c_out


def encode_stage(x: Tensor, cfg: ModelConfig, params: dict[str, Tensor],
                 stage: int) -> Tensor:
    """Encoder stage ``stage`` over an N x C x h x w tensor as one recorded op.

    It merges k x k patches into token rows (image by image in row-major
    patch order, column c*k*k + dy*k + dx), embeds them linearly, runs the
    ``blocks_per_stage`` mixer blocks (pre-norm, residual) and returns the
    N x C' x h/k x w/k result as a channel-last view of the token rows. The
    numpy operations, and their order, are those of a chain of separately
    recorded reshape, transpose, linear, layer_norm, gelu and add ops, so
    forward and gradients equal that chain bit for bit. The backward rebuilds
    each block's layer-norm and GELU outputs, from ``xhat`` and ``pre``.
    """
    n, c, h, w = x.shape
    k = STAGE_DOWNSAMPLE[stage]
    hk, wk = h // k, w // k
    p = f"enc.s{stage}"
    pw, pb = params[f"{p}.patch.w"], params[f"{p}.patch.b"]
    blocks = [tuple(params[f"{p}.b{b}.{name}"] for name in _BLOCK_PARAMS)
              for b in range(cfg.blocks_per_stage)]
    tokens = x.data.reshape(n, c, hk, k, wk, k).transpose(0, 2, 4, 1, 3, 5)
    tokens = tokens.reshape(-1, c * k * k)
    t = tokens @ pw.data
    t += pb.data
    saved = []  # per block: what its backward reads
    for ln_g, ln_b, w1, b1, w2, b2 in blocks:
        xhat = t - t.mean(axis=-1, keepdims=True)
        # the variance as np.var takes it: the mean of the squared deviations
        inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
        xhat *= inv
        normed = xhat * ln_g.data
        normed += ln_b.data
        pre = normed @ w1.data
        pre += b1.data
        hidden, th = T._gelu(pre)
        y = hidden @ w2.data
        y += b2.data
        saved.append((xhat, inv, ln_g.data, ln_b.data, w1.data, pre, th, w2.data))
        t = t + y
    c_out = t.shape[1]
    pwd = pw.data
    x_in = x if x.requires_grad else None  # the closure keeps no unneeded input

    def bwd(g):
        g_t = g.transpose(0, 2, 3, 1).reshape(-1, c_out)  # token rows, C-contiguous
        for ln_g, ln_b, w1, b1, w2, b2 in reversed(blocks):
            xhat, inv, gamma, beta, w1d, pre, th, w2d = saved.pop()
            accumulate_grad(b2, g_t.sum(axis=0))
            g_hidden = g_t @ w2d.T
            accumulate_grad(w2, T._gelu_out(pre, th).T @ g_t)
            g_pre = T._gelu_grad(g_hidden, pre, th)
            accumulate_grad(b1, g_pre.sum(axis=0))
            g_normed = g_pre @ w1d.T
            accumulate_grad(w1, (xhat * gamma + beta).T @ g_pre)  # normed again
            accumulate_grad(ln_b, g_normed.sum(axis=0))
            accumulate_grad(ln_g, (g_normed * xhat).sum(axis=0))
            dxhat = g_normed * gamma
            g_x = inv * (dxhat
                         - dxhat.mean(axis=-1, keepdims=True)
                         - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            g_x += g_t  # the residual branch
            g_t = g_x
        accumulate_grad(pb, g_t.sum(axis=0))
        if x_in is not None:
            g_x = (g_t @ pwd.T).reshape(n, hk, wk, c, k, k)
            accumulate_grad(x_in, g_x.transpose(0, 3, 1, 4, 2, 5).reshape(n, c, h, w))
        accumulate_grad(pw, tokens.T @ g_t)

    inputs = (x, pw, pb, *(param for block in blocks for param in block))
    return record_op("encode_stage", t.reshape(n, hk, wk, c_out).transpose(0, 3, 1, 2),
                     inputs, bwd)


def encode_batch(images: list[Tensor], cfg: ModelConfig,
                 params: dict[str, Tensor]) -> list[Tensor]:
    """Encode N equal-size images as one N x C x H x W stack with the same
    weights; returns the four levels, level i an N x C_i x h_i x w_i tensor
    with the images in input order."""
    if not images:
        raise TensorError("encode_batch: empty image list")
    sizes = {im.shape for im in images}
    if len(sizes) != 1:
        raise TensorError(f"encode_batch: mismatched image shapes {sorted(sizes)}")
    shape = images[0].shape
    if len(shape) != 3 or shape[0] != IMAGE_CHANNELS:
        raise TensorError(
            f"encode_batch: expected {IMAGE_CHANNELS} x H x W images, got {shape}")
    _, h, w = shape
    if h % TOTAL_DOWNSAMPLE or w % TOTAL_DOWNSAMPLE:
        raise TensorError(f"encode_batch: {h}x{w} not divisible by {TOTAL_DOWNSAMPLE}")

    levels = [T.stack(images)]
    for s in range(PYRAMID_LEVELS):
        levels.append(encode_stage(levels[-1], cfg, params, s))
    return levels[1:]
