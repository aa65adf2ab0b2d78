"""Hierarchical 4-stage encoder shared across all modalities.

Each stage merges k x k patches with a strided linear embedding, then runs
channel-MLP mixer blocks (pre-norm, residual). One parameter set encodes
every modality, so the encoder is modality-blind by construction: features
differ only because inputs do.

The output pyramid has 4 levels at 1/4, 1/8, 1/16, 1/32 of the input size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import tensor as T
from .tensor import Tensor, TensorError

STAGE_DOWNSAMPLE = (4, 2, 2, 2)
PYRAMID_LEVELS = len(STAGE_DOWNSAMPLE)
TOTAL_DOWNSAMPLE = 32
IMAGE_CHANNELS = 3  # every modality image is 3 x H x W, here and in .mmss files

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


def _merge_patches(x: Tensor, k: int) -> Tensor:
    """N x C x h x w -> (N * h/k * w/k) x (C*k*k) token matrix; rows run image
    by image in row-major patch order, column c*k*k + dy*k + dx."""
    n, c, h, w = x.shape
    x = T.reshape(x, (n, c, h // k, k, w // k, k))
    x = T.transpose(x, (0, 2, 4, 1, 3, 5))
    return T.reshape(x, (n * (h // k) * (w // k), c * k * k))


def _mixer_block(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    normed = T.layer_norm(x, params[f"{prefix}.ln.g"], params[f"{prefix}.ln.b"])
    h = T.gelu(T.linear(normed, params[f"{prefix}.mlp.w1"], params[f"{prefix}.mlp.b1"]))
    h = T.linear(h, params[f"{prefix}.mlp.w2"], params[f"{prefix}.mlp.b2"])
    return T.add(x, h)


def encode_batch(images: list[Tensor], cfg: ModelConfig,
                 params: dict[str, Tensor]) -> list[list[Tensor]]:
    """Encode N equal-size images as one N x C x H x W stack with the same
    weights; one pyramid per image, in input order."""
    if not images:
        raise TensorError("encode_batch: empty image list")
    sizes = {im.shape for im in images}
    if len(sizes) != 1:
        raise TensorError(f"encode_batch: mismatched image shapes {sorted(sizes)}")
    shape = images[0].shape
    if len(shape) != 3 or shape[0] != IMAGE_CHANNELS:
        raise TensorError(
            f"encode_batch: expected {IMAGE_CHANNELS} x H x W images, got {shape}")
    n = len(images)
    _, h, w = shape
    if h % TOTAL_DOWNSAMPLE or w % TOTAL_DOWNSAMPLE:
        raise TensorError(f"encode_batch: {h}x{w} not divisible by {TOTAL_DOWNSAMPLE}")

    levels: list[list[Tensor]] = []
    x = T.stack(images)
    for s, (k, c_out) in enumerate(zip(STAGE_DOWNSAMPLE, cfg.stage_channels)):
        h, w = h // k, w // k
        tokens = _merge_patches(x, k)
        tokens = T.linear(tokens, params[f"enc.s{s}.patch.w"], params[f"enc.s{s}.patch.b"])
        for b in range(cfg.blocks_per_stage):
            tokens = _mixer_block(tokens, params, f"enc.s{s}.b{b}")
        x = T.transpose(T.reshape(tokens, (n, h, w, c_out)), (0, 3, 1, 2))
        levels.append(T.unstack(x))
    return [list(pyramid) for pyramid in zip(*levels)]
