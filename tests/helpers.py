"""Shared oracles for the test suites: finite differences, error metrics,
per-module parameter construction, generic tensor ops the model does not run,
the per-map ops the fused decode replaced (``gelu``, ``channel_mix``,
``resample_bilinear``) and the per-scene cross-entropy the batched one
replaced, the encoder stages, the MIM pipeline, the head's affine front and
the consistency loss as chains of recorded ops, the earlier bodies of the
ranking and MIM that the current ones must reproduce bit for bit, the plain
numpy expressions that the in-place kernel bodies must reproduce bit for
bit, the per-parameter AdamW loop the arena update must reproduce bit for
bit, the checkpoint writer whose bytes ``train.save_checkpoint`` must
reproduce, a tool that rewrites a container file with an edited header
or arrays and a fresh checksum, and the ``tracemalloc`` peak of a call."""

from __future__ import annotations

import itertools
import json
import math
import struct
import tracemalloc
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

import modalseg.masm as masm
import modalseg.tensor as T
from modalseg.encoder import (LAYER_NORM_EPS, PYRAMID_LEVELS, STAGE_DOWNSAMPLE,
                              encoder_param_specs)
from modalseg.head import IGNORE_LABEL, head_param_specs
from modalseg.mim import mim_param_specs
from modalseg.tensor import (NonFiniteError, Tensor, TensorError, accumulate_grad,
                             backward, no_grad, record_op)
from modalseg.train import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CKPT_MAGIC, CKPT_VERSION,
                            WEIGHT_DECAY)

FD_EPS = 1e-6
FD_TOL = 1e-4


def traced_peak(fn):
    """``(fn(), peak)``: what ``fn`` returns and the ``tracemalloc`` peak, in
    bytes, of a trace started just before the call; the trace stops even
    when ``fn`` raises."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    return float(np.max(np.abs(a - b) / denom))


def check_grads(build, arrays, tol=FD_TOL, eps=FD_EPS):
    """Compare tape gradients of a scalar loss against central differences.

    ``build`` maps one Tensor per input array to a scalar loss tensor.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*leaves)
    backward(loss)

    def value_at(replaced: int, arr: np.ndarray) -> float:
        args = [Tensor(a) for a in arrays]
        args[replaced] = Tensor(arr)
        with no_grad():
            return build(*args).item()

    for k, (leaf, arr) in enumerate(zip(leaves, arrays)):
        assert leaf.grad is not None, f"input {k} got no gradient"
        num = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            plus, minus = arr.copy(), arr.copy()
            plus[idx] += eps
            minus[idx] -= eps
            num[idx] = (value_at(k, plus) - value_at(k, minus)) / (2 * eps)
        err = max_rel_err(leaf.grad, num)
        assert err < tol, f"input {k}: gradient mismatch, rel err {err:.3g}"


def check_param_grad(loss_fn, params: dict, pname: str, tol=FD_TOL, eps=FD_EPS):
    """Finite-difference check for one named parameter of a param dict.

    ``loss_fn(params)`` must rebuild the scalar loss from current param data.
    The analytic gradient must already be populated on the parameter.
    """
    target = params[pname]
    assert target.grad is not None, f"{pname} got no gradient"
    base = target.data.copy()
    num = np.zeros_like(base)
    try:
        for idx in np.ndindex(base.shape):
            vals = []
            for sign in (+1, -1):
                probe = base.copy()
                probe[idx] += sign * eps
                target.data = probe
                with no_grad():
                    vals.append(loss_fn(params).item())
            num[idx] = (vals[0] - vals[1]) / (2 * eps)
    finally:
        target.data = base
    err = max_rel_err(target.grad, num)
    assert err < tol, f"{pname}: gradient mismatch, rel err {err:.3g}"


def channel_last_maps(array: np.ndarray):
    """An N x h x w x C leaf and its N C x h x w maps as ``encode_batch`` lays
    them out: ``T.unstack`` views of the leaf transposed channels-first, so
    each map is a strided view with the channel axis innermost in memory."""
    leaf = Tensor(array, requires_grad=True)
    return leaf, T.unstack(transpose(leaf, (0, 3, 1, 2)))


def split_pyramids(levels) -> list[list[Tensor]]:
    """``encoder.encode_batch``'s level tensors as one pyramid of
    ``T.unstack`` views per image."""
    return [list(pyramid) for pyramid in zip(*(T.unstack(level) for level in levels))]


# ---------------------------------------------------------------------------
# one module's parameters, drawn as ``model.init_model_params`` draws the model's


def init_encoder_params(cfg, rng) -> dict[str, Tensor]:
    return T.init_params(encoder_param_specs(cfg), rng)


def init_mim_params(stage_channels, rng) -> dict[str, Tensor]:
    return T.init_params(mim_param_specs(stage_channels), rng)


def init_head_params(stage_channels, d_embed: int, num_classes: int, rng) -> dict[str, Tensor]:
    return T.init_params(head_param_specs(stage_channels, d_embed, num_classes), rng)


# ---------------------------------------------------------------------------
# generic ops the model does not run: the loss reducers of the gradient checks,
# the concat of ``mim_chain`` and ``embed_chain``, the pooling and sigmoid of
# ``mim_chain``, and the per-map ops the fused decode replaced


def div(a: Tensor, b) -> Tensor:
    bd, bt = T._binary_operands("div", a, b)
    if np.any(bd == 0.0):
        raise ZeroDivisionError("div: zero divisor")
    ad = a.data

    def bwd(g):
        accumulate_grad(a, g / bd)
        if bt is not None:
            accumulate_grad(bt, -g * ad / (bd * bd))

    return record_op("div", ad / bd, (a, bt) if bt else (a,), bwd)


def sum_all(t: Tensor) -> Tensor:
    shape = t.shape

    def bwd(g):
        accumulate_grad(t, np.broadcast_to(g, shape))

    return record_op("sum", np.asarray(t.data.sum()), (t,), bwd)


def exp(t: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow becomes NonFiniteError below
        out_data = np.exp(t.data)

    def bwd(g):
        accumulate_grad(t, g * out_data)

    return record_op("exp", out_data, (t,), bwd)


def log(t: Tensor) -> Tensor:
    if np.any(t.data <= 0.0):
        raise TensorError("log: domain requires strictly positive values")
    td = t.data

    def bwd(g):
        accumulate_grad(t, g / td)

    return record_op("log", np.log(td), (t,), bwd)


def sigmoid(t: Tensor) -> Tensor:
    out_data = T._sigmoid(t.data)

    def bwd(g):
        accumulate_grad(t, T._sigmoid_grad(g, out_data))

    return record_op("sigmoid", out_data, (t,), bwd)


def clamp(t: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise TensorError(f"clamp: need lo < hi, got [{lo}, {hi}]")
    inside = (t.data >= lo) & (t.data <= hi)

    def bwd(g):
        accumulate_grad(t, g * inside)

    return record_op("clamp", np.clip(t.data, lo, hi), (t,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    if not tensors:
        raise TensorError("concat: empty input list")
    first = tensors[0]
    if not 0 <= axis < first.ndim:
        raise TensorError(f"concat: axis {axis} out of range for ndim {first.ndim}")
    for t in tensors[1:]:
        if t.ndim != first.ndim:
            raise TensorError("concat: rank mismatch")
        for ax in range(first.ndim):
            if ax != axis and t.shape[ax] != first.shape[ax]:
                raise TensorError(f"concat: shape mismatch {t.shape} vs {first.shape}")
    offsets = list(itertools.accumulate((t.shape[axis] for t in tensors), initial=0))

    def bwd(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            accumulate_grad(t, g[tuple(sl)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return record_op("concat", data, tuple(tensors), bwd)


def gelu(t: Tensor) -> Tensor:
    """tanh-approximation GELU; smooth, so finite differences behave."""
    x = t.data
    out_data, th = T._gelu(x)

    def bwd(g):
        accumulate_grad(t, T._gelu_grad(g, x, th))

    return record_op("gelu", out_data, (t,), bwd)


def _check_chw(name: str, f: Tensor) -> tuple[int, int, int]:
    if f.ndim != 3:
        raise TensorError(f"{name}: expected C x h x w tensor, got shape {f.shape}")
    return f.shape


def channel_mix(f: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """1x1 projection: a C x h x w map times a C x D weight, plus a length-D
    bias, gives a D x h x w map."""
    c, h, wd = _check_chw("channel_mix", f)
    if w.ndim != 2 or w.shape[0] != c:
        raise TensorError(f"channel_mix: weight shape {w.shape} != ({c}, D)")
    d = w.shape[1]
    if b.shape != (d,):
        raise TensorError(f"channel_mix: bias shape {b.shape} != ({d},)")
    out, tokens = T._mix(f.data, w.data, b.data)
    wmat = w.data

    def bwd(g):
        g_f, g_w, g_b = T._mix_grad(g, tokens, wmat)
        accumulate_grad(b, g_b)
        accumulate_grad(f, g_f)
        accumulate_grad(w, g_w)

    return record_op("channel_mix", out, (f, w, b), bwd)


def resample_bilinear(f: Tensor, h2: int, w2: int) -> Tensor:
    """Bilinear resize of a C x h x w map (half-pixel centers, edges clamped)."""
    c, h, w = _check_chw("resample_bilinear", f)
    if h2 < 1 or w2 < 1:
        raise TensorError(f"resample_bilinear: target {h2}x{w2} must be positive")
    wy = T._interp_matrix(h, h2)
    wx = T._interp_matrix(w, w2)
    data = np.matmul(np.matmul(wy, f.data), wx.T)

    def bwd(g):
        accumulate_grad(f, np.matmul(np.matmul(wy.T, g), wx))

    return record_op("resample_bilinear", data, (f,), bwd)


def pool_global(f: Tensor, kind: str) -> Tensor:
    """Collapse the spatial extent of a ... x h x w map (at least 3 axes),
    keeping the leading axes: a C x h x w map gives a length-C vector."""
    if f.ndim < 3:
        raise TensorError(f"pool_global: expected ... x h x w tensor, got shape {f.shape}")
    h, w = f.shape[-2:]
    if kind == "avg":
        def bwd(g):
            accumulate_grad(f, np.broadcast_to((g / (h * w))[..., None, None], f.shape))

        return record_op("pool_avg", f.data.mean(axis=(-2, -1)), (f,), bwd)
    if kind == "max":
        flat = f.data.reshape(*f.shape[:-2], h * w)
        idx = flat.argmax(axis=-1)[..., None]  # first max wins; deterministic

        def bwd(g):
            full = np.zeros_like(flat)
            np.put_along_axis(full, idx, g[..., None], axis=-1)
            accumulate_grad(f, full.reshape(f.shape))

        return record_op("pool_max", flat.max(axis=-1), (f,), bwd)
    raise TensorError(f"pool_global: kind must be 'avg' or 'max', got {kind!r}")


# ---------------------------------------------------------------------------
# the encoder as a chain of recorded ops, the reference for the fused
# ``encoder.encode_stage``: the generic linear-algebra, structure and
# normalisation ops it was built from, and the stage chain itself


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``: an N x C token matrix times a C x D weight, plus a
    length-D bias added to every row."""
    if x.ndim != 2 or w.ndim != 2:
        raise TensorError(f"linear: need 2-d operands, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise TensorError(f"linear: inner dims differ, {x.shape} @ {w.shape}")
    d = w.shape[1]
    if b.shape != (d,):
        raise TensorError(f"linear: bias shape {b.shape} != ({d},)")
    xd, wd = x.data, w.data

    def bwd(g):
        accumulate_grad(b, g.reshape(-1, d).sum(axis=0))
        accumulate_grad(x, g @ wd.T)
        accumulate_grad(w, xd.T @ g)

    out = xd @ wd
    out += b.data
    return record_op("linear", out, (x, w, b), bwd)


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise TensorError(f"reshape: dimensions must be positive, got {shape}")
    if math.prod(shape) != t.size:
        raise TensorError(f"reshape: cannot view {t.shape} as {shape}")
    orig = t.shape

    def bwd(g):
        accumulate_grad(t, g.reshape(orig))

    return record_op("reshape", t.data.reshape(shape), (t,), bwd)


def transpose(t: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(t.ndim)):
        raise TensorError(f"transpose: {axes} is not a permutation of {t.ndim} axes")
    inverse = [0] * len(axes)
    for i, a in enumerate(axes):
        inverse[a] = i

    def bwd(g):
        accumulate_grad(t, np.transpose(g, inverse))

    return record_op("transpose", np.transpose(t.data, axes), (t,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift per channel."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise TensorError(f"layer_norm: scale/shift must have shape ({c},)")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    # the variance as np.var takes it: the mean of the squared deviations
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv

    def bwd(g):
        accumulate_grad(beta, g.reshape(-1, c).sum(axis=0))
        accumulate_grad(gamma, (g * xhat).reshape(-1, c).sum(axis=0))
        dxhat = g * gamma.data
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        accumulate_grad(x, dx)

    out = xhat * gamma.data
    out += beta.data
    return record_op("layer_norm", out, (x, gamma, beta), bwd)


def _merge_patches(x: Tensor, k: int) -> Tensor:
    """N x C x h x w -> (N * h/k * w/k) x (C*k*k) token matrix; rows run image
    by image in row-major patch order, column c*k*k + dy*k + dx."""
    n, c, h, w = x.shape
    x = reshape(x, (n, c, h // k, k, w // k, k))
    x = transpose(x, (0, 2, 4, 1, 3, 5))
    return reshape(x, (n * (h // k) * (w // k), c * k * k))


def _mixer_block(x: Tensor, params: dict, prefix: str) -> Tensor:
    normed = layer_norm(x, params[f"{prefix}.ln.g"], params[f"{prefix}.ln.b"])
    h = gelu(linear(normed, params[f"{prefix}.mlp.w1"], params[f"{prefix}.mlp.b1"]))
    h = linear(h, params[f"{prefix}.mlp.w2"], params[f"{prefix}.mlp.b2"])
    return T.add(x, h)


def encode_stage_chain(x: Tensor, cfg, params: dict, stage: int) -> Tensor:
    """``encoder.encode_stage`` on an N x C x h x w tensor as a chain of
    recorded ops: patch merge (reshape, transpose, reshape), the patch
    ``linear``, each mixer block (``layer_norm``, ``linear``, ``gelu``,
    ``linear``, ``add``) and the token -> map reshape and transpose."""
    n, _, h, w = x.shape
    k = STAGE_DOWNSAMPLE[stage]
    tokens = linear(_merge_patches(x, k), params[f"enc.s{stage}.patch.w"],
                    params[f"enc.s{stage}.patch.b"])
    for b in range(cfg.blocks_per_stage):
        tokens = _mixer_block(tokens, params, f"enc.s{stage}.b{b}")
    return transpose(reshape(tokens, (n, h // k, w // k, tokens.shape[1])), (0, 3, 1, 2))


def encode_batch_chain(images, cfg, params: dict) -> list[Tensor]:
    """``encoder.encode_batch`` through ``T.stack`` and ``encode_stage_chain``."""
    levels = [T.stack(images)]
    for s in range(PYRAMID_LEVELS):
        levels.append(encode_stage_chain(levels[-1], cfg, params, s))
    return levels[1:]


# ---------------------------------------------------------------------------
# reference for the fused ``mim.mim_forward``


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


def mim_chain(f_robust: Tensor, f_fragile: Tensor, params: dict, level: int) -> Tensor:
    """``mim.mim_forward`` as a chain of recorded ops (stack, pooling, MLP,
    sigmoids, ``cross_rectify``, 1x1 mixes, reshapes), each with its own
    backward."""
    if f_robust.ndim != 3:
        raise TensorError(f"mim_chain: need C x h x w maps, got {f_robust.shape}")
    pair = T.stack([f_robust, f_fragile])
    _, c, h, w = pair.shape
    p = f"mim.l{level}"
    z = concat([pool_global(pair, "avg"), pool_global(pair, "max")], axis=1)
    z = reshape(z, (1, 4 * c))  # [avg_a, max_a, avg_b, max_b]
    hidden = gelu(linear(z, params[f"{p}.ch.w1"], params[f"{p}.ch.b1"]))
    att = sigmoid(linear(hidden, params[f"{p}.ch.w2"], params[f"{p}.ch.b2"]))
    pair = cross_rectify(pair, reshape(att, (2, c, 1, 1)))
    att = sigmoid(channel_mix(reshape(pair, (2 * c, h, w)),
                              params[f"{p}.sp.w"], params[f"{p}.sp.b"]))
    pair = cross_rectify(pair, reshape(att, (2, 1, h, w)))
    return channel_mix(reshape(pair, (2 * c, h, w)),
                       params[f"{p}.fuse.w"], params[f"{p}.fuse.b"])


def cosine_parts(a: np.ndarray, b: np.ndarray):
    """``(cosine, (af, bf, na, nb))`` of two equal-size arrays: their cosine
    similarity and the flat arrays and norms it came from, or ``(0.0, None)``
    when either norm is below NORM_EPS. Every sum is a 1-d sum over a flat
    copy; ``masm._cosines`` must reproduce it bit for bit with row sums."""
    if a.size != b.size:
        raise TensorError(f"cosine: size mismatch {a.shape} vs {b.shape}")
    af, bf = a.reshape(-1), b.reshape(-1)
    na = np.sqrt((af * af).sum())
    nb = np.sqrt((bf * bf).sum())
    if na < masm.NORM_EPS or nb < masm.NORM_EPS:
        return 0.0, None
    return float((af * bf).sum() / (na * nb)), (af, bf, na, nb)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of two equal-size features, one recorded op; 0, with
    no gradient, when either is ~zero."""
    c, parts = cosine_parts(a.data, b.data)
    if parts is None:
        return Tensor(0.0)
    af, bf, na, nb = parts

    def bwd(g):
        s = g / (na * nb)
        accumulate_grad(a, (s * bf - (g * c / (na * na)) * af).reshape(a.shape))
        accumulate_grad(b, (s * af - (g * c / (nb * nb)) * bf).reshape(b.shape))

    return record_op("cosine", np.asarray(c), (a, b), bwd)


def map_similarity(c: Tensor) -> Tensor:
    """[-1,1] cosine -> [eps,1] so the divergence logs stay defined; one op."""
    x = (c.data + 1.0) * 0.5
    inside = (x >= masm.SIM_EPS) & (x <= 1.0)

    def bwd(g):
        accumulate_grad(c, (g * inside) * 0.5)

    return record_op("map_similarity", np.clip(x, masm.SIM_EPS, 1.0), (c,), bwd)


def similarity_divergence(pairs: list[tuple[Tensor, Tensor]], class_count: int) -> Tensor:
    """Mean over pairs of mapped similarities of K * [c1*log(c1/m) + c2*log(c2/m)],
    m the midpoint, as one recorded op; exact 0 for no pairs."""
    if not pairs:
        return Tensor(0.0)
    k = float(class_count)
    total = None
    logs = []
    for c1, c2 in pairs:
        a, b = c1.data, c2.data
        mid = (a + b) * 0.5
        la, lb = np.log(a / mid), np.log(b / mid)
        logs.append((la, lb))
        value = (a * la + b * lb) * k
        total = value if total is None else total + value
    n = float(len(pairs))

    def bwd(g):
        s = g * (k / n)
        for (c1, c2), (la, lb) in zip(pairs, logs):
            accumulate_grad(c1, s * la)
            accumulate_grad(c2, s * lb)

    return record_op("consistency", total / n, tuple(c for pair in pairs for c in pair),
                     bwd)


def consistency_chain(terms, class_count: int) -> Tensor:
    """One scene's ``masm.consistency_loss`` as the three recorded ops it
    fuses: ``cosine`` and ``map_similarity`` per remaining modality, then the
    divergence."""
    pairs = [tuple(map_similarity(cosine(f, f_mim)) for f in (f_1, f_2))
             for f_mim, f_1, f_2 in terms]
    return similarity_divergence(pairs, class_count)


def rank_modalities_reference(features, f_m) -> masm.RankingResult:
    """``masm.rank_modalities`` with one ``cosine_parts`` call per feature."""
    if len(features) < 2:
        raise TensorError("rank_modalities: need at least 2 modalities")
    scores = tuple(cosine_parts(f.data, f_m.data)[0] for f in features)
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return masm.RankingResult(scores=scores, robust_idx=order[0], fragile_idx=order[-1],
                              remaining=tuple(order[1:-1]))


# ---------------------------------------------------------------------------
# reference body of the fused ``mim.mim_forward``: the same three stages in
# plain numpy, written with more calls (``np.mean``, ``np.concatenate``,
# ``np.put_along_axis``, a reduction per bias gradient)


def _mim_level(params, level, *names):
    return [params[f"mim.l{level}.{n}"] for n in names]


def _cross_rectify_reference(pair, att, axes):
    def grad(g):
        swapped = g[::-1]
        return g + swapped * att, (swapped * pair).sum(axis=axes)

    return pair + (pair * att)[::-1], grad


def _check_logits_reference(logits, stage):
    if not np.isfinite(logits).all():
        raise NonFiniteError(f"mim: non-finite {stage} attention logits")


def rectify_channel_reference(pair, params, level):
    _, c, h, w = pair.shape
    w1, b1, w2, b2 = _mim_level(params, level, "ch.w1", "ch.b1", "ch.w2", "ch.b2")
    w1d, w2d = w1.data, w2.data
    flat = pair.reshape(2, c, h * w)
    idx = flat.argmax(axis=-1)[..., None]
    z = np.concatenate([pair.mean(axis=(-2, -1)), flat.max(axis=-1)], axis=1)
    z = z.reshape(1, 4 * c)
    pre = z @ w1d + b1.data
    hidden, th = T._gelu(pre)
    logits = hidden @ w2d + b2.data
    _check_logits_reference(logits, "channel")
    att = T._sigmoid(logits)
    att4 = att.reshape(2, c, 1, 1)
    out, rectify_grad = _cross_rectify_reference(pair, att4, (2, 3))

    def grad(g):
        g_pair, g_att = rectify_grad(g)
        g_logits = T._sigmoid_grad(g_att.reshape(1, 2 * c), att)
        accumulate_grad(b2, g_logits.sum(axis=0))
        accumulate_grad(w2, hidden.T @ g_logits)
        g_pre = T._gelu_grad(g_logits @ w2d.T, pre, th)
        accumulate_grad(b1, g_pre.sum(axis=0))
        accumulate_grad(w1, z.T @ g_pre)
        g_z = (g_pre @ w1d.T).reshape(2, 2 * c)
        g_max = np.zeros_like(flat)
        np.put_along_axis(g_max, idx, g_z[:, c:, None], axis=-1)
        g_pair += g_max.reshape(pair.shape)
        g_pair += (g_z[:, :c] / (h * w))[..., None, None]
        return g_pair

    return out, att4, grad


def rectify_spatial_reference(pair, params, level):
    _, c, h, w = pair.shape
    sw, sb = _mim_level(params, level, "sp.w", "sp.b")
    swd = sw.data
    logits, tokens = T._mix(pair.reshape(2 * c, h, w), swd, sb.data)
    _check_logits_reference(logits, "spatial")
    att = T._sigmoid(logits)
    out, rectify_grad = _cross_rectify_reference(pair, att.reshape(2, 1, h, w), 1)

    def grad(g):
        g_pair, g_att = rectify_grad(g)
        g_f, g_w, g_b = T._mix_grad(T._sigmoid_grad(g_att, att), tokens, swd)
        accumulate_grad(sb, g_b)
        accumulate_grad(sw, g_w)
        g_pair += g_f.reshape(pair.shape)
        return g_pair

    return out, grad


def fuse_reference(pair, params, level):
    _, c, h, w = pair.shape
    fw, fb = _mim_level(params, level, "fuse.w", "fuse.b")
    fwd = fw.data
    out, tokens = T._mix(pair.reshape(2 * c, h, w), fwd, fb.data)

    def grad(g):
        g_f, g_w, g_b = T._mix_grad(g, tokens, fwd)
        accumulate_grad(fb, g_b)
        accumulate_grad(fw, g_w)
        return g_f.reshape(pair.shape)

    return out, grad


def mim_forward_reference(f_robust: Tensor, f_fragile: Tensor, params: dict,
                          level: int) -> Tensor:
    """``mim.mim_forward`` with the reference stage bodies above."""
    if f_robust.ndim != 3 or f_fragile.shape != f_robust.shape:
        raise TensorError(f"mim_forward: need two equal C x h x w maps, got "
                          f"{f_robust.shape} and {f_fragile.shape}")
    pair = np.stack([f_robust.data, f_fragile.data])
    pair, _, channel_grad = rectify_channel_reference(pair, params, level)
    pair, spatial_grad = rectify_spatial_reference(pair, params, level)
    out, fuse_grad = fuse_reference(pair, params, level)

    def bwd(g):
        g_pair = channel_grad(spatial_grad(fuse_grad(g)))
        accumulate_grad(f_robust, g_pair[0])
        accumulate_grad(f_fragile, g_pair[1])

    names = ("ch.w1", "ch.b1", "ch.w2", "ch.b2", "sp.w", "sp.b", "fuse.w", "fuse.b")
    return record_op("mim", out, (f_robust, f_fragile, *_mim_level(params, level, *names)),
                     bwd)


# ---------------------------------------------------------------------------
# reference for the fused ``head.embed``


def embed_chain(levels, params: dict) -> Tensor:
    """``head.embed`` as SegFormer's unfolded chain of recorded ops, pyramid
    by pyramid: per-level ``channel_mix`` to D channels, resampling to the
    level-0 grid, concat and the 4D -> D fuse ``channel_mix``; the N results
    stacked."""
    embedded = []
    for pyramid in zip(*(T.unstack(level) for level in levels)):
        h1, w1 = pyramid[0].shape[1:]
        projected = [resample_bilinear(channel_mix(level, params[f"head.proj{i}.w"],
                                                   params[f"head.proj{i}.b"]), h1, w1)
                     for i, level in enumerate(pyramid)]
        embedded.append(channel_mix(concat(projected, axis=0),
                                    params["head.fuse.w"], params["head.fuse.b"]))
    return T.stack(embedded)


def decode_chain(embedded: Tensor, params: dict, out_size) -> Tensor:
    """``head.decode`` as the three recorded ops it fuses."""
    logits = channel_mix(gelu(embedded), params["head.cls.w"], params["head.cls.b"])
    return resample_bilinear(logits, out_size[0], out_size[1])


def cross_entropy_reference(logits: Tensor, labels) -> Tensor:
    """One scene's mean -log softmax(logits)[label] over pixels whose label is
    not 255: the per-scene op that ``head.cross_entropy`` batches."""
    labels = np.asarray(labels)
    k = logits.shape[0]
    flat_labels = labels.ravel()
    valid = flat_labels != IGNORE_LABEL
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


# ---------------------------------------------------------------------------
# references for the in-place numpy bodies: the expressions they replaced,
# which allocate a fresh array per operation


def gelu_reference(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = T._GELU_C * (x + 0.044715 * (x * x * x))
    th = np.tanh(u)
    return 0.5 * x * (1.0 + th), th


def gelu_grad_reference(g: np.ndarray, x: np.ndarray, th: np.ndarray) -> np.ndarray:
    du = T._GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du)


def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def layer_norm_reference(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                         eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gamma + beta


def linear_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def mix_reference(f: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    c, h, wd = f.shape
    tokens = f.reshape(c, h * wd).T
    return (tokens @ w + b).T.reshape(w.shape[1], h, wd)


def mean_reference(arrays: list[np.ndarray]) -> np.ndarray:
    total = arrays[0]
    for a in arrays[1:]:
        total = total + a
    return total / float(len(arrays))


def class_argmax_reference(scores: np.ndarray) -> np.ndarray:
    return np.argmax(scores, axis=0).astype(np.int64)


# ---------------------------------------------------------------------------
# reference for the arena AdamW update


def adam_update_reference(params: dict, state, lr: float) -> None:
    """``train.adam_update`` as a loop over the parameters, one fresh array per
    operation, rebinding each updated parameter's ``.data``."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        if p.grad is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * p.grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * p.grad * p.grad
        step_dir = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data = p.data - lr * (step_dir + WEIGHT_DECAY * p.data)


# ---------------------------------------------------------------------------
# reference for the ``.mmck`` writer


def save_checkpoint_reference(path, ckpt) -> None:
    """``train.save_checkpoint`` as plain bytes: the fixed header packed with
    ``struct``, the JSON header, each array's ``astype("<f8").tobytes()``,
    then the CRC-32 of all of it."""
    moments = sorted(ckpt.opt.m)
    arrays = [(n, p.data) for n, p in ckpt.params.items()]
    arrays += [(f"{kind}/{n}", getattr(ckpt.opt, kind)[n]) for n in moments for kind in "mv"]
    header = {
        "meta": {
            "config": asdict(ckpt.config),
            "num_classes": ckpt.num_classes,
            "modality_names": list(ckpt.modality_names),
            "epoch": ckpt.epoch,
            "adam_step": ckpt.opt.step,
            "rng_state": ckpt.rng_state,
            "history": ckpt.history,
            "moments": moments,
        },
        "arrays": [[n, "<f8", list(a.shape)] for n, a in arrays],
    }
    raw_header = json.dumps(header).encode("utf-8")
    blob = struct.pack("<4sII", CKPT_MAGIC, CKPT_VERSION, len(raw_header)) + raw_header
    blob += b"".join(a.astype("<f8").tobytes() for _, a in arrays)
    with open(path, "wb") as fh:
        fh.write(blob + struct.pack("<I", zlib.crc32(blob)))


def read_frame(blob: bytes) -> tuple[dict, int]:
    """A container file's decoded JSON header and the offset its arrays start at."""
    _, _, length = struct.unpack_from("<4sII", blob)
    return json.loads(blob[12:12 + length]), 12 + length


def reframe(path, edit_header=None, edit_arrays=None, edit_raw=None) -> None:
    """Rewrite the container file at ``path`` with a fresh CRC-32 trailer.

    ``edit_header`` edits its decoded JSON header in place, ``edit_arrays``
    the dict of its arrays (writable copies, by name), and ``edit_raw`` maps
    the encoded header to the bytes written in its place. The magic and the
    version are kept, and the arrays are written in the original table's
    order, whatever the edited header says.
    """
    blob = Path(path).read_bytes()
    header, offset = read_frame(blob)
    arrays = {}
    for name, dtype, shape in header["arrays"]:
        arrays[name] = np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape).copy()
        offset += arrays[name].nbytes
    for edit, target in ((edit_header, header), (edit_arrays, arrays)):
        if edit is not None:
            edit(target)
    raw = json.dumps(header).encode("utf-8")
    if edit_raw is not None:
        raw = edit_raw(raw)
    framed = blob[:8] + struct.pack("<I", len(raw)) + raw
    framed += b"".join(a.tobytes() for a in arrays.values())
    Path(path).write_bytes(framed + struct.pack("<I", zlib.crc32(framed)))
