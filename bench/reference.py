"""Plain-numpy re-derivations of what modalseg computes.

Nothing here imports modalseg: every function restates the method from its
description (AdamW constants, the warmup + polynomial schedule, cosine
ranking, the encoder/head forward pass, confusion-count mIoU) so the
benchmark can check the program's outputs against an independent answer.
Parameters are plain ``{name: ndarray}`` dicts using the program's names.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# AdamW with decoupled weight decay, as the method fixes it.
ADAM = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "decay": 0.01}

STAGE_DOWNSAMPLE = (4, 2, 2, 2)
LN_EPS = 1e-5
IGNORE = 255


def adamw(p, g, m, v, t, lr):
    """One AdamW update at step ``t`` (1-based) from zero-or-previous moments.

    Returns (new_param, new_m, new_v).
    """
    b1, b2 = ADAM["beta1"], ADAM["beta2"]
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    p = p - lr * (m_hat / (np.sqrt(v_hat) + ADAM["eps"]) + ADAM["decay"] * p)
    return p, m, v


def lr_schedule(step, total, base, warmup_frac=0.1, power=0.9):
    """Linear warmup from 10% of base over the first tenth, then poly decay."""
    warmup = round(warmup_frac * total)
    if step < warmup:
        return base * (0.1 + 0.9 * step / warmup)
    if step >= total:
        return 0.0
    return base * (1.0 - (step - warmup) / (total - warmup)) ** power


def cosine_scores(features):
    """Cosine of each feature against the elementwise mean of all of them."""
    flat = [np.asarray(f, dtype=np.float64).ravel() for f in features]
    mean = sum(flat) / len(flat)
    nm = math.sqrt(float(mean @ mean))
    scores = []
    for f in flat:
        nf = math.sqrt(float(f @ f))
        scores.append(0.0 if nf < 1e-12 or nm < 1e-12 else float(f @ mean) / (nf * nm))
    return np.array(scores)


# ---------------------------------------------------------------------------
# forward pass


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _patch_tokens(x, k):
    """C x h x w -> (h/k*w/k) x (C*k*k); column index c*k*k + dy*k + dx."""
    c, h, w = x.shape
    cols = np.empty(((h // k) * (w // k), c * k * k))
    for ci in range(c):
        for dy in range(k):
            for dx in range(k):
                cols[:, ci * k * k + dy * k + dx] = x[ci, dy::k, dx::k].ravel()
    return cols


def encode(image, params, stage_channels, blocks_per_stage=1):
    """One C x H x W image to its 4-level pyramid of C_s x h_s x w_s maps."""
    x = np.asarray(image, dtype=np.float64)
    pyramid = []
    for s, (k, c_out) in enumerate(zip(STAGE_DOWNSAMPLE, stage_channels)):
        h, w = x.shape[1] // k, x.shape[2] // k
        tok = _patch_tokens(x, k) @ params[f"enc.s{s}.patch.w"] + params[f"enc.s{s}.patch.b"]
        for b in range(blocks_per_stage):
            p = f"enc.s{s}.b{b}"
            hid = _gelu(_layer_norm(tok, params[f"{p}.ln.g"], params[f"{p}.ln.b"])
                        @ params[f"{p}.mlp.w1"] + params[f"{p}.mlp.b1"])
            tok = tok + hid @ params[f"{p}.mlp.w2"] + params[f"{p}.mlp.b2"]
        x = tok.T.reshape(c_out, h, w)
        pyramid.append(x)
    return pyramid


def _resize_axis(x, axis, n_dst):
    """Bilinear along one axis: half-pixel centres, indices clamped at edges."""
    n_src = x.shape[axis]
    pos = (np.arange(n_dst) + 0.5) * n_src / n_dst - 0.5
    lo = np.floor(pos)
    frac = pos - lo
    i0 = np.clip(lo, 0, n_src - 1).astype(int)
    i1 = np.clip(lo + 1, 0, n_src - 1).astype(int)
    shape = [1] * x.ndim
    shape[axis] = n_dst
    frac = frac.reshape(shape)
    return np.take(x, i0, axis=axis) * (1.0 - frac) + np.take(x, i1, axis=axis) * frac


def resize(x, h, w):
    return _resize_axis(_resize_axis(x, 1, h), 2, w)


def _project(x, w, b):
    c, h, wd = x.shape
    return (x.reshape(c, h * wd).T @ w + b).T.reshape(w.shape[1], h, wd)


def decode(fused, params, out_size):
    """Per-level projection, resize to level-1 grid, fuse, classify, resize."""
    h1, w1 = fused[0].shape[1:]
    stack = np.concatenate([
        resize(_project(f, params[f"head.proj{i}.w"], params[f"head.proj{i}.b"]), h1, w1)
        for i, f in enumerate(fused)], axis=0)
    mixed = _gelu(_project(stack, params["head.fuse.w"], params["head.fuse.b"]))
    logits = _project(mixed, params["head.cls.w"], params["head.cls.b"])
    return resize(logits, *out_size)


def subset_logits(pyramids, params, out_size):
    """Mean-fuse the given modality pyramids per scale, then decode."""
    fused = [sum(p[i] for p in pyramids) / len(pyramids) for i in range(len(pyramids[0]))]
    return decode(fused, params, out_size)


# ---------------------------------------------------------------------------
# evaluation protocol


def subsets(m):
    """Every non-empty subset of range(m), by size then lexicographically."""
    return [s for size in range(1, m + 1) for s in itertools.combinations(range(m), size)]


def confusion(gt, pred, k):
    cm = np.zeros((k, k), dtype=np.int64)
    keep = gt != IGNORE
    np.add.at(cm, (gt[keep].astype(np.int64), pred[keep].astype(np.int64)), 1)
    return cm


def miou(cm):
    """Mean IoU in percent over classes present in ground truth or prediction."""
    tp = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    present = union > 0
    return float((tp[present] / union[present]).mean() * 100.0)
