"""Shared oracles for the test suites: finite differences, error metrics, and
the MIM pipeline as a chain of recorded tensor ops."""

from __future__ import annotations

import numpy as np

import modalseg.tensor as T
from modalseg.tensor import (Tensor, TensorError, accumulate_grad, backward,
                             no_grad, record_op)

FD_EPS = 1e-6
FD_TOL = 1e-4


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
    z = T.concat([T.pool_global(pair, "avg"), T.pool_global(pair, "max")], axis=1)
    z = T.reshape(z, (1, 4 * c))  # [avg_a, max_a, avg_b, max_b]
    hidden = T.gelu(T.linear(z, params[f"{p}.ch.w1"], params[f"{p}.ch.b1"]))
    att = T.sigmoid(T.linear(hidden, params[f"{p}.ch.w2"], params[f"{p}.ch.b2"]))
    pair = cross_rectify(pair, T.reshape(att, (2, c, 1, 1)))
    att = T.sigmoid(T.channel_mix(T.reshape(pair, (2 * c, h, w)),
                                  params[f"{p}.sp.w"], params[f"{p}.sp.b"]))
    pair = cross_rectify(pair, T.reshape(att, (2, 1, h, w)))
    return T.channel_mix(T.reshape(pair, (2 * c, h, w)),
                         params[f"{p}.fuse.w"], params[f"{p}.fuse.b"])
