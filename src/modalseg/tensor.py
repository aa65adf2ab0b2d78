"""Dense float64 tensor engine with tape-based reverse-mode differentiation.

The model's fused ops (``encoder.encode_stage``, ``masm``'s mean, fuse and
consistency, ``mim.mim_forward``, ``head``'s embed, decode and cross-entropy)
are recorded through ``record_op`` with hand-written backwards, on the numpy
bodies below (sigmoid, GELU, the 1x1 mix, bilinear resampling). This module
adds ``add``, ``mul``, ``stack``, ``unstack`` and ``deinterleave``. Ground
rules:

- double precision only, row-major storage, explicit shape checks on every op
- broadcasting is limited to tensor-vs-python-scalar; the few axis broadcasts
  the pipeline needs (bias add, attention weighting) live inside dedicated
  ops with hand-written backward rules
- every op checks its output for NaN/Inf and raises instead of propagating
- a numpy body writes in place only into arrays it allocated itself; it never
  writes ``Tensor.data`` or its input arrays, so an identity op may return
  its input's array as its output. Only the optimizer (``train.adam_update``)
  writes ``Tensor.data``, in place inside its parameter arena, after the
  backward pass that read it
- a backward saves only what it cannot rebuild in a few passes of the forward's
  own operations, and rebuilds the rest with them, bit for bit, at its one use
- gradients accumulate additively across fan-out; ``backward`` walks the tape
  in exact reverse recording order and releases each node as it passes it:
  the node's closure (with the arrays it saved) and its output's ``.grad``
  go before the next node runs, so afterwards the tape is empty and only
  leaves (parameters and caller-made ``requires_grad`` tensors) keep ``.grad``
- ``unstack`` and ``deinterleave`` record nothing: a gradient accumulated
  into one of their views goes straight into the view's slice of the
  parent's ``.grad``, and the parent's node runs after every consumer of its
  views. Views go one level deep: while recording, neither takes views of a
  view
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np


class TensorError(ValueError):
    """Shape or domain violation in a tensor op."""


class NonFiniteError(ArithmeticError):
    """An op produced (or was handed) NaN or Inf."""


# ---------------------------------------------------------------------------
# tape


class Tape:
    """Ordered record of differentiable ops for one forward pass.

    Recording order is a topological order by construction (an op can only
    consume tensors that already exist), so the backward pass simply pops
    nodes off the end.
    """

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, out: "Tensor", backward: Callable[[np.ndarray], None]) -> None:
        out._node_index = len(self._nodes)
        self._nodes.append((out, backward))

    def clear(self) -> None:
        """Drop every node, detaching its output."""
        for out, _ in self._nodes:
            out._node_index = None
            out.grad = None
        self._nodes.clear()


_TAPE_STACK: list[Tape | None] = [Tape()]


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1]


class no_grad:
    """Context manager: ops inside record nothing and yield detached outputs."""

    def __enter__(self) -> None:
        _TAPE_STACK.append(None)

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False


# ---------------------------------------------------------------------------
# tensor


class Tensor:
    """Dense float64 array with an optional same-shape gradient buffer.

    No op writes ``.data``; the optimizer updates a parameter's data in place
    inside its arena. ``.grad`` is ``None`` until a gradient reaches the
    tensor, and later gradients add into it in place; a parameter in the
    optimizer's arena keeps its arena view, which ``AdamState.zero_grad``
    zeroes.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node_index", "_base")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if arr.size == 0:
            raise TensorError("tensor dimensions must all be positive")
        if not np.isfinite(arr).all():
            raise NonFiniteError("non-finite values in tensor data")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node_index: int | None = None
        self._base: tuple[Tensor, int | slice] | None = None  # set on recorded views

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise TensorError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t._base is not None:  # a view: its slice of the parent's gradient
        parent, index = t._base
        if parent.grad is None:
            parent.grad = np.zeros_like(parent.data)
        target = parent.grad[index]
        target += g  # in place: ``grad[index] += g`` would copy the slice onto itself
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # copy: g may alias a shared buffer
    else:
        t.grad += g


def _unchecked(data: np.ndarray, requires_grad: bool) -> Tensor:
    """A Tensor around already validated float64 data, without the scan in
    ``Tensor.__init__``."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = requires_grad
    out._node_index = None
    out._base = None
    return out


def record_op(
    name: str,
    data: np.ndarray,
    inputs: Sequence[Tensor],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    """Wrap an op result, recording it on the active tape when grads are needed.

    ``backward`` receives the output gradient and must accumulate into the
    inputs via :func:`accumulate_grad`. This is the extension hook used by
    the fused ops outside this module.
    """
    data = np.asarray(data, dtype=np.float64)
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{name}: non-finite values in result")
    if data.size == 0:
        raise TensorError(f"{name}: empty result")
    tape = active_tape()
    needs_grad = tape is not None and any(t.requires_grad for t in inputs)
    out = _unchecked(data, needs_grad)
    if needs_grad:
        tape._record(out, backward)
    return out


# public alias for fused ops defined in other modules
accumulate_grad = _accumulate


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss, emptying the tape.

    Each node is popped off the end, its backward runs if a gradient reached
    its output (none reaches a node recorded after the loss), and the node's
    closure (with the arrays it saved) and its output's ``.grad`` are released
    before the next node runs. Afterwards only leaves keep ``.grad``. If a
    backward raises, the tape is still emptied and every recorded output
    detached.
    """
    tape = active_tape()
    if tape is None:
        raise TensorError("backward called with gradients disabled")
    if loss.size != 1:
        raise TensorError(f"loss must be scalar, got shape {loss.shape}")
    if loss._node_index is None:
        raise TensorError("detached loss: not recorded on the tape")
    nodes = tape._nodes
    try:
        loss.grad = np.ones_like(loss.data)
        while nodes:
            out, bwd = nodes.pop()
            out._node_index = None
            g, out.grad = out.grad, None
            if g is not None:
                bwd(g)
            del out, bwd, g  # the node's arrays go before the next node runs
    finally:
        tape.clear()


# ---------------------------------------------------------------------------
# elementwise ops (equal shapes, or a python-number second operand)


def _binary_operands(name: str, a: Tensor, b) -> tuple[np.ndarray, Tensor | None]:
    if isinstance(b, Tensor):
        if a.shape != b.shape:
            raise TensorError(f"{name}: shape mismatch {a.shape} vs {b.shape}")
        return b.data, b
    if isinstance(b, (int, float, np.integer, np.floating)):
        return np.float64(b), None
    raise TensorError(f"{name}: unsupported operand type {type(b).__name__}")


def add(a: Tensor, b) -> Tensor:
    bd, bt = _binary_operands("add", a, b)

    def bwd(g):
        _accumulate(a, g)
        if bt is not None:
            _accumulate(bt, g)

    return record_op("add", a.data + bd, (a, bt) if bt else (a,), bwd)


def mul(a: Tensor, b) -> Tensor:
    bd, bt = _binary_operands("mul", a, b)
    ad = a.data

    def bwd(g):
        _accumulate(a, g * bd)
        if bt is not None:
            _accumulate(bt, g * ad)

    return record_op("mul", ad * bd, (a, bt) if bt else (a,), bwd)


# ---------------------------------------------------------------------------
# structure


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """N equal-shape tensors to one tensor with a new leading axis of length N."""
    if not tensors:
        raise TensorError("stack: empty input list")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise TensorError(f"stack: shape mismatch {t.shape} vs {shape}")

    def bwd(g):
        for i, t in enumerate(tensors):
            _accumulate(t, g[i])

    return record_op("stack", np.stack([t.data for t in tensors]), tuple(tensors), bwd)


def _views(t: Tensor, parts: list[np.ndarray], indices) -> list[Tensor]:
    """Tensors around ``parts``, slices ``t.data[index]``, recording nothing;
    a gradient accumulated into one goes straight into ``t.grad[index]``."""
    needs_grad = t.requires_grad and active_tape() is not None
    if needs_grad and t._base is not None:
        raise TensorError("cannot take views of a view")
    views = [_unchecked(part, needs_grad) for part in parts]  # t's data was checked
    if needs_grad:
        for view, index in zip(views, indices):
            view._base = (t, index)
    return views


def unstack(t: Tensor) -> list[Tensor]:
    """Split the leading axis into views of ``t.data[i]`` that record nothing:
    a gradient accumulated into view ``i`` goes straight into ``t.grad[i]``.
    While recording, ``t`` may not itself be a view."""
    if t.ndim < 2:
        raise TensorError(f"unstack: need at least 2 axes, got shape {t.shape}")
    return _views(t, list(t.data), range(t.shape[0]))


def deinterleave(t: Tensor, m: int) -> list[Tensor]:
    """The m views ``t.data[j::m]`` of a leading axis that runs through groups
    of m (each scene's M modality maps, say), recording nothing: a gradient
    accumulated into view ``j`` goes straight into ``t.grad[j::m]``."""
    if t.ndim < 2 or m < 1 or t.shape[0] % m:
        raise TensorError(f"deinterleave: cannot split shape {t.shape} into {m} views")
    return _views(t, [t.data[j::m] for j in range(m)], [slice(j, None, m) for j in range(m)])


# ---------------------------------------------------------------------------
# pointwise nonlinearities


# The numpy bodies of the fused ops elsewhere, so each formula is written once.


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _sigmoid_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g * out * (1.0 - out)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximation GELU of ``x``, and the tanh its gradient reuses:
    ``0.5 * x * (1 + th)`` with ``th = tanh(C * (x + 0.044715 * x*x*x))``,
    each operation in that order, computed in place in the two returned
    arrays."""
    th = x * x  # x**3 would take numpy's generic pow
    th *= x
    th *= 0.044715
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    return _gelu_out(x, th), th


def _gelu_out(x: np.ndarray, th: np.ndarray) -> np.ndarray:
    """``_gelu``'s output, ``0.5 * x * (1 + th)``, from ``x`` and its ``th``."""
    out = x * 0.5
    out *= th + 1.0  # the gradient keeps th, so 1 + th takes a third buffer
    return out


def _gelu_grad(g: np.ndarray, x: np.ndarray, th: np.ndarray) -> np.ndarray:
    """``g * (0.5 * (1 + th) + 0.5 * x * (1 - th*th) * du)`` with
    ``du = C * (1 + 3 * 0.044715 * x*x)``, each operation in that order, over
    two fresh buffers."""
    out = x * 0.5
    t = th * th
    np.subtract(1.0, t, out=t)
    out *= t
    np.multiply(x, x, out=t)
    t *= 3 * 0.044715
    t += 1.0
    t *= _GELU_C  # du
    out *= t
    np.add(th, 1.0, out=t)
    t *= 0.5
    out += t
    out *= g
    return out


# ---------------------------------------------------------------------------
# 1x1 mix and bilinear resampling of C x h x w maps


def _mix(f: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1x1 projection: a C x h x w map times a C x D weight, plus a length-D
    bias, gives the D x h x w result; also returns the pixel-row token matrix
    its gradient reuses."""
    c, h, wd = f.shape
    tokens = f.reshape(c, h * wd).T  # one row per pixel
    out = tokens @ w
    out += b
    return out.T.reshape(w.shape[1], h, wd), tokens


def _mix_grad(g: np.ndarray, tokens: np.ndarray,
              w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``_mix`` with respect to its map, weight and bias."""
    d, h, wd = g.shape
    g_tokens = np.array(g.reshape(d, h * wd)).T  # g's layout sets the sum order
    g_f = (g_tokens @ w.T).T.reshape(w.shape[0], h, wd)
    return g_f, tokens.T @ g_tokens, g_tokens.sum(axis=0)


@functools.lru_cache(maxsize=None)
def _interp_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """Dense row-stochastic matrix applying 1-d bilinear resampling
    (half-pixel source mapping, edge clamping). Cached and read-only."""
    s = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    i0f = np.floor(s)
    t = s - i0f
    i0 = np.clip(i0f, 0, n_src - 1).astype(np.intp)
    i1 = np.clip(i0f + 1, 0, n_src - 1).astype(np.intp)
    mat = np.zeros((n_dst, n_src))
    rows = np.arange(n_dst)
    np.add.at(mat, (rows, i0), 1.0 - t)
    np.add.at(mat, (rows, i1), t)
    mat.setflags(write=False)
    return mat


# ---------------------------------------------------------------------------
# parameter construction


def uniform_param(rng: np.random.Generator, shape: Sequence[int], fan_in: int) -> Tensor:
    """Trainable tensor initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=tuple(shape)), requires_grad=True)


class ParamSpec(NamedTuple):
    """Shape and initialization of one trainable tensor."""
    shape: tuple[int, ...]
    fan_in: int = 0  # > 0: uniform in +-1/sqrt(fan_in)
    fill: float = 0.0  # every entry, when fan_in is 0


ParamSpecs = Iterable[tuple[str, ParamSpec]]  # (name, spec) pairs in draw order


def init_params(specs: ParamSpecs, rng: np.random.Generator) -> dict[str, Tensor]:
    return {name: uniform_param(rng, spec.shape, spec.fan_in) if spec.fan_in
            else Tensor(np.full(spec.shape, spec.fill), requires_grad=True)
            for name, spec in specs}
