"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the models in this package is a ``Tensor``: a
row-major float64 array plus the tape links needed for backpropagation. The
tape is implicit - each operation returns a new Tensor holding references to
its inputs and a closure that routes the incoming gradient to them. Calling
``backward`` on a scalar root walks the tape once in reverse topological
order.

Broadcasting is deliberately restricted: binary elementwise operations
require exact shape matches, with the single exception of adding a 1 x n
bias row to every row of an m x n matrix. Anything else raises
``ShapeError`` so that indexing mistakes in the patch plumbing surface
immediately instead of silently broadcasting.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LN_EPS = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class Tensor:
    """A node of the computation tape.

    ``data`` is always a float64 ndarray. ``grad`` is populated lazily during
    ``backward``; for ``Parameter`` leaves it persists between backward calls
    so gradients accumulate until ``zero_grad``.
    """

    __slots__ = ("data", "grad", "_parents", "_backward_fn")

    def __init__(self, data, parents=(), backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self._parents = parents
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])


class Parameter(Tensor):
    """A learnable leaf tensor with a stable name and a persistent gradient."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad.fill(0.0)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _accum(node: Tensor, g: np.ndarray):
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


# ---------------------------------------------------------------------------
# core operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    out._backward_fn = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1 x n bias row added to an m x n matrix."""
    bias_row = (
        a.data.ndim == 2
        and b.data.ndim == 2
        and b.data.shape[0] == 1
        and a.data.shape[1] == b.data.shape[1]
        and a.data.shape[0] != 1
    )
    if a.data.shape != b.data.shape and not bias_row:
        raise ShapeError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data, parents=(a, b))

    if bias_row:

        def backward(g):
            _accum(a, g)
            _accum(b, g.sum(axis=0, keepdims=True))

    else:

        def backward(g):
            _accum(a, g)
            _accum(b, g)

    out._backward_fn = backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shape mismatch: {a.data.shape} - {b.data.shape}")
    out = Tensor(a.data - b.data, parents=(a, b))

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    out._backward_fn = backward
    return out


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"hadamard shape mismatch: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    out._backward_fn = backward
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python float constant (not a tape node)."""
    factor = float(factor)
    out = Tensor(a.data * factor, parents=(a,))

    def backward(g):
        _accum(a, g * factor)

    out._backward_fn = backward
    return out


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y, parents=(a,))

    def backward(g):
        _accum(a, g * y * (1.0 - y))

    out._backward_fn = backward
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, parents=(a,))

    def backward(g):
        _accum(a, g * (1.0 - y * y))

    out._backward_fn = backward
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x), with the erf formulation."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = Tensor(x * cdf, parents=(a,))

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        _accum(a, g * (cdf + x * pdf))

    out._backward_fn = backward
    return out


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data, parents=(a,))

    def backward(g):
        _accum(a, 2.0 * g * a.data)

    out._backward_fn = backward
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.array(a.data.sum()), parents=(a,))

    def backward(g):
        _accum(a, np.full_like(a.data, float(g)))

    out._backward_fn = backward
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(np.array(a.data.mean()), parents=(a,))

    def backward(g):
        _accum(a, np.full_like(a.data, float(g) / n))

    out._backward_fn = backward
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")
    out = Tensor(a.data.T, parents=(a,))

    def backward(g):
        _accum(a, g.T)

    out._backward_fn = backward
    return out


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(a.data.reshape(shape), parents=(a,))

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    out._backward_fn = backward
    return out


def slice_rows(a: Tensor, i0: int, i1: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= i0 < i1 <= a.data.shape[0]):
        raise ShapeError(f"slice_rows [{i0}:{i1}] invalid for shape {a.data.shape}")
    out = Tensor(a.data[i0:i1], parents=(a,))

    def backward(g):
        full = np.zeros_like(a.data)
        full[i0:i1] = g
        _accum(a, full)

    out._backward_fn = backward
    return out


def slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= j0 < j1 <= a.data.shape[1]):
        raise ShapeError(f"slice_cols [{j0}:{j1}] invalid for shape {a.data.shape}")
    out = Tensor(a.data[:, j0:j1], parents=(a,))

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, j0:j1] = g
        _accum(a, full)

    out._backward_fn = backward
    return out


def concat_rows(parts) -> Tensor:
    parts = tuple(parts)
    cols = parts[0].data.shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != cols:
            raise ShapeError(f"concat_rows column mismatch: {[q.data.shape for q in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0), parents=parts)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[lo:hi])

    out._backward_fn = backward
    return out


def concat_cols(parts) -> Tensor:
    parts = tuple(parts)
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise ShapeError(f"concat_cols row mismatch: {[q.data.shape for q in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), parents=parts)
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[:, lo:hi])

    out._backward_fn = backward
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by subtracting the per-row maximum."""
    x = a.data
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {x.shape}")
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y, parents=(a,))

    def backward(g):
        # dx_ij = y_ij * (g_ij - sum_k g_ik y_ik)
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, y * (g - dot))

    out._backward_fn = backward
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LN_EPS) -> Tensor:
    """Per-row normalization: gain * (x - mean) / sqrt(var + eps) + bias."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {x.data.shape}")
    n = x.data.shape[1]
    if n < 2:
        raise ShapeError("layer_norm needs at least 2 columns")
    gvec = gain.data.reshape(-1)
    bvec = bias.data.reshape(-1)
    if gvec.shape[0] != n or bvec.shape[0] != n:
        raise ShapeError(
            f"layer_norm gain/bias length {gvec.shape[0]}/{bvec.shape[0]} != {n} columns"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gvec + bvec, parents=(x, gain, bias))

    def backward(g):
        gg = g * gvec  # dL/dxhat
        m1 = gg.mean(axis=1, keepdims=True)
        m2 = (gg * xhat).mean(axis=1, keepdims=True)
        _accum(x, (gg - m1 - xhat * m2) * inv)
        _accum(gain, (g * xhat).sum(axis=0).reshape(gain.data.shape))
        _accum(bias, g.sum(axis=0).reshape(bias.data.shape))

    out._backward_fn = backward
    return out


def dropout(a: Tensor, rate: float, train: bool, rng=None) -> Tensor:
    """Inverted dropout; the identity in evaluation mode or at rate 0."""
    if not train or rate == 0.0:
        out = Tensor(a.data, parents=(a,))

        def backward(g):
            _accum(a, g)

        out._backward_fn = backward
        return out
    if rng is None:
        raise ValueError("dropout in train mode requires an rng")
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.data * keep, parents=(a,))

    def backward(g):
        _accum(a, g * keep)

    out._backward_fn = backward
    return out


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              w_ih: Tensor, w_hh: Tensor, bias: Tensor) -> Tensor:
    """One LSTM step as a single fused tape node.

    Gate order along the fused width-4H axis is (input, forget, cell, output).
    Returns the stacked [h_t; c_t] as a 2 x H tensor; callers slice the rows.
    The fused formulation keeps the tape short - the recurrence dominates the
    node count of a full forward pass otherwise.
    """
    hidden = h_prev.data.shape[1]
    if w_ih.data.shape != (x.data.shape[1], 4 * hidden):
        raise ShapeError(f"lstm_cell w_ih shape {w_ih.data.shape} != ({x.data.shape[1]}, {4 * hidden})")
    if w_hh.data.shape != (hidden, 4 * hidden):
        raise ShapeError(f"lstm_cell w_hh shape {w_hh.data.shape} != ({hidden}, {4 * hidden})")
    if bias.data.shape != (1, 4 * hidden) or c_prev.data.shape != (1, hidden):
        raise ShapeError("lstm_cell bias/cell state shape mismatch")

    pre = x.data @ w_ih.data + h_prev.data @ w_hh.data + bias.data
    i = 1.0 / (1.0 + np.exp(-pre[:, :hidden]))
    f = 1.0 / (1.0 + np.exp(-pre[:, hidden:2 * hidden]))
    g_ = np.tanh(pre[:, 2 * hidden:3 * hidden])
    o = 1.0 / (1.0 + np.exp(-pre[:, 3 * hidden:]))
    c = f * c_prev.data + i * g_
    tc = np.tanh(c)
    h = o * tc
    out = Tensor(np.concatenate([h, c], axis=0), parents=(x, h_prev, c_prev, w_ih, w_hh, bias))

    def backward(grad):
        gh = grad[0:1]
        gc = grad[1:2] + gh * o * (1.0 - tc * tc)
        dpre = np.concatenate(
            [
                gc * g_ * i * (1.0 - i),
                gc * c_prev.data * f * (1.0 - f),
                gc * i * (1.0 - g_ * g_),
                gh * tc * o * (1.0 - o),
            ],
            axis=1,
        )
        _accum(x, dpre @ w_ih.data.T)
        _accum(h_prev, dpre @ w_hh.data.T)
        _accum(c_prev, gc * f)
        _accum(w_ih, x.data.T @ dpre)
        _accum(w_hh, h_prev.data.T @ dpre)
        _accum(bias, dpre)

    out._backward_fn = backward
    return out


def cross_entropy_logits(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over rows, computed from raw logits.

    Fused log-softmax keeps the op stable for large logit gaps.
    """
    z = logits.data
    if z.shape != onehot.shape:
        raise ShapeError(f"cross_entropy shape mismatch: {z.shape} vs {onehot.shape}")
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    nll = -(onehot * (z - lse)).sum(axis=1)
    n = z.shape[0]
    out = Tensor(np.array(nll.mean()), parents=(logits,))

    def backward(g):
        p = np.exp(z - lse)
        _accum(logits, float(g) / n * (p - onehot))

    out._backward_fn = backward
    return out


# ---------------------------------------------------------------------------
# backward sweep


def _topo_order(root: Tensor):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root: Tensor):
    """Accumulate d(root)/d(node) into every node reachable from root.

    ``root`` must be a scalar (size-1) tensor. Parameter gradients accumulate
    on top of whatever they already hold; call ``zero_grad`` first for a
    fresh gradient. Intermediate tape nodes get fresh gradient buffers, so
    running backward twice over the same tape (with parameters re-zeroed)
    produces identical results.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.data.shape}")
    order = _topo_order(root)
    for node in order:
        if not isinstance(node, Parameter):
            node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def zero_grads(params) -> None:
    for p in _param_list(params):
        p.zero_grad()


def _param_list(params):
    if isinstance(params, dict):
        return list(params.values())
    return list(params)


# ---------------------------------------------------------------------------
# finite-difference verification


def grad_check(f, params, eps: float = 1e-5, entries_per_param: int | None = None,
               order: int = 2) -> float:
    """Max relative error between tape gradients and central finite differences.

    ``f`` maps the (shared, mutable) parameters to a scalar Tensor and must be
    deterministic across calls. With ``entries_per_param`` set, only the
    entries with the largest analytic gradient magnitude are probed in each
    tensor. Those are the entries the finite-difference oracle can actually
    certify: probe noise is roughly (evaluation roundoff)/(2 eps), so entries
    whose gradient sits near that floor measure the oracle, not the tape.
    Primitives are cheap enough to check on every entry; deep compositions
    are checked on the top entries of every tensor.

    ``order`` selects the symmetric stencil: 2 for the classic two-point
    central difference (truncation O(eps^2)), 4 for the five-point stencil
    with steps eps and 2 eps (truncation O(eps^4)). Deep compositions profit
    from order 4: their third derivatives are large enough that the two-point
    stencil's own truncation can exceed the tolerance being certified.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    plist = _param_list(params)
    zero_grads(plist)
    out = f()
    if not np.isfinite(out.data).all():
        raise FloatingPointError("grad_check objective is not finite")
    backward(out)
    analytic = [p.grad.copy() for p in plist]

    def probe(flat, i):
        orig = flat[i]
        flat[i] = orig + eps
        lp = f().item()
        flat[i] = orig - eps
        lm = f().item()
        if order == 2:
            flat[i] = orig
            return (lp - lm) / (2.0 * eps)
        flat[i] = orig + 2.0 * eps
        lp2 = f().item()
        flat[i] = orig - 2.0 * eps
        lm2 = f().item()
        flat[i] = orig
        return (8.0 * (lp - lm) - (lp2 - lm2)) / (12.0 * eps)

    worst = 0.0
    for p, g_ad in zip(plist, analytic):
        flat = p.data.reshape(-1)
        ga = g_ad.reshape(-1)
        n = flat.shape[0]
        if entries_per_param is None or entries_per_param >= n:
            idx = range(n)
        else:
            idx = np.argsort(-np.abs(ga))[:entries_per_param].tolist()
        for i in idx:
            g_fd = probe(flat, i)
            err = abs(ga[i] - g_fd) / max(1e-12, abs(ga[i]) + abs(g_fd))
            if err > worst:
                worst = err
    return worst
