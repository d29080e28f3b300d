"""Dense float64 tensors with reverse-mode automatic differentiation.

A value that needs a gradient is a ``Tensor``: a row-major float64 array.
A constant (an input matrix, a target, a fixed table) is a plain ndarray: the
ops that take one (``matmul``'s left operand, ``add``'s second operand and
``concat_rows``' parts) never form its gradient, and it is never on a tape.
Inside a ``tape()`` context each operation's result also keeps a closure that
routes its incoming gradient to its Tensor inputs, and the tape lists every
Tensor in creation order; ``backward`` on a scalar root runs the closures once
in reverse creation order, which is a topological order. Outside a tape
nothing is recorded, so inference keeps no graph.

Broadcasting is deliberately restricted: binary elementwise operations
require exact shape matches, with the single exception of adding a 1 x n
bias row to every row of an m x n matrix. Anything else raises
``ShapeError`` so that indexing mistakes in the patch plumbing surface
immediately instead of silently broadcasting.
"""

from __future__ import annotations

import math
import mmap
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LN_EPS = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


# The open tape's list of Tensors, or None when nothing is recorded.
_tape = None


@contextmanager
def _recording(nodes):
    global _tape
    outer, _tape = _tape, nodes
    try:
        yield nodes
    finally:
        _tape = outer


def tape():
    """Record every Tensor made inside into a fresh list, which it yields;
    any outer tape is set aside until the context exits."""
    return _recording([])


class Tensor:
    """A value; inside a tape, also a node of it.

    ``data`` is always a float64 ndarray. ``grad`` is populated lazily during
    ``backward``; for ``Parameter`` leaves it persists between backward calls
    so gradients accumulate until ``zero_grads``.
    """

    __slots__ = ("data", "grad", "_backward_fn")

    def __init__(self, data, backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad = None
        self._backward_fn = None if _tape is None else backward_fn
        if _tape is not None:
            _tape.append(self)

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

    def __init__(self, data, name: str, grad=None):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data) if grad is None else grad

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def flat_zeros(n, populate=False):
    """n float64 zeros in their own private anonymous mapping, its pages faulted
    in at once if `populate` (on Linux), else left untouched until written.
    Freeing it leaves glibc's mmap threshold alone: a freed malloc chunk of
    model size would raise it, and the heap would then fragment."""
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    flags |= getattr(mmap, "MAP_POPULATE", 0) if populate else 0
    return np.frombuffer(mmap.mmap(-1, 8 * n, flags), dtype=np.float64)


class Parameters(dict):
    """{name: Parameter} from {name: array} by sorted name; values and gradients
    are views into flat ``data`` and ``grad`` at the offsets ``layout`` lists
    (a checkpoint manifest's entries; its payload is ``data``)."""

    def __init__(self, arrays):
        names = sorted(arrays)
        shapes = [np.shape(arrays[k]) for k in names]
        ends = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
        self.data, self.grad = flat_zeros(ends[-1], True), flat_zeros(ends[-1])
        self.layout = [{"name": name, "shape": list(shape), "offset": lo}
                       for name, shape, lo in zip(names, shapes, ends)]
        super().__init__()
        for name, shape, lo, hi in zip(names, shapes, ends, ends[1:]):
            self.data[lo:hi] = np.ravel(arrays[name])
            self[name] = Parameter(self.data[lo:hi].reshape(shape), name,
                                   self.grad[lo:hi].reshape(shape))


def _accum(node: Tensor, g: np.ndarray):
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


# ---------------------------------------------------------------------------
# core operations


def _value(x):
    return x.data if isinstance(x, Tensor) else x


def matmul(a, b: Tensor) -> Tensor:
    """a @ b; `a` may be a constant ndarray."""
    x = _value(a)
    if x.ndim != 2 or b.data.ndim != 2 or x.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {x.shape} x {b.data.shape}")

    def backward(g):
        if isinstance(a, Tensor):
            _accum(a, g @ b.data.T)
        _accum(b, x.T @ g if x.shape[0] != 1 else x.T * g)

    return Tensor(x @ b.data, backward)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; also accepts a 1 x n bias row added to an m x n matrix.
    `b` may be a constant ndarray."""
    y = _value(b)
    bias_row = (
        a.data.ndim == 2
        and y.ndim == 2
        and y.shape[0] == 1
        and a.data.shape[1] == y.shape[1]
        and a.data.shape[0] != 1
    )
    if a.data.shape != y.shape and not bias_row:
        raise ShapeError(f"add shape mismatch: {a.data.shape} + {y.shape}")

    def backward(g):
        _accum(a, g)
        if isinstance(b, Tensor):
            _accum(b, g.sum(axis=0, keepdims=True) if bias_row else g)

    return Tensor(a.data + y, backward)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x), with the erf formulation; the backward flushes
    subnormal derivatives (x near -38) to 0, as they slow every later matmul."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        d = cdf + x * pdf
        d[np.abs(d) < np.finfo(np.float64).tiny] = 0.0
        _accum(a, g * d)

    return Tensor(x * cdf, backward)


def mse(a: Tensor, target) -> Tensor:
    """Mean over all entries of (a - target)^2; `target` is a constant ndarray
    of a's shape, or 0.0 for the mean of squares."""
    if np.shape(target) not in ((), a.data.shape):
        raise ShapeError(f"mse shape mismatch: {a.data.shape} vs {np.shape(target)}")
    d = a.data - target

    def backward(g):
        _accum(a, 2.0 * (float(g) / d.size) * d)

    return Tensor(np.array((d * d).mean()), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")

    def backward(g):
        _accum(a, g.T)

    return Tensor(a.data.T, backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), backward)


def slice_rows(a: Tensor, i0: int, i1: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= i0 < i1 <= a.data.shape[0]):
        raise ShapeError(f"slice_rows [{i0}:{i1}] invalid for shape {a.data.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[i0:i1] = g
        _accum(a, full)

    return Tensor(a.data[i0:i1], backward)


def concat_rows(parts) -> Tensor:
    """The rows of each part in turn; a part may be a constant ndarray."""
    arrays = [_value(p) for p in parts]
    if any(x.ndim != 2 or x.shape[1] != arrays[0].shape[1] for x in arrays):
        raise ShapeError(f"concat_rows column mismatch: {[x.shape for x in arrays]}")
    offsets = np.cumsum([0] + [x.shape[0] for x in arrays])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(p, Tensor):
                _accum(p, g[lo:hi])

    return Tensor(np.concatenate(arrays, axis=0), backward)


def softmax(x):
    """Softmax along the last axis, stabilized by subtracting the maximum."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention(qkv: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention over the rows, as one tape node.

    Head h reads q, k and v, in that order, from columns [3 dh h, 3 dh (h + 1))
    of the n x (3 heads dh) input; the heads are the batch axis of np.matmul
    on (heads, n, dh) stacks. Returns the n x (heads dh) concatenation of the
    head outputs. The forward keeps the operand layouts of per-head 2-D
    matmuls over a contiguous k^T and softmax's ufuncs, so its bits match.
    """
    x = qkv.data
    if x.ndim != 2 or heads < 1 or x.shape[1] % (3 * heads):
        raise ShapeError(f"attention with {heads} heads needs an n x (3 heads dh) "
                         f"matrix, got shape {x.shape}")
    n, dh = x.shape[0], x.shape[1] // (3 * heads)
    factor = 1.0 / math.sqrt(dh)
    q, k, v = x.reshape(n, heads, 3, dh).transpose(2, 1, 0, 3)
    kt = np.ascontiguousarray(k.mT)
    y = q @ kt
    y *= factor
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = y @ v

    def backward(grad):
        # dl = y (g v^T - s) with s_i = sum_j (g v^T)_ij y_ij = sum_k g_ik out_ik.
        g = grad.reshape(n, heads, dh).transpose(1, 0, 2)
        dl = g @ v.mT
        dl -= (g * out).sum(axis=-1, keepdims=True)
        dl *= y
        dqkv = np.empty((n, heads, 3, dh))
        dq, dk, dv = dqkv.transpose(2, 1, 0, 3)
        np.multiply(dl @ k, factor, out=dq)
        np.multiply(dl.mT @ q, factor, out=dk)
        dv[...] = y.mT @ g
        _accum(qkv, dqkv.reshape(n, 3 * heads * dh))

    return Tensor(out.transpose(1, 0, 2).reshape(n, heads * dh), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization: gain * (x - mean) / sqrt(var + LN_EPS) + bias."""
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
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x.data - mu) * inv

    def backward(g):
        gg = g * gvec  # dL/dxhat
        m1 = gg.mean(axis=1, keepdims=True)
        m2 = (gg * xhat).mean(axis=1, keepdims=True)
        _accum(x, (gg - m1 - xhat * m2) * inv)
        _accum(gain, (g * xhat).sum(axis=0).reshape(gain.data.shape))
        _accum(bias, g.sum(axis=0).reshape(bias.data.shape))

    return Tensor(xhat * gvec + bvec, backward)


def dropout(a: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout, its mask drawn from rng; the identity without one or at rate 0."""
    if rng is None or rate == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)

    def backward(g):
        _accum(a, g * keep)

    return Tensor(a.data * keep, backward)


def lstm(xs: Tensor, *weights: Tensor) -> Tensor:
    """Stacked LSTM layers over the rows of xs, from a zero state, as one tape node.

    `weights` holds (w_ih, w_hh, bias) for each layer, bottom layer first; every
    layer has one hidden width H, and each upper layer reads the hidden states
    of the layer below. Gate order along the fused width-4H axis is (input,
    forget, cell, output). Returns the top layer's (n + 1) x H rows: its n
    hidden states, then its final cell state.

    The layers run as a wavefront: at step s, layer k processes row s - k, so
    every layer's inputs come from step s - 1 and one stacked matmul per
    product serves them all. The bottom layer's input products are the stacked
    one-row products xs[:, None, :] @ w_ih, not the folded GEMM xs @ w_ih,
    whose sums round differently. The backward runs the recurrence in reverse
    time, top layer first, on the forward's arrays in place, then forms each
    layer's weight, bias and input gradients as GEMMs over every step's dpre row.
    """
    if xs.data.ndim != 2 or xs.data.shape[0] < 1:
        raise ShapeError(f"lstm expects a nonempty matrix, got shape {xs.data.shape}")
    if not weights or len(weights) % 3:
        raise ShapeError(f"lstm takes (w_ih, w_hh, bias) per layer, got {len(weights)} arrays")
    (n, width), layers = xs.data.shape, len(weights) // 3
    hidden = weights[1].data.shape[0]
    for k in range(layers):
        shapes = tuple(w.data.shape for w in weights[3 * k:3 * k + 3])
        if shapes != ((width if k == 0 else hidden, 4 * hidden),
                      (hidden, 4 * hidden), (1, 4 * hidden)):
            raise ShapeError(f"lstm layer {k} w_ih/w_hh/bias shapes {shapes} do not "
                             f"fit width {width} and hidden width {hidden}")
    w_hh, bias = (np.stack([w.data for w in weights[j::3]]) for j in (1, 2))
    w_up = np.array([w.data for w in weights[3::3]]).reshape(layers - 1, hidden, 4 * hidden)
    steps = n + layers - 1
    # Indexed by step, then layer. Every layer runs at every step; a layer's
    # steps before its first row or after its last are never read.
    ins = np.zeros((steps, layers, 1, 4 * hidden))  # input products
    np.matmul(xs.data[:, None, :], weights[0].data, out=ins[:n, 0])
    hs = np.zeros((steps + 1, layers, 1, hidden))  # hs[s + 1]: h after step s
    cs = np.zeros_like(hs)
    acts = np.empty((steps, layers, 1, 4 * hidden))  # i, f, tanh g, o
    tcs = np.empty((steps, layers, 1, hidden))
    pre = np.empty((layers, 1, 4 * hidden))
    gate = [slice(j * hidden, (j + 1) * hidden) for j in range(4)]
    for s, (h0, h1, c0, c1, x, act, i, f, g, o, tc) in enumerate(zip(
            hs, hs[1:], cs, cs[1:], ins, acts, *(acts[..., j] for j in gate), tcs)):
        np.matmul(h0[:-1], w_up, out=x[1:])
        np.matmul(h0, w_hh, out=pre)
        pre += x
        pre += bias
        np.negative(pre, out=act)
        np.exp(act, out=act)
        act += 1.0
        np.divide(1.0, act, out=act)
        np.tanh(pre[..., gate[2]], out=g)
        np.multiply(f, c0, out=c1)
        c1 += i * g
        np.tanh(c1, out=tc)
        np.multiply(o, tc, out=h1)
        if s < layers - 1:  # layers above s + 1 start from a zero state
            h1[s + 1:] = c1[s + 1:] = 0.0
    data = np.concatenate([hs[layers:, -1, 0], cs[-1, -1]])

    def backward(grad):
        dx, dc0 = grad[:n], grad[n]
        for k in reversed(range(layers)):
            w_in, w_rec, b = weights[3 * k:3 * k + 3]
            rows = slice(k, k + n)  # layer k's row t is at step t + k
            act, c_prev, tc = acts[rows, k, 0], cs[rows, k, 0], tcs[rows, k, 0]
            i, f, g_, o = (act[:, j] for j in gate)
            oc = o * (1.0 - tc * tc)
            fac = np.stack([g_ * i * (1.0 - i), c_prev * f * (1.0 - f),
                            i * (1.0 - g_ * g_), tc * o * (1.0 - o)], axis=1)
            dpre = np.empty((n, 4 * hidden))
            by_gate = dpre.reshape(n, 4, hidden)
            dh, dc = np.zeros(hidden), dc0
            for t in reversed(range(n)):
                gh = dx[t] + dh
                gc = dc + gh * oc[t]
                np.multiply(gc, fac[t, :3], out=by_gate[t, :3])
                np.multiply(gh, fac[t, 3], out=by_gate[t, 3])
                dh = w_rec.data @ dpre[t]
                dc = gc * f[t]
            inputs = xs.data if k == 0 else hs[rows, k - 1, 0]
            _accum(w_in, inputs.T @ dpre)
            _accum(w_rec, hs[k + 1:k + n, k, 0].T @ dpre[1:])  # h_0 = 0 adds nothing
            _accum(b, dpre.sum(axis=0, keepdims=True))
            dx, dc0 = dpre @ w_in.data.T, np.zeros(hidden)  # no upper layer reads c
        _accum(xs, dx)

    return Tensor(data, backward)


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

    def backward(g):
        p = np.exp(z - lse)
        _accum(logits, float(g) / n * (p - onehot))

    return Tensor(np.array(nll.mean()), backward)


# ---------------------------------------------------------------------------
# backward sweep


def backward(root: Tensor):
    """Accumulate d(root)/d(node) into every node of the open tape.

    ``root`` must be a scalar. Parameter gradients accumulate on top of what
    they hold (call ``zero_grads`` first); every other tape node gets a fresh
    gradient, so a second backward over the same tape repeats the first.
    """
    if _tape is None:
        raise RuntimeError("backward needs an open tape")
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.data.shape}")
    for node in _tape:
        if not isinstance(node, Parameter):
            node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(_tape):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def zero_grads(params) -> None:
    for p in [params] if isinstance(params, Parameters) else _param_list(params):
        p.grad.fill(0.0)


def _param_list(params):
    return list(params.values() if isinstance(params, dict) else params)


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
    with tape():
        out = f()
        if not np.isfinite(out.data).all():
            raise FloatingPointError("grad_check objective is not finite")
        backward(out)
    analytic = [p.grad.copy() for p in plist]

    def probe(flat, i):
        orig, values = flat[i], []
        for step in (eps, -eps, 2.0 * eps, -2.0 * eps)[:order]:
            flat[i] = orig + step
            with _recording(None):
                values.append(f().item())
        flat[i] = orig
        lp, lm, *wide = values
        if order == 2:
            return (lp - lm) / (2.0 * eps)
        return (8.0 * (lp - lm) - (wide[0] - wide[1])) / (12.0 * eps)

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
