"""Dense tensors with tape-based reverse-mode differentiation.

Every tensor wraps a numpy array (float32 for training, float64 for
gradient-check tests). Operations record a backward closure on their output;
``backward`` replays the recorded graph in reverse execution order exactly
once. Tensors are immutable after creation except for gradient accumulation
into ``.grad``.

The hot ops are fused, one tape node each: ``linear`` (one GEMM plus bias
over all leading axes), ``attention`` (head split, scaled q kT, softmax,
.v and head merge over packed [q|k|v] rows, with a hand-derived backward)
and ``mlp`` (linear, GELU, linear). ``mlp`` runs in blocks of ``MLP_ROWS``
rows so that its [rows, hidden] temporaries stay in cache; only its weight
gradients are taken over all rows at once, one GEMM or sum each. ``gelu``
and ``layer_norm`` work in place on their own temporaries. The in-place
rule: an op may write only into arrays it allocated itself. It never writes
into an input's ``.data``, nor into the incoming gradient ``g`` of its
backward closure, because ``add`` hands the same array to both parents and
``reshape`` passes on a view of it.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

_SEQ = itertools.count()
_GRAD_ENABLED = True
_DEBUG_VALIDATE = False


class GradientError(Exception):
    """Raised on contract violations in the autodiff machinery."""


@contextmanager
def debug_validation(enabled: bool = True):
    """Check every op output for NaN/Inf inside the block (off by default)."""
    global _DEBUG_VALIDATE
    prev = _DEBUG_VALIDATE
    _DEBUG_VALIDATE = bool(enabled)
    try:
        yield
    finally:
        _DEBUG_VALIDATE = prev


@contextmanager
def no_grad():
    """Disable graph recording inside the block (used for evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """N-dimensional float array with an optional gradient slot.

    ``requires_grad`` marks trainable leaves; op outputs require grad iff any
    input does and recording is enabled. ``.grad`` is allocated lazily on the
    first backward pass and never allocated for frozen tensors.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._seq = next(_SEQ)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _DEBUG_VALIDATE and not np.all(np.isfinite(out_data)):
        raise GradientError("non-finite value produced by an operation")
    out = Tensor(out_data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = a.data + b.data

    def backward_fn(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), backward_fn)


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = a.data - b.data

    def backward_fn(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), backward_fn)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = a.data * b.data

    def backward_fn(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def backward_fn(g):
        return (g.reshape(a.shape) if a.requires_grad else None,)

    return _make(out, (a,), backward_fn)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise GradientError("concat requires at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        grads = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(lo), int(hi))
                grads.append(np.ascontiguousarray(g[tuple(idx)]))
            else:
                grads.append(None)
        return tuple(grads)

    return _make(out, tensors, backward_fn)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous sub-range along one axis; backward zero-pads."""
    if not (0 <= start <= stop <= a.shape[axis]):
        raise GradientError(
            f"slice [{start}:{stop}] out of range for axis {axis} of shape {a.shape}"
        )
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    # contiguous copy so downstream BLAS calls see identical memory layouts
    # whether the operand came from a slice or a standalone array
    out = np.ascontiguousarray(a.data[idx])

    def backward_fn(g):
        if not a.requires_grad:
            return (None,)
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(out, (a,), backward_fn)


def expand(a: Tensor, shape) -> Tensor:
    """Broadcast to ``shape``; backward sums over the broadcast axes."""
    shape = tuple(shape)
    out = np.broadcast_to(a.data, shape)

    def backward_fn(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,)

    return _make(np.ascontiguousarray(out), (a,), backward_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading axes broadcast, gradients flow to both sides.

    The model calls ``linear`` and ``attention`` instead; ``matmul`` and
    ``softmax`` stay because ``bench/tracing.py`` wraps them by name."""
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise GradientError("matmul requires at least 1-d operands")
    if a.shape[-1] != b.shape[-2 if b.data.ndim > 1 else 0]:
        raise GradientError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward_fn(g):
        ga = gb = None
        if a.requires_grad:
            bt = np.swapaxes(b.data, -1, -2) if b.data.ndim > 1 else b.data[None, :]
            ga = _unbroadcast(g @ bt, a.shape)
        if b.requires_grad:
            at = np.swapaxes(a.data, -1, -2) if a.data.ndim > 1 else a.data[:, None]
            gb = _unbroadcast(at @ g, b.shape)
        return (ga, gb)

    return _make(out, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b): one GEMM over the rows of all leading axes, one tape node."""
    if w.data.ndim != 2 or x.data.ndim == 0 or x.shape[-1] != w.shape[0]:
        raise GradientError(f"linear shape mismatch: {x.shape} @ {w.shape}")
    rows = x.data.reshape(-1, x.shape[-1])
    out = rows @ w.data
    if b is not None:
        out += b.data
    parents = (x, w) if b is None else (x, w, b)

    def backward_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        grads = (
            (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None,
            rows.T @ g2 if w.requires_grad else None,
        )
        if b is not None:
            grads += (g2.sum(axis=0) if b.requires_grad else None,)
        return grads

    return _make(out.reshape(x.shape[:-1] + (w.shape[1],)), parents, backward_fn)


def attention(qkv: Tensor, heads: int, queries: int | None = None) -> Tensor:
    """Multi-head softmax(q kT / sqrt(head_dim)) v over packed [q|k|v] rows.

    ``qkv`` is [B, N, 3D]. Only the first ``queries`` rows (all N by default)
    attend: keys and values come from every row, and the output is
    [B, queries, D]. Heads are split, attended and merged inside one tape
    node whose backward is derived by hand; the q-gradient of rows past
    ``queries`` is zero.
    """
    if qkv.data.ndim != 3 or qkv.shape[2] % (3 * heads):
        raise GradientError(f"attention: packed qkv {qkv.shape} does not split into {heads} heads")
    b, n, d3 = qkv.shape
    m = n if queries is None else queries
    if not 1 <= m <= n:
        raise GradientError(f"attention: {m} query rows outside [1, {n}]")
    d = d3 // 3
    hd = d // heads
    scale = 1.0 / np.sqrt(hd)
    # [3, B, H, N, hd] view of the packed rows, no copy
    qh, kh, vh = qkv.data.reshape(b, n, 3, heads, hd).transpose(2, 0, 3, 1, 4)
    qh = qh[:, :, :m]
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    # row max over a transposed copy and row sums by einsum: numpy's
    # reductions along a short last axis cost several times the exp they guard
    p -= np.moveaxis(p, -1, 0).copy().max(axis=0)[..., None]
    np.exp(p, out=p)
    p /= np.einsum("...j->...", p)[..., None]
    out = (p @ vh).transpose(0, 2, 1, 3).reshape(b, m, d)

    def backward_fn(g):
        gh = g.reshape(b, m, heads, hd).transpose(0, 2, 1, 3)
        gqkv = np.empty((b, n, 3, heads, hd), qkv.data.dtype)
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        gv[...] = p.swapaxes(-1, -2) @ gh
        gs = gh @ vh.swapaxes(-1, -2)
        gs -= np.einsum("...j,...j->...", gs, p)[..., None]
        gs *= p
        gs *= scale
        gq[:, :, :m] = gs @ kh
        gq[:, :, m:] = 0.0
        gk[...] = gs.swapaxes(-1, -2) @ qh
        return (gqkv.reshape(b, n, d3),)

    return _make(out, (qkv,), backward_fn)


MLP_ROWS = 256  # rows per block of ``mlp``; fastest of 64/128/256/512 on eval-sized inputs


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 over the rows of all leading axes, one tape node.

    Each block of ``MLP_ROWS`` rows runs both GEMMs and the GELU between them
    while its [rows, hidden] temporaries are still in cache. When recording,
    the pre-activation and its tanh are written into saved [rows, hidden]
    buffers for the backward; under ``no_grad`` nothing is saved. The
    backward runs the GELU derivative and the input gradient per block, and
    each weight gradient as one GEMM or sum over all rows.
    """
    if (
        w1.data.ndim != 2 or w2.data.ndim != 2 or x.data.ndim == 0
        or x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]
    ):
        raise GradientError(f"mlp shape mismatch: {x.shape} @ {w1.shape} @ {w2.shape}")
    parents = (x, w1, b1, w2, b2)
    record = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    rows = x.data.reshape(-1, x.shape[-1])
    n, hidden = rows.shape[0], w1.shape[1]
    dtype = rows.dtype
    out = np.empty((n, w2.shape[1]), dtype)
    blocks = [(lo, min(lo + MLP_ROWS, n)) for lo in range(0, n, MLP_ROWS)]
    block_rows = min(MLP_ROWS, n)
    # pre-activation h and its tanh t: every row is kept for the backward
    # when recording, otherwise one block's buffers are reused
    h_all = np.empty((n if record else block_rows, hidden), dtype)
    t_all = np.empty_like(h_all)
    a_buf = np.empty((block_rows, hidden), dtype)
    for lo, hi in blocks:
        kept = slice(lo, hi) if record else slice(0, hi - lo)
        h, t, a = h_all[kept], t_all[kept], a_buf[: hi - lo]
        np.matmul(rows[lo:hi], w1.data, out=h)
        h += b1.data
        _gelu_tanh(h, t)
        _gelu_from_tanh(h, t, a)
        np.matmul(a, w2.data, out=out[lo:hi])
        out[lo:hi] += b2.data

    def backward_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = np.empty_like(rows) if x.requires_grad else None
        # gh and the GELU output are staged over all rows for the weight
        # gradients that need them; gh is otherwise one reused block
        stage_gh = w1.requires_grad or b1.requires_grad
        gh_all = np.empty((n if stage_gh else block_rows, hidden), dtype)
        a_all = np.empty((n, hidden), dtype) if w2.requires_grad else None
        ga_buf = np.empty((block_rows, hidden), dtype)
        for lo, hi in blocks:
            h, t = h_all[lo:hi], t_all[lo:hi]
            if a_all is not None:
                _gelu_from_tanh(h, t, a_all[lo:hi])
            ga = ga_buf[: hi - lo]
            np.matmul(g2[lo:hi], w2.data.T, out=ga)
            gh = gh_all[lo:hi] if stage_gh else gh_all[: hi - lo]
            _gelu_grad(h, t, ga, gh)
            if gx is not None:
                np.matmul(gh, w1.data.T, out=gx[lo:hi])
        return (
            gx.reshape(x.shape) if gx is not None else None,
            rows.T @ gh_all if w1.requires_grad else None,
            gh_all.sum(axis=0) if b1.requires_grad else None,
            a_all.T @ g2 if w2.requires_grad else None,
            g2.sum(axis=0) if b2.requires_grad else None,
        )

    return _make(out.reshape(x.shape[:-1] + (w2.shape[1],)), parents, backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities and reductions


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def backward_fn(g):
        if not a.requires_grad:
            return (None,)
        return (g * (a.data > 0),)

    return _make(out, (a,), backward_fn)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def _gelu_tanh(x: np.ndarray, t: np.ndarray) -> None:
    """t = tanh(c*(x + 0.044715*x^3)), the factor GELU and its derivative share."""
    np.multiply(x, 0.044715, out=t)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)


def _gelu_from_tanh(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """out = 0.5*x*(1 + t), GELU's tanh approximation given ``t``."""
    np.add(t, 1.0, out=out)
    out *= x
    out *= 0.5


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
    """out = g * d gelu/dx = g * 0.5*(x*(1 - t^2)*c*(1 + 3*0.044715*x^2) + t + 1)."""
    np.multiply(x, x, out=out)
    out *= 3.0 * 0.044715
    out += 1.0
    out *= _GELU_C
    u = t * t
    np.subtract(1.0, u, out=u)
    u *= x
    out *= u
    out += t
    out += 1.0
    out *= 0.5
    out *= g


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    x = a.data
    t = np.empty_like(x)
    _gelu_tanh(x, t)
    out = np.empty_like(x)
    _gelu_from_tanh(x, t, out)

    def backward_fn(g):
        if not a.requires_grad:
            return (None,)
        d = np.empty_like(x)
        _gelu_grad(x, t, g, d)
        return (d,)

    return _make(out, (a,), backward_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along ``axis``; slices sum to one."""
    if a.shape[axis] == 0:
        raise GradientError("softmax along an empty axis")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        if not a.requires_grad:
            return (None,)
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), backward_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise GradientError(
            f"layer_norm affine shape mismatch: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    mu = np.einsum("...j->...", x.data)[..., None]
    mu /= d
    xhat = x.data - mu
    inv = np.einsum("...j,...j->...", xhat, xhat)[..., None]
    inv /= d
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def backward_fn(g):
        gx = gg = gb = None
        g2 = g.reshape(-1, d)
        if gamma.requires_grad:
            gg = np.einsum("ij,ij->j", g2, xhat.reshape(-1, d))
        if beta.requires_grad:
            gb = g2.sum(axis=0)
        if x.requires_grad:
            gx = g * gamma.data
            m2 = np.einsum("...j,...j->...", gx, xhat)[..., None]
            m2 /= d
            m1 = np.einsum("...j->...", gx)[..., None]
            m1 /= d
            gx -= m1
            gx -= xhat * m2
            gx *= inv
        return (gx, gg, gb)

    return _make(out, (x, gamma, beta), backward_fn)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax at the label index, over the batch."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise GradientError(f"cross_entropy expects 2-d logits, got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise GradientError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise IndexError(f"label out of range [0, {c})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(n), labels].mean()

    def backward_fn(g):
        if not logits.requires_grad:
            return (None,)
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward_fn)


def sum_all(a: Tensor) -> Tensor:
    out = a.data.sum()

    def backward_fn(g):
        if not a.requires_grad:
            return (None,)
        return (np.full(a.shape, g, dtype=a.data.dtype),)

    return _make(np.asarray(out, dtype=a.data.dtype), (a,), backward_fn)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    out = a.data.mean()

    def backward_fn(g):
        if not a.requires_grad:
            return (None,)
        return (np.full(a.shape, g / n, dtype=a.data.dtype),)

    return _make(np.asarray(out, dtype=a.data.dtype), (a,), backward_fn)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every requires-grad leaf reachable from ``loss``.

    Repeated calls without ``zero_grad`` accumulate. Traversal follows reverse
    execution order, visiting each recorded node exactly once.
    """
    if loss.data.size != 1:
        raise GradientError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GradientError("loss does not require grad; nothing to differentiate")
    if loss._backward is None:
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += np.ones_like(loss.data)
        return

    # collect reachable recorded nodes
    nodes: dict[int, Tensor] = {}
    stack = [loss]
    seen = {id(loss)}
    while stack:
        t = stack.pop()
        if t._backward is not None:
            nodes[id(t)] = t
            for p in t._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)

    pending: dict[int, np.ndarray] = {
        id(loss): np.ones_like(loss.data)
    }
    for t in sorted(nodes.values(), key=lambda n: n._seq, reverse=True):
        g = pending.pop(id(t), None)
        if g is None:
            continue
        for parent, pg in zip(t._parents, t._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent._backward is None:
                # trainable leaf: accumulate into the grad slot
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += pg
            else:
                acc = pending.get(id(parent))
                pending[id(parent)] = pg if acc is None else acc + pg
