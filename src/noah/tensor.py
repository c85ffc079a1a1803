"""Dense tensors with tape-based reverse-mode differentiation.

Every tensor wraps a numpy array (float32 for training, float64 for
gradient-check tests). An operation that records gives its output a graph
node: the backward closure, a sequence number, and one entry per input,
which is the input's own node, the input itself if it is a trainable leaf,
or None if it needs no gradient. ``backward`` replays the nodes reachable
from the loss in reverse execution order, each exactly once. Tensors are
immutable after creation except for gradient accumulation into ``.grad``.

A node never refers to an input tensor that is not a trainable leaf, and a
closure captures only the arrays its backward reads, plus shapes and
``requires_grad`` flags. So an activation lives only as long as a backward
needs it: ``add``, ``concat``, ``expand``, ``reshape`` and ``slice_axis``
keep no array at all, and ``linear`` and ``mlp`` keep their input rows only
when their (first) weight needs a gradient.

The hot ops are fused, one tape node each: ``linear`` (one GEMM plus bias
over all leading axes), ``attention`` (head split, scaled q kT, softmax,
.v and head merge over packed [q|k|v] rows, with a hand-derived backward)
and ``mlp`` (linear, GELU, linear). ``mlp`` runs in blocks of ``MLP_ROWS``
rows so that its [rows, hidden] temporaries stay in cache; only its weight
gradients are taken over all rows at once, one GEMM or sum each. ``gelu``
and ``layer_norm`` work in place on their own temporaries. The in-place
rule: an op may write only into arrays it allocated itself. It never writes
into an input's ``.data``, nor into the incoming gradient ``g`` of its
backward closure, because ``add`` hands the same array to both inputs and
``reshape`` passes on a view of it.

There is no grad mode: an op records exactly when one of its inputs
requires grad, in any thread. To run without recording, run on tensors that
require none. ``supernet.evaluate`` does so: it scores a frozen view of the
weights, new tensors over the same arrays, so its threads record nothing, and
a model trained in another thread meanwhile records as always.

No op checks its output for NaN or Inf; training raises on a non-finite loss
and ``supernet.evaluate`` on non-finite logits. To find the op where a NaN
or Inf first appears, run the failing code under
``np.errstate(invalid="raise", over="raise", divide="raise")``: numpy then
raises ``FloatingPointError`` at the op that made it from finite values. A
NaN or Inf that is already in a weight or an input is not reported there.

``matmul``, ``softmax`` and ``gelu`` stay only because the benchmark's tracer
wraps them by name; the model runs ``linear``, ``attention`` and ``mlp``.
"""

from __future__ import annotations

import itertools

import numpy as np

_SEQ = itertools.count()


class GradientError(Exception):
    """Raised on contract violations in the autodiff machinery, and by
    ``supernet.evaluate`` on non-finite logits."""


class Tensor:
    """N-dimensional float array with an optional gradient slot.

    ``requires_grad`` marks trainable leaves; op outputs require grad iff any
    input does, and then carry the ``_node`` that records how they were made.
    The node holds what the backward reads, not this tensor: dropping an
    activation frees its array unless a backward captured it. ``.grad`` is
    allocated lazily on the first backward pass and never allocated for
    frozen tensors.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class Node:
    """How one op output was made: ``backward`` maps the output's gradient
    to one gradient (or None) per input, ``seq`` orders nodes by execution,
    and ``inputs`` holds per input its node, the input itself if it is a
    trainable leaf, or None if it needs no gradient."""

    __slots__ = ("backward", "seq", "inputs")

    def __init__(self, backward, inputs: tuple):
        self.backward = backward
        self.seq = next(_SEQ)
        self.inputs = inputs


def _entry(t: Tensor):
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._node = Node(backward_fn, tuple(map(_entry, inputs)))
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


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    a_shape, a_grad = a.shape, a.requires_grad
    b_shape, b_grad = b.shape, b.requires_grad

    def backward_fn(g):
        return (
            _unbroadcast(g, a_shape) if a_grad else None,
            _unbroadcast(g, b_shape) if b_grad else None,
        )

    return _make(out, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    a_shape = a.shape

    def backward_fn(g):
        return (g.reshape(a_shape),)

    return _make(out, (a,), backward_fn)


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise GradientError("concat requires at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    needs = [t.requires_grad for t in tensors]

    def backward_fn(g):
        grads = []
        for needed, lo, hi in zip(needs, offsets[:-1], offsets[1:]):
            if needed:
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
    a_shape, dtype = a.shape, a.data.dtype

    def backward_fn(g):
        full = np.zeros(a_shape, dtype)
        full[idx] = g
        return (full,)

    return _make(out, (a,), backward_fn)


def expand(a: Tensor, shape) -> Tensor:
    """Broadcast to ``shape``; backward sums over the broadcast axes."""
    shape = tuple(shape)
    out = np.broadcast_to(a.data, shape)
    a_shape = a.shape

    def backward_fn(g):
        return (_unbroadcast(g, a_shape),)

    return _make(np.ascontiguousarray(out), (a,), backward_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading axes broadcast, gradients flow to both sides.

    The model calls ``linear``, ``attention`` and ``mlp`` instead. ``matmul``,
    ``softmax`` and ``gelu`` stay only because ``bench/tracing.py`` wraps
    them by name."""
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise GradientError("matmul requires at least 1-d operands")
    if a.shape[-1] != b.shape[-2 if b.data.ndim > 1 else 0]:
        raise GradientError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    a_shape, b_shape = a.shape, b.shape
    # each side's gradient reads the other side's array
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward_fn(g):
        ga = gb = None
        if b_data is not None:
            bt = np.swapaxes(b_data, -1, -2) if b_data.ndim > 1 else b_data[None, :]
            ga = _unbroadcast(g @ bt, a_shape)
        if a_data is not None:
            at = np.swapaxes(a_data, -1, -2) if a_data.ndim > 1 else a_data[:, None]
            gb = _unbroadcast(at @ g, b_shape)
        return (ga, gb)

    return _make(out, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b): one GEMM over the rows of all leading axes, one tape node.
    The node keeps ``x``'s rows only when ``w`` needs a gradient."""
    if w.data.ndim != 2 or x.data.ndim == 0 or x.shape[-1] != w.shape[0]:
        raise GradientError(f"linear shape mismatch: {x.shape} @ {w.shape}")
    rows = x.data.reshape(-1, x.shape[-1])
    out = rows @ w.data
    if b is not None:
        out += b.data
    inputs = (x, w) if b is None else (x, w, b)
    x_shape = x.shape
    w_data = w.data if x.requires_grad else None
    kept_rows = rows if w.requires_grad else None
    b_grad = None if b is None else b.requires_grad

    def backward_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        grads = (
            (g2 @ w_data.T).reshape(x_shape) if w_data is not None else None,
            kept_rows.T @ g2 if kept_rows is not None else None,
        )
        if b_grad is not None:
            grads += (g2.sum(axis=0) if b_grad else None,)
        return grads

    return _make(out.reshape(x.shape[:-1] + (w.shape[1],)), inputs, backward_fn)


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
    dtype = qkv.data.dtype

    def backward_fn(g):
        gh = g.reshape(b, m, heads, hd).transpose(0, 2, 1, 3)
        gqkv = np.empty((b, n, 3, heads, hd), dtype)
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
    while its [rows, hidden] temporaries are still in cache. When an input
    requires grad, the pre-activation and its tanh are written into saved
    [rows, hidden] buffers for the backward; otherwise nothing is saved. The
    input rows are kept only when ``w1`` needs a gradient. The backward runs
    the GELU derivative and the input gradient per block, and each weight
    gradient as one GEMM or sum over all rows.
    """
    if (
        w1.data.ndim != 2 or w2.data.ndim != 2 or x.data.ndim == 0
        or x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]
    ):
        raise GradientError(f"mlp shape mismatch: {x.shape} @ {w1.shape} @ {w2.shape}")
    inputs = (x, w1, b1, w2, b2)
    needs = tuple(t.requires_grad for t in inputs)
    x_grad, w1_grad, b1_grad, w2_grad, b2_grad = needs
    record = any(needs)
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
    x_shape, w2_data = x.shape, w2.data
    w1_data = w1.data if x_grad else None
    kept_rows = rows if w1_grad else None

    def backward_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = np.empty((n, x_shape[-1]), dtype) if x_grad else None
        # gh and the GELU output are staged over all rows for the weight
        # gradients that need them; gh is otherwise one reused block
        stage_gh = w1_grad or b1_grad
        gh_all = np.empty((n if stage_gh else block_rows, hidden), dtype)
        a_all = np.empty((n, hidden), dtype) if w2_grad else None
        ga_buf = np.empty((block_rows, hidden), dtype)
        for lo, hi in blocks:
            h, t = h_all[lo:hi], t_all[lo:hi]
            if a_all is not None:
                _gelu_from_tanh(h, t, a_all[lo:hi])
            ga = ga_buf[: hi - lo]
            np.matmul(g2[lo:hi], w2_data.T, out=ga)
            gh = gh_all[lo:hi] if stage_gh else gh_all[: hi - lo]
            _gelu_grad(h, t, ga, gh)
            if gx is not None:
                np.matmul(gh, w1_data.T, out=gx[lo:hi])
        return (
            gx.reshape(x_shape) if gx is not None else None,
            kept_rows.T @ gh_all if w1_grad else None,
            gh_all.sum(axis=0) if b1_grad else None,
            a_all.T @ g2 if w2_grad else None,
            g2.sum(axis=0) if b2_grad else None,
        )

    return _make(out.reshape(x.shape[:-1] + (w2.shape[1],)), inputs, backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities and reductions


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def backward_fn(g):
        # out > 0 exactly where a > 0, so the input need not be kept
        return (g * (out > 0),)

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
    gamma_grad, beta_grad = gamma.requires_grad, beta.requires_grad
    gamma_data = gamma.data if x.requires_grad else None

    def backward_fn(g):
        gx = gg = gb = None
        g2 = g.reshape(-1, d)
        if gamma_grad:
            gg = np.einsum("ij,ij->j", g2, xhat.reshape(-1, d))
        if beta_grad:
            gb = g2.sum(axis=0)
        if gamma_data is not None:
            gx = g * gamma_data
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
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward_fn)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every requires-grad leaf reachable from ``loss``.

    Repeated calls accumulate until ``.grad`` is reset to None. Traversal
    follows reverse execution order, visiting each recorded node exactly once.
    """
    if loss.data.size != 1:
        raise GradientError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GradientError("loss does not require grad; nothing to differentiate")
    root = loss._node
    if root is None:
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += np.ones_like(loss.data)
        return

    # collect reachable recorded nodes
    nodes = {root}
    stack = [root]
    while stack:
        for entry in stack.pop().inputs:
            if type(entry) is Node and entry not in nodes:
                nodes.add(entry)
                stack.append(entry)

    pending: dict[Node, np.ndarray] = {root: np.ones_like(loss.data)}
    for node in sorted(nodes, key=lambda n: n.seq, reverse=True):
        g = pending.pop(node, None)
        if g is None:
            continue
        for entry, pg in zip(node.inputs, node.backward(g)):
            if pg is None or entry is None:
                continue
            if type(entry) is Node:
                acc = pending.get(entry)
                pending[entry] = pg if acc is None else acc + pg
            else:
                # trainable leaf: accumulate into the grad slot
                if entry.grad is None:
                    entry.grad = np.zeros_like(entry.data)
                entry.grad += pg
