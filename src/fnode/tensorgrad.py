"""Reverse-mode automatic differentiation over dense float64 tensors.

Every primitive applied to :class:`Tensor` values builds a computation graph,
except under :func:`no_record`; :func:`backward` replays it in reverse
topological order and accumulates exact gradients into the ``grad`` buffers of
the leaf tensors.  It consumes the graph as it goes, like PyTorch's default
``retain_graph=False``: once a node's backward step has run, the node drops its
parents, its closure (and with it the forward arrays saved for backward) and
its own gradient, so a graph serves one backward pass and a second one raises
``ValueError``.  The engine is deliberately small: rank <= 2 arrays,
a fixed primitive vocabulary, no implicit broadcasting, and a few fused
nodes: a dense layer (:func:`dense`, which adds its bias to every row), the
per-row field network and the solver's step combinations.  All arithmetic
is float64 so that central-difference checks can be made tight.

Trainable tensors are carried in a plain ``dict`` of name -> Tensor, whose
insertion order fixes the order of optimizer updates and of archive blocks.
For each batch the model calls :func:`zero_grads`, builds its forward pass
from these primitives, calls :func:`backward` on the scalar loss and reads each
parameter's ``grad``.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatch",
    "NonFiniteValue",
    "NonScalarOutput",
    "finite_checks",
    "no_record",
    "add",
    "sub",
    "mul",
    "scale",
    "shift",
    "neg",
    "tanh",
    "exp",
    "square",
    "tensor_sum",
    "concat",
    "cols",
    "dense",
    "rowwise_mlp",
    "add_scaled_rows",
    "rk4_combine",
    "pick_rows",
    "backward",
    "zero_grads",
]


class ShapeMismatch(ValueError):
    """Raised when a primitive receives tensors of incompatible shapes."""


class NonFiniteValue(ArithmeticError):
    """Raised when a tensor holds NaN/Inf, naming the offending primitive."""


class NonScalarOutput(ValueError):
    """Raised when gradients are requested for a non-scalar program output."""


_ids = itertools.count()

# Per-primitive finiteness checking.  On by default; the training loop turns
# it off in its hot path and relies on the solver/loss checks instead.
_CHECK_FINITE = True
# Graph recording; inference never calls backward and turns it off (no_record).
_RECORD = True


@contextmanager
def _setting(name: str, value: bool):
    prev = globals()[name]
    globals()[name] = value
    try:
        yield
    finally:
        globals()[name] = prev


def finite_checks(enabled: bool):
    """Enable/disable per-primitive NaN/Inf checking within a block."""
    return _setting("_CHECK_FINITE", enabled)


def no_record():
    """Build no graph within a block, like ``torch.no_grad``; finiteness checks still run."""
    return _setting("_RECORD", False)


class Tensor:
    """A float64 array node in the computation graph.

    ``data`` is the value, ``grad`` the accumulated adjoint (``None`` until
    backward touches the node).  Leaf tensors validate finiteness on
    construction; op results are checked per the :func:`finite_checks` flag.
    """

    __slots__ = ("data", "grad", "_parents", "_bwd", "_op", "_id", "_pending")

    def __init__(self, data, _parents=(), _bwd=None, _op="leaf"):
        node_id = next(_ids)
        if _op == "leaf":
            arr = np.asarray(data, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise NonFiniteValue("leaf tensor holds non-finite entries")
        else:
            arr = data
            if _CHECK_FINITE and not np.all(np.isfinite(arr)):
                raise NonFiniteValue(
                    f"non-finite result in primitive '{_op}' (node #{node_id})"
                )
        self.data = arr
        self.grad = None
        self._parents = _parents if _RECORD else ()
        self._bwd = _bwd if _RECORD else None
        self._op = _op
        self._id = node_id
        self._pending = None  # deferred outer-product contributions, see backward()

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise NonScalarOutput(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return shift(self, float(other))
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return shift(self, -float(other))
        return sub(self, other)


def _acc(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    # own=True means g is a fresh array the caller will not reuse.
    if t.grad is None:
        t.grad = g if own else g.copy()
    else:
        t.grad += g


# -- elementwise and linear primitives --------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")

    def bwd(g):
        _acc(a, g)
        _acc(b, g)

    return Tensor(a.data + b.data, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"sub: {a.shape} vs {b.shape}")

    def bwd(g):
        _acc(a, g)
        _acc(b, -g, own=True)

    return Tensor(a.data - b.data, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}")

    def bwd(g):
        _acc(a, g * b.data, own=True)
        _acc(b, g * a.data, own=True)

    return Tensor(a.data * b.data, (a, b), bwd, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant (not differentiated wrt ``c``)."""

    def bwd(g):
        _acc(a, g * c, own=True)

    return Tensor(a.data * c, (a,), bwd, "scale")


def shift(a: Tensor, c: float) -> Tensor:
    """Add a python float constant."""

    def bwd(g):
        _acc(a, g)

    return Tensor(a.data + c, (a,), bwd, "shift")


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _acc(a, -g, own=True)

    return Tensor(-a.data, (a,), bwd, "neg")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bwd(g):
        _acc(a, g * (1.0 - out_data * out_data), own=True)

    return Tensor(out_data, (a,), bwd, "tanh")


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bwd(g):
        _acc(a, g * out_data, own=True)

    return Tensor(out_data, (a,), bwd, "exp")


def square(a: Tensor) -> Tensor:
    def bwd(g):
        _acc(a, 2.0 * g * a.data, own=True)

    return Tensor(a.data * a.data, (a,), bwd, "square")


# -- reductions --------------------------------------------------------------


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every entry, as a 0-d tensor."""

    def bwd(g):
        _acc(a, np.full_like(a.data, g.reshape(())), own=True)

    return Tensor(np.sum(a.data).reshape(()), (a,), bwd, "sum")


# -- structural primitives ----------------------------------------------------


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Stack rank-2 tensors of equal width, one block of rows after another."""
    if not parts or any(p.data.ndim != 2 or p.data.shape[1] != parts[0].data.shape[1] for p in parts):
        raise ShapeMismatch(f"concat: needs rank-2 operands of one width, got {[p.shape for p in parts]}")
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _acc(p, g[lo:hi])

    return Tensor(np.concatenate([p.data for p in parts]), tuple(parts), bwd, "concat")


def cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a [B, n] tensor; its data is a view of ``a``'s."""
    if a.data.ndim != 2 or not (0 <= start <= stop <= a.data.shape[1]):
        raise ShapeMismatch(f"cols: [{start}:{stop}] of shape {a.shape}")

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, start:stop] += g

    return Tensor(a.data[:, start:stop], (a,), bwd, "cols")


# -- fused batched primitives -------------------------------------------------
#
# The solver's inner loop is dominated by per-node Python overhead, so the
# few operations it repeats are fused: one node per evaluation of the vector
# field (time column, every layer and activation) and one per Runge-Kutta
# combination, instead of a dozen; a dense layer is one node too.  Each fused
# op is checked against central differences exactly like the elementary ones.


def dense(x: Tensor, w: Tensor, b: Tensor, tanh_out: bool = False, s: Tensor | None = None) -> Tensor:
    """One layer ``s * act(x @ w.T + b)`` with ``w`` [out, in], act tanh or the identity and an optional size-1 ``s``.

    Bias, tanh and (under :func:`no_record`) the scale work in place on the product, so one [B, out] block
    is live; tanh maps inf to 1, so its input is checked first.  The weight gradient is ``g.T @ x``.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 2 or b.data.shape + xd.shape[1:] != wd.shape or s is not None and s.data.size != 1:
        raise ShapeMismatch(f"dense: {x.shape} @ {w.shape}.T + {b.shape}, scale {None if s is None else s.shape}")
    act = xd @ wd.T
    act += b.data
    if tanh_out:
        if _CHECK_FINITE and not np.all(np.isfinite(act)):
            raise NonFiniteValue("non-finite pre-activation in primitive 'dense'")
        np.tanh(act, out=act)
    out = act
    if s is not None:
        sval = s.data.reshape(())
        out = act * sval if _RECORD else np.multiply(act, sval, out=act)

    def bwd(g):
        if s is not None:
            _acc(s, np.sum(g * act).reshape(s.data.shape), own=True)
            g = g * sval
        if tanh_out:
            g = g * (1.0 - act * act) if s is None else np.multiply(g, 1.0 - act * act, out=g)
        _acc(b, g.sum(axis=0), own=True)
        _acc(x, g @ wd, own=True)
        _acc(w, g.T @ xd, own=True)

    return Tensor(out, (x, w, b) if s is None else (x, w, b, s), bwd, "dense")


def rowwise_mlp(z: Tensor, t_row: np.ndarray, layers) -> Tensor:
    """Per-row MLP on [z | t]: row b of each layer is W_b @ h[b] + bias_b.

    ``t_row`` is a constant [B] time column appended to the [B, p] state.
    ``layers`` holds one (w_flat, b, n_in, n_out, tanh_out) entry per layer:
    ``w_flat`` packs one row-major [n_out, n_in] weight matrix per batch row
    and ``b`` one bias vector per row.  One tape node covers the whole
    network; each layer's input and output are kept for the backward pass.
    """
    B, p = z.data.shape
    h = np.concatenate([z.data, t_row[:, None]], axis=1)
    saved = []
    for wf, bf, n_in, n_out, tanh_out in layers:
        if h.shape[1] != n_in or wf.data.shape != (B, n_in * n_out) or bf.data.shape != (B, n_out):
            raise ShapeMismatch(f"rowwise_mlp: input {h.shape}, w {wf.shape}, b {bf.shape} for ({n_in}->{n_out})")
        w3 = wf.data.reshape(B, n_out, n_in)
        out = np.matmul(w3, h[:, :, None])[:, :, 0] + bf.data
        if tanh_out:
            out = np.tanh(out)
        saved.append((wf, bf, tanh_out, h, w3, out))
        h = out

    # The weight gradient of one layer is an outer product per row.  A solver
    # loop hits the same weight block hundreds of times per pass, so instead
    # of materializing and accumulating each [B, n_out, n_in] block the pairs
    # are stashed and contracted in one batched matmul when backward() reaches
    # the weight node.
    def bwd(g):
        for wf, bf, tanh_out, x, w3, out in reversed(saved):
            gpre = g * (1.0 - out * out) if tanh_out else g
            g = np.matmul(gpre[:, None, :], w3)[:, 0, :]
            _acc_outer(wf, gpre, x)
            # gpre is stashed above, so the bias must not take ownership of it
            _acc(bf, gpre)
        _acc(z, g[:, :p])

    parents = (z,) + tuple(t for wf, bf, *_ in layers for t in (wf, bf))
    return Tensor(h, parents, bwd, "rowwise_mlp")


def _acc_outer(t: Tensor, g_rows: np.ndarray, x_rows: np.ndarray) -> None:
    if t._pending is None:
        t._pending = ([], [])
    t._pending[0].append(g_rows)
    t._pending[1].append(x_rows)


def _flush_pending(t: Tensor) -> None:
    gs, xs = t._pending
    t._pending = None
    B = gs[0].shape[0]
    # sum_e outer(g_e[b], x_e[b]) as one [B, o, E] @ [B, E, i] matmul
    G = np.stack(gs, axis=2)
    X = np.stack(xs, axis=1)
    _acc(t, np.matmul(G, X).reshape(B, -1), own=True)


def add_scaled_rows(z: Tensor, k: Tensor, row_scale: np.ndarray) -> Tensor:
    """z + k * row_scale with a constant per-row scale column ([B, 1])."""
    if z.data.shape != k.data.shape:
        raise ShapeMismatch(f"add_scaled_rows: {z.shape} vs {k.shape}")

    def bwd(g):
        _acc(z, g)
        _acc(k, g * row_scale, own=True)

    return Tensor(z.data + k.data * row_scale, (z, k), bwd, "add_scaled_rows")


def rk4_combine(z: Tensor, k1: Tensor, k2: Tensor, k3: Tensor, k4: Tensor, h_col: np.ndarray) -> Tensor:
    """z + (h/6) * (k1 + 2 k2 + 2 k3 + k4) with a constant per-row step column."""
    shape = z.data.shape
    if any(k.data.shape != shape for k in (k1, k2, k3, k4)):
        raise ShapeMismatch("rk4_combine: stage shapes differ")
    w = h_col / 6.0
    out_data = z.data + (k1.data + k4.data + 2.0 * (k2.data + k3.data)) * w

    def bwd(g):
        _acc(z, g)
        gw = g * w
        _acc(k1, gw)
        _acc(k4, gw)
        _acc(k2, 2.0 * gw, own=True)
        _acc(k3, 2.0 * gw, own=True)

    return Tensor(out_data, (z, k1, k2, k3, k4), bwd, "rk4_combine")


def pick_rows(path: Sequence[Tensor], idx: np.ndarray) -> Tensor:
    """Row b of ``path[idx[b]]`` for every row b of a list of equal-shape tensors.

    When every row picks the same entry, that tensor itself is returned and no
    node is added.
    """
    first = int(idx[0])
    if np.all(idx == first):
        return path[first]
    picked = [(path[k], idx == k) for k in np.unique(idx)]
    out = np.empty_like(path[first].data)
    for t, mask in picked:
        out[mask] = t.data[mask]

    def bwd(g):
        for t, mask in picked:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad[mask] += g[mask]

    return Tensor(out, tuple(t for t, _ in picked), bwd, "pick_rows")


# -- graph traversal ----------------------------------------------------------


def _consumed(g):
    raise ValueError("this graph was already consumed by backward")


def backward(out: Tensor) -> None:
    """Accumulate d(out)/d(node) into ``grad`` for every ancestor of ``out``.

    ``out`` must be a scalar (size 1).  Leaf gradients add into whatever is
    already in ``grad``; callers reset them between passes (:func:`zero_grads`).
    Every interior node is consumed as the walk passes it: its ``grad`` is
    ``None`` afterwards and it has no parents.  A backward that would reach a
    consumed node, such as a second one from the same ``out``, raises
    ``ValueError`` before any gradient moves.
    """
    if out.data.size != 1:
        raise NonScalarOutput(f"backward on tensor of shape {out.shape}")
    if out._bwd is None and out._op != "leaf":
        raise ValueError(f"backward on a '{out._op}' result that recorded no graph (built under no_record())")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._bwd is _consumed:
            raise ValueError(f"backward reaches a '{node._op}' node whose graph was already consumed by backward")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    out.grad = np.ones_like(out.data)
    while topo:
        node = topo.pop()
        if node._pending is not None:
            _flush_pending(node)
        if node._bwd is not None and node.grad is not None:
            node._bwd(node.grad)
        if node._op != "leaf":
            node.grad = None
            node._parents = ()
            if node._bwd is not None:
                node._bwd = _consumed


def zero_grads(tensors: Iterable[Tensor]) -> None:
    """Clear the gradients, and any deferred weight contributions, of ``tensors``."""
    for t in tensors:
        t.grad = None
        t._pending = None
