"""Reverse-mode automatic differentiation over dense float64 tensors.

Every primitive applied to :class:`Tensor` values builds a computation graph;
:func:`backward` replays it in reverse topological order and accumulates exact
gradients into the ``grad`` buffers of the participating tensors.  The engine
is deliberately small: rank <= 2 arrays, a fixed primitive vocabulary, no
implicit broadcasting beyond the dedicated ``broadcast_add`` op.  All
arithmetic is float64 so that central-difference checks can be made tight.

Parameters of a computation are carried in a :class:`ParamSet`, an ordered
name -> Tensor map.  The public entry points :func:`evaluate`,
:func:`gradient` and :func:`finite_diff_check` treat a "program" as any
callable ``program(params, *inputs) -> Tensor`` built from these primitives.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ParamSet",
    "ShapeMismatch",
    "NonFiniteValue",
    "NonScalarOutput",
    "finite_checks",
    "add",
    "sub",
    "mul",
    "scalar_mul",
    "matmul",
    "broadcast_add",
    "scale",
    "shift",
    "neg",
    "tanh",
    "exp",
    "log",
    "square",
    "tensor_sum",
    "tensor_mean",
    "concat",
    "row",
    "cols",
    "reshape",
    "transpose",
    "rowwise_linear",
    "add_scaled_rows",
    "rk4_combine",
    "backward",
    "evaluate",
    "gradient",
    "finite_diff_check",
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


@contextmanager
def finite_checks(enabled: bool):
    """Enable/disable per-primitive NaN/Inf checking within a block."""
    global _CHECK_FINITE
    prev = _CHECK_FINITE
    _CHECK_FINITE = enabled
    try:
        yield
    finally:
        _CHECK_FINITE = prev


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
        self._parents = _parents
        self._bwd = _bwd
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
        if self.data.shape == other.data.shape:
            return add(self, other)
        if self.data.ndim == 2 and other.data.ndim == 1:
            return broadcast_add(self, other)
        if self.data.ndim == 1 and other.data.ndim == 2:
            return broadcast_add(other, self)
        raise ShapeMismatch(f"add: {self.shape} vs {other.shape}")

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return shift(self, -float(other))
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        if self.data.shape == other.data.shape:
            return mul(self, other)
        if other.data.size == 1:
            return scalar_mul(self, other)
        if self.data.size == 1:
            return scalar_mul(other, self)
        raise ShapeMismatch(f"mul: {self.shape} vs {other.shape}")

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return tensor_sum(self, axis=axis)

    def mean(self):
        return tensor_mean(self)

    def tanh(self):
        return tanh(self)

    def reshape(self, shape):
        return reshape(self, shape)


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


def scalar_mul(a: Tensor, s: Tensor) -> Tensor:
    """Multiply tensor ``a`` by a size-1 tensor ``s``; differentiable in both."""
    if s.data.size != 1:
        raise ShapeMismatch(f"scalar_mul: scalar operand has shape {s.shape}")
    sval = s.data.reshape(())

    def bwd(g):
        _acc(a, g * sval, own=True)
        _acc(s, np.sum(g * a.data).reshape(s.data.shape), own=True)

    return Tensor(a.data * sval, (a, s), bwd, "scalar_mul")


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


def broadcast_add(mat: Tensor, vec: Tensor) -> Tensor:
    """Add a rank-1 vector to every row of a rank-2 matrix."""
    if mat.data.ndim != 2 or vec.data.ndim != 1 or mat.data.shape[1] != vec.data.shape[0]:
        raise ShapeMismatch(f"broadcast_add: {mat.shape} vs {vec.shape}")

    def bwd(g):
        _acc(mat, g)
        _acc(vec, g.sum(axis=0), own=True)

    return Tensor(mat.data + vec.data, (mat, vec), bwd, "broadcast_add")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for (2d,2d), (1d,2d) and (2d,1d) operand ranks."""
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

        def bwd(g):
            _acc(a, g @ bd.T, own=True)
            _acc(b, ad.T @ g, own=True)

    elif ad.ndim == 1 and bd.ndim == 2:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

        def bwd(g):
            _acc(a, bd @ g, own=True)
            _acc(b, ad[:, None] * g[None, :], own=True)

    elif ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

        def bwd(g):
            _acc(a, g[:, None] * bd[None, :], own=True)
            _acc(b, ad.T @ g, own=True)

    else:
        raise ShapeMismatch(f"matmul: unsupported ranks {a.shape} @ {b.shape}")

    return Tensor(ad @ bd, (a, b), bwd, "matmul")


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


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(a.data)

    def bwd(g):
        _acc(a, g / a.data, own=True)

    return Tensor(out_data, (a,), bwd, "log")


def square(a: Tensor) -> Tensor:
    def bwd(g):
        _acc(a, 2.0 * g * a.data, own=True)

    return Tensor(a.data * a.data, (a,), bwd, "square")


# -- reductions --------------------------------------------------------------


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:

        def bwd(g):
            _acc(a, np.full_like(a.data, g.reshape(())), own=True)

        return Tensor(np.sum(a.data).reshape(()), (a,), bwd, "sum")

    if a.data.ndim != 2 or axis not in (0, 1):
        raise ShapeMismatch(f"sum: axis={axis} on shape {a.shape}")

    def bwd(g):
        _acc(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape), own=False)

    return Tensor(np.sum(a.data, axis=axis), (a,), bwd, "sum")


def tensor_mean(a: Tensor) -> Tensor:
    n = a.data.size

    def bwd(g):
        _acc(a, np.full_like(a.data, g.reshape(()) / n), own=True)

    return Tensor(np.mean(a.data).reshape(()), (a,), bwd, "mean")


# -- structural primitives ----------------------------------------------------


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeMismatch("concat: no operands")
    nd = parts[0].data.ndim
    if any(p.data.ndim != nd for p in parts):
        raise ShapeMismatch("concat: mixed ranks")
    if nd == 1 and axis != 0 or nd == 2 and axis not in (0, 1):
        raise ShapeMismatch(f"concat: axis={axis} for rank {nd}")
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if axis == 0:
                _acc(p, g[lo:hi])
            else:
                _acc(p, g[:, lo:hi])

    return Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd, "concat")


def row(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= i < a.data.shape[0]):
        raise ShapeMismatch(f"row: index {i} of shape {a.shape}")

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[i] += g

    return Tensor(a.data[i], (a,), bwd, "row")


def cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= start <= stop <= a.data.shape[1]):
        raise ShapeMismatch(f"cols: [{start}:{stop}] of shape {a.shape}")

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, start:stop] += g

    return Tensor(np.ascontiguousarray(a.data[:, start:stop]), (a,), bwd, "cols")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bwd(g):
        _acc(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), (a,), bwd, "reshape")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose: rank {a.data.ndim}")

    def bwd(g):
        _acc(a, g.T)

    return Tensor(a.data.T, (a,), bwd, "transpose")


# -- fused batched primitives -------------------------------------------------
#
# The solver's inner loop is dominated by per-node Python overhead, so the
# few operations it repeats are fused: one node per network layer and per
# Runge-Kutta combination instead of half a dozen.  Each fused op is checked
# against central differences exactly like the elementary ones.


def rowwise_linear(x: Tensor, w_flat: Tensor, b: Tensor, n_in: int, n_out: int, tanh_out: bool) -> Tensor:
    """Per-row affine layer: row b of the output is x[b] @ W_b + bias_b.

    ``w_flat`` packs one row-major [n_out, n_in] weight matrix per batch row;
    ``b`` holds one bias vector per row.  Optionally applies tanh.
    """
    B = x.data.shape[0]
    if (
        x.data.ndim != 2
        or x.data.shape[1] != n_in
        or w_flat.data.shape != (B, n_in * n_out)
        or b.data.shape != (B, n_out)
    ):
        raise ShapeMismatch(
            f"rowwise_linear: x {x.shape}, w {w_flat.shape}, b {b.shape} for ({n_in}->{n_out})"
        )
    # weights are [n_out, n_in] row-major per sample: out = W @ x per row
    w3 = w_flat.data.reshape(B, n_out, n_in)
    xd = x.data
    pre = np.matmul(w3, xd[:, :, None])[:, :, 0] + b.data
    # The weight gradient of one call is an outer product per row.  A solver
    # loop hits the same weight block hundreds of times per pass, so instead
    # of materializing and accumulating each [B, n_out, n_in] block the pairs
    # are stashed and contracted in one batched matmul when backward() reaches
    # the weight node.
    if tanh_out:
        out_data = np.tanh(pre)

        def bwd(g):
            gpre = g * (1.0 - out_data * out_data)
            _acc(x, np.matmul(gpre[:, None, :], w3)[:, 0, :], own=True)
            _acc_outer(w_flat, gpre, xd)
            # gpre is stashed above, so the bias must not take ownership of it
            _acc(b, gpre)

    else:
        out_data = pre

        def bwd(g):
            _acc(x, np.matmul(g[:, None, :], w3)[:, 0, :], own=True)
            _acc_outer(w_flat, g, xd)
            _acc(b, g)

    return Tensor(out_data, (x, w_flat, b), bwd, "rowwise_linear")


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
    G = np.ascontiguousarray(np.stack(gs).transpose(1, 2, 0))
    X = np.ascontiguousarray(np.stack(xs).transpose(1, 0, 2))
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


# -- graph traversal ----------------------------------------------------------


def backward(out: Tensor) -> None:
    """Accumulate d(out)/d(node) into ``grad`` for every ancestor of ``out``.

    ``out`` must be a scalar (size 1).  Gradients add into whatever is already
    in ``grad``; callers reset leaf gradients between passes.
    """
    if out.data.size != 1:
        raise NonScalarOutput(f"backward on tensor of shape {out.shape}")

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
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    out.grad = np.ones_like(out.data)
    for node in reversed(topo):
        if node._pending is not None:
            _flush_pending(node)
        if node._bwd is not None and node.grad is not None:
            node._bwd(node.grad)


# -- parameter collections ------------------------------------------------------


class ParamSet:
    """Ordered collection of uniquely named parameter tensors.

    Iteration order is the insertion order, which is what makes optimizer
    updates and serialization reproducible run to run.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[tuple[str, Tensor]] | dict | None = None):
        self._entries: dict[str, Tensor] = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, dict) else entries
            for name, t in items:
                self.add(name, t)

    def add(self, name: str, tensor: Tensor) -> None:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._entries[name] = tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def tensors(self):
        return self._entries.values()

    def subset(self, prefix: str) -> "ParamSet":
        """View of the entries whose names start with ``prefix`` (stripped).

        The returned set shares Tensor objects with this one, so gradients and
        in-place updates are visible through both.
        """
        sub = ParamSet()
        for name, t in self._entries.items():
            if name.startswith(prefix):
                sub.add(name[len(prefix):], t)
        return sub

    def zero_grads(self) -> None:
        for t in self._entries.values():
            t.grad = None
            t._pending = None


# -- public evaluation API ------------------------------------------------------

Program = Callable[..., Tensor]


def evaluate(program: Program, params: ParamSet, inputs: Sequence[Tensor]) -> Tensor:
    """Run ``program(params, *inputs)`` with per-primitive finiteness checks."""
    with finite_checks(True):
        return program(params, *inputs)


def gradient(program: Program, params: ParamSet, inputs: Sequence[Tensor]) -> ParamSet:
    """Exact gradients of a scalar-valued program wrt every parameter.

    Unused parameters yield zero tensors of matching shape.
    """
    params.zero_grads()
    for t in inputs:
        t.grad = None
    with finite_checks(True):
        out = program(params, *inputs)
    if out.data.size != 1:
        raise NonScalarOutput(f"program output has shape {out.shape}")
    backward(out)
    grads = ParamSet()
    for name, t in params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        grads.add(name, Tensor(g))
    return grads


def finite_diff_check(
    program: Program,
    params: ParamSet,
    inputs: Sequence[Tensor],
    h: float,
    *,
    entries_per_param: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between :func:`gradient` and central differences.

    The relative error uses denominator ``max(|analytic|, |numeric|, 1e-8)``.
    ``entries_per_param`` optionally subsamples coordinates of each parameter
    (without it every entry is perturbed, which is quadratic in model size).
    The program must be a pure function of ``params`` and ``inputs``.
    """
    if h <= 0:
        raise ValueError("finite_diff_check: h must be positive")
    analytic = gradient(program, params, inputs)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        n = flat.shape[0]
        if entries_per_param is not None and entries_per_param < n:
            idxs = rng.choice(n, size=entries_per_param, replace=False)
        else:
            idxs = range(n)
        a_flat = analytic[name].data.reshape(-1)
        for i in idxs:
            orig = flat[i]
            try:
                flat[i] = orig + h
                f_hi = evaluate(program, params, inputs).item()
                flat[i] = orig - h
                f_lo = evaluate(program, params, inputs).item()
            finally:
                flat[i] = orig
            numeric = (f_hi - f_lo) / (2.0 * h)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst
