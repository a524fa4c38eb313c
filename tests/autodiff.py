"""Test oracles over ``fnode.tensorgrad``: evaluate a program, its exact gradient, and central differences.

A "program" is any callable ``program(params, *inputs) -> Tensor`` built from
``tensorgrad`` primitives.  :func:`finite_diff_check` compares
:func:`gradient` against central differences of :func:`evaluate`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from fnode.tensorgrad import NonScalarOutput, Tensor, backward, finite_checks, zero_grads


Program = Callable[..., Tensor]
EPS = np.finfo(np.float64).eps


def evaluate(program: Program, params: dict[str, Tensor], inputs: Sequence[Tensor]) -> Tensor:
    """Run ``program(params, *inputs)`` with per-primitive finiteness checks."""
    with finite_checks(True):
        return program(params, *inputs)


def gradient(program: Program, params: dict[str, Tensor], inputs: Sequence[Tensor]) -> dict[str, Tensor]:
    """Exact gradients of a scalar-valued program wrt every parameter.

    Unused parameters yield zero tensors of matching shape.
    """
    zero_grads(params.values())
    for t in inputs:
        t.grad = None
    with finite_checks(True):
        out = program(params, *inputs)
    if out.data.size != 1:
        raise NonScalarOutput(f"program output has shape {out.shape}")
    backward(out)
    return {name: Tensor(np.zeros_like(t.data) if t.grad is None else t.grad) for name, t in params.items()}


def finite_diff_check(
    program: Program,
    params: dict[str, Tensor],
    inputs: Sequence[Tensor],
    h: float,
    *,
    entries_per_param: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between :func:`gradient` and central differences.

    Each entry's error is ``max(|analytic - numeric| - noise, 0)`` over
    ``max(|analytic|, |numeric|, 1e-8)``.  ``noise = 8 eps max(|f(x+h)|,
    |f(x-h)|, 1) / h`` is the rounding error of the difference quotient, so
    a correct gradient near 1e-7, below what central differences resolve,
    does not read as a relative error of 1e-4.
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
            noise = 8.0 * EPS * max(abs(f_hi), abs(f_lo), 1.0) / h
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, max(abs(a_flat[i] - numeric) - noise, 0.0) / denom)
    return worst
