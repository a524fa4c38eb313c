"""Fixed-step Runge-Kutta-4 integration of a batch of latent states.

The one solver, :func:`integrate_batch`, advances a [B, p] state over per-row
time grids.  The vector field is any callable built from taped primitives, so
the returned states stay differentiable with respect to the initial state and
whatever parameters the field closes over (gradients come from
backpropagating through the solver steps, not an adjoint solve).
:func:`integrate` runs a single rank-1 state through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensorgrad as tg
from .tensorgrad import NonFiniteValue, Tensor

__all__ = [
    "SolverConfig",
    "TimeGrid",
    "IntegrationBlowUp",
    "integrate",
    "integrate_batch",
]

VectorField = Callable[[Tensor, float], Tensor]


class IntegrationBlowUp(ArithmeticError):
    """State became non-finite during integration; carries the time of blow-up.

    The batched solver also names the first batch row that blew up.
    """

    def __init__(self, t: float, row: int | None = None):
        where = "" if row is None else f" in batch row {row}"
        super().__init__(f"non-finite state at t={t!r}{where}")
        self.t = t
        self.row = row


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step solver settings.  Only RK4 is supported."""

    method: str = "rk4"
    step_size: float = 0.1

    def __post_init__(self):
        if self.method != "rk4":
            raise ValueError(f"unsupported method {self.method!r}")
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing observation/evaluation times."""

    times: np.ndarray

    def __init__(self, times):
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("TimeGrid needs at least one time")
        if arr.shape[0] > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("TimeGrid times must be strictly increasing")
        object.__setattr__(self, "times", arr)

    def __len__(self) -> int:
        return self.times.shape[0]


def integrate(
    field: VectorField,
    z0: Tensor,
    grid: TimeGrid | Sequence[float],
    cfg: SolverConfig,
) -> list[Tensor]:
    """States of ``dz/dt = field(z, t)`` at every grid time, for one rank-1 state.

    ``grid.times[0]`` is the time of ``z0``.  This is :func:`integrate_batch`
    on a batch of one: ``field`` sees the [p] state and a float time, and each
    returned state is a [p] tensor.
    """
    if not isinstance(grid, TimeGrid):
        grid = TimeGrid(grid)
    if z0.data.ndim != 1:
        raise ValueError(f"z0 must be rank 1, got shape {z0.shape}")
    p = z0.data.shape[0]

    def row_field(Z: Tensor, t_row: np.ndarray) -> Tensor:
        return tg.reshape(field(tg.reshape(Z, (p,)), float(t_row[0])), (1, p))

    states = integrate_batch(row_field, tg.reshape(z0, (1, p)), grid.times[None, :], cfg)
    return [z0] + [tg.reshape(z, (p,)) for z in states[1:]]


def integrate_batch(field, z0: Tensor, times: np.ndarray, cfg: SolverConfig) -> list[Tensor]:
    """Vectorized RK4 over a batch of trajectories with per-row time grids.

    ``z0`` is [B, p]; ``times`` is a [B, T] array, each row strictly
    increasing, with ``times[:, 0]`` the per-row time of the initial state.
    ``field(Z, t_row)`` maps a [B, p] state and a per-row time column to
    [B, p] derivatives.  Returns one [B, p] state tensor per grid column.

    Between grid times each row takes full steps of ``cfg.step_size`` and
    shortens its final partial step to land exactly on the next grid time.
    Rows advance in lockstep: a row that needs fewer steps in a segment is
    padded with zero-length steps, which leave its state bit-identical, so a
    row ends exactly where it would if run alone.  A non-finite state raises
    :class:`IntegrationBlowUp` naming the first failed row and its time.
    """
    times = np.asarray(times, dtype=np.float64)
    B, T = times.shape
    if z0.data.shape[0] != B:
        raise ValueError(f"z0 batch {z0.data.shape[0]} != times batch {B}")
    if T > 1 and not np.all(np.diff(times, axis=1) > 0):
        raise ValueError("each row of times must be strictly increasing")
    h = cfg.step_size

    states = [z0]
    z = z0
    for j in range(T - 1):
        t_lo = times[:, j]
        gap = times[:, j + 1] - t_lo
        n_full = np.floor(gap / h + 1e-12).astype(np.int64)
        rem = gap - n_full * h
        rem[rem <= 1e-12] = 0.0
        n_steps = int(np.max(n_full + (rem > 0)))
        for s in range(n_steps):
            h_row = np.where(s < n_full, h, np.where(s == n_full, rem, 0.0))
            t_row = t_lo + np.minimum(s, n_full) * h
            z = _batch_step(field, z, t_row, h_row)
        states.append(z)
    return states


def _rk4_batch(field, z: Tensor, t_row: np.ndarray, h_row: np.ndarray) -> Tensor:
    hcol = h_row[:, None]
    k1 = field(z, t_row)
    k2 = field(tg.add_scaled_rows(z, k1, hcol * 0.5), t_row + h_row * 0.5)
    k3 = field(tg.add_scaled_rows(z, k2, hcol * 0.5), t_row + h_row * 0.5)
    k4 = field(tg.add_scaled_rows(z, k3, hcol), t_row + h_row)
    return tg.rk4_combine(z, k1, k2, k3, k4, hcol)


def _batch_step(field, z: Tensor, t_row: np.ndarray, h_row: np.ndarray) -> Tensor:
    try:
        z_next = _rk4_batch(field, z, t_row, h_row)
    except NonFiniteValue as e:
        raise _blow_up(field, z, t_row, h_row) from e
    if not np.all(np.isfinite(z_next.data)):
        raise _blow_up(field, z, t_row, h_row)
    return z_next


def _blow_up(field, z: Tensor, t_row: np.ndarray, h_row: np.ndarray) -> IntegrationBlowUp:
    """The error for a failed step: its first non-finite row and that row's own time.

    Only the error path pays for this.  The step is replayed without
    per-primitive checks while every stage's input and output is kept; the
    reported row is the first one holding a non-finite entry in any of them,
    and its time is the end of its own step.
    """
    seen = []

    def recorded(Z: Tensor, t: np.ndarray) -> Tensor:
        out = field(Z, t)
        seen.extend((Z.data, out.data))
        return out

    with tg.finite_checks(False), np.errstate(all="ignore"):
        seen.append(_rk4_batch(recorded, z, t_row, h_row).data)
    row = int(np.argmin(np.all(np.isfinite(np.concatenate(seen, axis=1)), axis=1)))
    return IntegrationBlowUp(float(t_row[row] + h_row[row]), row=row)
