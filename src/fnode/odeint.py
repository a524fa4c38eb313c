"""Fixed-step Runge-Kutta-4 integration of a batch of latent states.

The one solver, :func:`integrate_batch`, advances a [B, p] state over per-row
time grids.  Each row runs in the direction of its own grid, forward in time
on an increasing row and backward on a decreasing one: its steps carry the
row's sign.  Each row follows its own step schedule (full steps of the step
size, then one partial step onto each grid time), and the batch takes the
k-th step of every row's schedule together; a row whose schedule has ended
takes zero-length steps, which leave its state unchanged bit for bit.  So the
batch costs as many steps as its longest row, and every row's states, and the
gradient that reaches its initial state, are those of the row solved alone.
The vector field is any callable built from taped primitives, so the
returned states stay differentiable with respect to the initial state and
whatever parameters the field closes over (gradients come from
backpropagating through the solver steps, not an adjoint solve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensorgrad as tg
from .tensorgrad import Tensor

__all__ = [
    "SolverConfig",
    "IntegrationBlowUp",
    "integrate_batch",
    "MAX_STEPS",
]

# The most steps one row's schedule may take.  A solve of K steps keeps K + 1
# [B, p] states and six [B, K] arrays of step table: at K = 100,000 a 32-row
# batch at p = 8 holds 205 MB of states and 154 MB of table, before any tape.
MAX_STEPS = 100_000


class IntegrationBlowUp(ArithmeticError):
    """State became non-finite during integration; carries the time of blow-up and the first row that blew up."""

    def __init__(self, t: float, row: int):
        super().__init__(f"non-finite state at t={t!r} in batch row {row}")
        self.t = t
        self.row = row


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the one solver, fixed-step RK4."""

    step_size: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be finite and positive, got {self.step_size!r}")


def integrate_batch(field, z0: Tensor, times: np.ndarray, cfg: SolverConfig) -> list[Tensor]:
    """Vectorized RK4 over a batch of trajectories with per-row time grids.

    ``z0`` is [B, p]; ``times`` is a [B, T] array, each row strictly
    increasing or strictly decreasing, with ``times[:, 0]`` the per-row time
    of the initial state.
    ``field(Z, t_row)`` maps a [B, p] state and a per-row time column to
    [B, p] derivatives.  Returns one [B, p] state tensor per grid column.

    Each row follows its own schedule: for each segment between grid times in
    turn, full steps of ``cfg.step_size`` and then one partial step that lands
    exactly on the next grid time, each step carrying the row's sign (an
    increasing row's steps are multiplied by +1.0, which changes no bit).  The
    batch's k-th step is the k-th step of every row's schedule, so it takes as
    many steps as its longest schedule; a row whose schedule has ended takes
    zero-length steps, which leave its state bit-identical, so a row ends
    exactly where it would if run alone.
    A row's state at grid time j + 1 is the one after its own steps through
    segment j, picked from the step path with :func:`tensorgrad.pick_rows`.
    A non-finite state raises :class:`IntegrationBlowUp` at the earliest
    failing step, naming the first row that failed in that step and the end
    of that row's own step as the time.  A grid on which some row would take
    more than :data:`MAX_STEPS` steps raises ``ValueError`` before any step.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 2 or times.shape[1] < 1:
        raise ValueError(f"times must be a [B, T] array with T >= 1, got shape {times.shape}")
    B, T = times.shape
    if z0.data.shape[0] != B:
        raise ValueError(f"z0 batch {z0.data.shape[0]} != times batch {B}")
    h = cfg.step_size
    # Per-segment schedule: n_full full steps, then a partial step of rem.  The
    # counts stay float64 until they are checked: a gap or a count too large
    # for the int64 cast, or for float64 (inf), is refused, not wrapped.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.diff(times, axis=1)
        sign = np.where(diff[:, :1] < 0, -1.0, 1.0)  # [B, 1]: the direction of each row
        gap = diff * sign
        if not np.all(gap > 0):
            raise ValueError("each row of times must be strictly increasing or strictly decreasing")
        if T == 1:
            return [z0]
        n_full = np.floor(gap / h + 1e-12)
        rem = gap - n_full * h
        rem[rem <= 1e-12] = 0.0
        need = (n_full + (rem > 0)).sum(axis=1).max()
    if not need <= MAX_STEPS:
        raise ValueError(f"a row of the time grid needs {need:.4g} steps of size {h!r}, over the limit of {MAX_STEPS}")
    t_lo = times[:, :-1]
    n_full = n_full.astype(np.int64)
    steps = n_full + (rem > 0)
    ends = np.cumsum(steps, axis=1)  # [B, T-1]: a row's steps through each segment
    K = int(ends[:, -1].max())

    # Step table [B, K]: seg is the segment of each row's k-th step (the number
    # of its segments that end at or before step k), s the step within it.
    # A row past its last step stays in its last segment, where s runs past
    # the schedule and the step length is 0.
    rows = np.arange(B)[:, None]
    done = np.bincount((ends + rows * (K + 1)).ravel(), minlength=B * (K + 1))
    seg = np.minimum(np.cumsum(done.reshape(B, K + 1), axis=1)[:, :K], T - 2)
    s = np.arange(K) - (ends - steps)[rows, seg]
    nf = n_full[rows, seg]
    t_tab = t_lo[rows, seg] + np.minimum(s, nf) * h * sign
    h_tab = np.where(s < nf, h, np.where(s == nf, rem[rows, seg], 0.0)) * sign

    path = [z0]
    for k in range(K):
        path.append(_batch_step(field, path[-1], t_tab[:, k], h_tab[:, k]))
    return [z0] + [tg.pick_rows(path, ends[:, j]) for j in range(T - 1)]


def _batch_step(field, z: Tensor, t_row: np.ndarray, h_row: np.ndarray) -> Tensor:
    # Stages act row by row and rk4_combine adds each into its own row, so one
    # check of the result finds the first row with a non-finite stage (a
    # finished row's zero-length step turns inf into NaN).
    hcol = h_row[:, None]
    with tg.finite_checks(False), np.errstate(all="ignore"):
        k1 = field(z, t_row)
        k2 = field(tg.add_scaled_rows(z, k1, hcol * 0.5), t_row + h_row * 0.5)
        k3 = field(tg.add_scaled_rows(z, k2, hcol * 0.5), t_row + h_row * 0.5)
        k4 = field(tg.add_scaled_rows(z, k3, hcol), t_row + h_row)
        z_next = tg.rk4_combine(z, k1, k2, k3, k4, hcol)
    bad = ~np.all(np.isfinite(z_next.data), axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise IntegrationBlowUp(float(t_row[row] + h_row[row]), row=row)
    return z_next
