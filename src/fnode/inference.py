"""Statistical inference on a trained model and its ex-post sampler.

Three ways to generate: draw a fresh code from the mixture, borrow the code of
an exemplar trajectory (transfer), or rejection-sample codes within a ball
around an exemplar's code.  On top of those sit empirical credible bands and a
likelihood-threshold outlier test.

A trajectory's latent point is one row (z0 | code).  :func:`posterior` is the
one untaped encoder, and each readout calls it once, on every trajectory it
reads, in one batch.  :func:`posterior_draws` is the one posterior draw,
``mean + std * noise`` with each trajectory's noise from its own generator,
taken on the column block the readout needs: whole rows, the code or z0.
Every readout that decodes, the generators, the bands and :func:`reconstruct`
alike, decodes all of its rows in one :func:`rollout` call, which runs them
through the batched solver; :func:`rollout` is also the one place that knows
an anchor time, the time a shared grid's initial states sit at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gmm as gmm_mod
from .model import FNODEModel, decode_path
from .nets import batch_features, encode_features, hypernet_map
from .tensorgrad import NonFiniteValue, Tensor, no_record

__all__ = [
    "CredibleBand",
    "OODReport",
    "ZeroAcceptance",
    "posterior",
    "posterior_draws",
    "collect_gamma_samples",
    "rollout",
    "reconstruct",
    "sample_trajectories",
    "transfer_trajectory",
    "neighborhood_sample",
    "credible_band",
    "ood_calibrate",
    "ood_test",
    "ood_scores",
    "class_flag_proportions",
]


class ZeroAcceptance(RuntimeError):
    """Rejection sampler accepted nothing within the attempt budget."""


@dataclass
class CredibleBand:
    """Empirical pointwise band over decoded trajectories."""

    times: np.ndarray
    lower: np.ndarray
    mean: np.ndarray
    upper: np.ndarray
    level: float = 0.95
    n_draws: int = 0

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        eps = 1e-12
        if np.any(self.lower > self.mean + eps) or np.any(self.mean > self.upper + eps):
            raise ValueError("band must satisfy lower <= mean <= upper")


@dataclass
class OODReport:
    """Outlier decision for one trajectory: flagged iff nll > threshold."""

    index: int
    nll: float
    threshold: float
    flagged: bool
    label: int | None = None


# Rows per batched solver call: bounds the memory of a rollout for any draw count.
ROLLOUT_ROWS = 256


def posterior(m: FNODEModel, trajs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (mean, std) of the latent rows of equal-length trajectories.

    Both are [B, p + d_gamma] arrays whose columns are (z0 | code); a single
    trajectory is a batch of one.  Both encoders run untaped on features built
    once; ``std`` is ``exp(log_var / 2)``.
    """
    feats = batch_features(trajs, m.obs_scale)
    with no_record():
        q_z0, q_gamma = encode_features(m.enc_z0, feats), encode_features(m.enc_gamma, feats)
    mean = np.concatenate([q_z0.mean.data, q_gamma.mean.data], axis=1)
    std = np.exp(0.5 * np.concatenate([q_z0.log_var.data, q_gamma.log_var.data], axis=1))
    return mean, std


def posterior_draws(mean: np.ndarray, std: np.ndarray, n: int, rngs) -> np.ndarray:
    """``n`` draws ``mean + std * noise`` for each row of [N, width] posterior moments; returns [N, n, width].

    Row j's noise is ``rngs[j].standard_normal((n, width))``, drawn in row
    order, so one generator repeated N times gives one stream in data order.
    """
    noise = np.stack([rng.standard_normal((n, mean.shape[1])) for rng in rngs])
    return mean[:, None] + std[:, None] * noise


def _check_latents(m: FNODEModel, shape: tuple) -> None:
    if len(shape) != 2 or shape[1] != m.p + m.d_gamma:
        raise ValueError(f"latents {shape} must be [B, p + d_gamma] = [B, {m.p + m.d_gamma}]")


def rollout(m: FNODEModel, latents: np.ndarray, anchor_t: float | None, times) -> np.ndarray:
    """Decode latent rows (z0 | code) over ``times``; returns a [B, T, obs_dim] array.

    ``latents`` is [B, p + d_gamma]; a single draw is a batch of one.
    ``times`` is a strictly increasing [T] grid that every row shares, with
    the initial states at the finite time ``anchor_t``, or a [B, T] grid of
    per-row times with ``anchor_t`` None, where each row starts at its own
    first time.  A shared grid is decoded in two legs of per-row grids, each
    through :func:`model.decode_path` and straight into the result: a
    backward leg from the anchor down through the earlier times, and a
    forward leg through the rest, from the anchor unless the first of them
    is within 1e-12 of it.  Rows go through the batched solver
    ``ROLLOUT_ROWS`` at a time, under ``no_record``, which builds no graph.
    """
    times = np.asarray(times, dtype=np.float64)
    latents = np.asarray(latents, dtype=np.float64)
    _check_latents(m, latents.shape)
    B = latents.shape[0]
    if times.ndim not in (1, 2) or times.ndim == 2 and times.shape[0] != B:
        raise ValueError(f"times {times.shape} must be a [T] grid or a [B, T] grid for B = {B}")
    if (times.ndim == 1) != (anchor_t is not None):
        raise ValueError("times must be a [T] grid with an anchor time or a [B, T] grid without one")
    # legs of (grid, the columns of the result it fills, the leading states it drops)
    legs = [(times, slice(None), 0)]
    if times.ndim == 1:
        if not math.isfinite(anchor_t):
            raise ValueError(f"the anchor time must be finite, got {anchor_t!r}")
        if times.size < 1 or np.any(times[1:] <= times[:-1]):
            raise ValueError("a shared grid must be non-empty and strictly increasing")
        n_before = int(np.sum(times < anchor_t - 1e-12))
        legs = []
        if n_before:  # the anchor, then the earlier times in descending order
            legs.append((np.concatenate([[anchor_t], times[n_before - 1 :: -1]]), slice(n_before - 1, None, -1), 1))
        if n_before < times.size:  # the later times, from the anchor unless it is the first of them
            drop = int(abs(times[n_before] - anchor_t) > 1e-12)
            legs.append((np.concatenate([[anchor_t][:drop], times[n_before:]]), slice(n_before, None), drop))
    out = np.empty((B, times.shape[-1], m.obs_dim))
    with no_record():
        for lo in range(0, B, ROLLOUT_ROWS):
            hi = min(lo + ROLLOUT_ROWS, B)
            z0 = Tensor(latents[lo:hi, : m.p])
            theta = hypernet_map(m.hyper, Tensor(latents[lo:hi, m.p :]))
            for grid, cols, drop in legs:
                rows = grid[lo:hi] if grid.ndim == 2 else np.broadcast_to(grid, (hi - lo, grid.size))
                recon = decode_path(m, z0, theta, rows).data.reshape(-1, hi - lo, m.obs_dim)
                out[lo:hi, cols] = recon[drop:].transpose(1, 0, 2)
    return out


def reconstruct(m: FNODEModel, x, times, use_posterior_mean: bool = True, seed: int = 0) -> np.ndarray:
    """Decoded trajectory of ``x`` as a [T, obs_dim] array, one row per time of ``times``.

    ``times`` may start before the first observation and extend past the
    data.  With ``use_posterior_mean`` the encoder means are used directly;
    otherwise one posterior draw of (z0 | code) is taken on one noise row of
    ``default_rng(seed)``.
    """
    mean, std = posterior(m, [x])
    latents = mean if use_posterior_mean else posterior_draws(mean, std, 1, [np.random.default_rng(seed)])[0]
    return rollout(m, latents, float(np.asarray(x.times)[0]), times)[0]


def collect_gamma_samples(m: FNODEModel, data, n_gamma: int, seed: int = 0, include_z0: bool = False) -> np.ndarray:
    """Posterior draws of the code for every trajectory: the bank the mixture is fit on.

    Returns the [N * n_gamma, d] bank in data order: trajectory j's draws are
    ``bank[j * n_gamma : (j + 1) * n_gamma]``, all from one generator.  With
    ``include_z0`` each row is a whole latent row (z0 | code), drawn on one
    noise row, for fitting a joint sampler used in fully unconditional
    generation.
    """
    if n_gamma < 1:
        raise ValueError("n_gamma must be >= 1")
    mean, std = posterior(m, data.trajectories)
    cols = slice(0 if include_z0 else m.p, None)
    draws = posterior_draws(mean[:, cols], std[:, cols], n_gamma, [np.random.default_rng(seed)] * len(mean))
    return draws.reshape(-1, draws.shape[2])


def sample_trajectories(
    m: FNODEModel,
    S: gmm_mod.GMMModel,
    z0_source,
    times,
    n: int,
    seed: int = 0,
) -> list[np.ndarray]:
    """Decode ``n`` mixture draws from the initial state encoded off one trajectory.

    If ``S`` was fit jointly over (z0 | code), each draw is a whole latent
    row and ``z0_source`` only sets the anchor time.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    latents = gmm_mod.sample(S, n, seed=seed)
    if S.d != m.p + m.d_gamma:  # codes only: pair each with the posterior-mean z0
        z0 = posterior(m, [z0_source])[0][:, : m.p]
        latents = np.hstack([np.repeat(z0, n, axis=0), latents])
    return list(rollout(m, latents, float(np.asarray(z0_source.times)[0]), times))


def transfer_trajectory(m: FNODEModel, z0_source, exemplar, times) -> np.ndarray:
    """Exemplar dynamics applied to the donor's initial state (deterministic).

    Both are encoded in one batch; the latent row pairs the donor's
    posterior-mean z0 with the exemplar's posterior-mean code.
    """
    mean = posterior(m, [z0_source, exemplar])[0]
    latents = np.hstack([mean[:1, : m.p], mean[1:, m.p :]])
    return rollout(m, latents, float(np.asarray(z0_source.times)[0]), times)[0]


def neighborhood_sample(
    m: FNODEModel,
    S: gmm_mod.GMMModel,
    exemplar,
    delta: float,
    n: int,
    max_attempts: int = 10000,
    seed: int = 0,
    times=None,
):
    """Mixture draws within Euclidean distance ``delta`` of the exemplar's code.

    Returns (accepted codes, decoded trajectories); fewer than ``n`` rows come
    back when the acceptance region is hit rarely.  Each accepted code is
    decoded from the exemplar's posterior-mean z0, at its first time.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if S.d != m.d_gamma:
        raise ValueError("neighborhood sampling needs a code-space sampler")
    z0, gamma_j = np.split(posterior(m, [exemplar])[0], [m.p], axis=1)
    rng_seq = seed
    accepted = []
    attempts = 0
    chunk = 256
    while len(accepted) < n and attempts < max_attempts:
        take = min(chunk, max_attempts - attempts)
        draws = gmm_mod.sample(S, take, seed=rng_seq)
        rng_seq += 1
        attempts += take
        dist = np.linalg.norm(draws - gamma_j, axis=1)
        accepted.extend(draws[dist <= delta][: n - len(accepted)])
    if not accepted:
        raise ZeroAcceptance(
            f"no draws within delta={delta} of the exemplar code after {attempts} attempts "
            f"(acceptance rate < {1.0 / attempts:.2e})"
        )
    codes = np.stack(accepted)
    times = exemplar.times if times is None else times
    latents = np.hstack([np.repeat(z0, len(codes), axis=0), codes])
    return codes, list(rollout(m, latents, float(np.asarray(exemplar.times)[0]), times))


def credible_band(
    m: FNODEModel,
    S: gmm_mod.GMMModel | None,
    x,
    times,
    n_draws: int = 200,
    level: float = 0.95,
    seed: int = 0,
    source: str = "posterior",
) -> CredibleBand:
    """Pointwise empirical band over decoded draws for one trajectory.

    ``source="posterior"`` draws latent rows (z0 | code) from the trajectory's
    posterior.  ``"gmm"`` takes codes from ``S`` and posterior z0 draws; a
    sampler fit jointly over (z0 | code) supplies whole rows instead.
    """
    if n_draws < 20:
        raise ValueError("n_draws must be >= 20")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if source not in ("posterior", "gmm"):
        raise ValueError(f"unknown draw source {source!r}")
    if source == "gmm" and S is None:
        raise ValueError("gmm source needs a fitted sampler")
    times = np.asarray(times, dtype=np.float64)
    rng = np.random.default_rng(seed)
    mean, std = posterior(m, [x])

    if source == "posterior":
        latents = posterior_draws(mean, std, n_draws, [rng])[0]
    else:
        latents = gmm_mod.sample(S, n_draws, seed=seed + 1)
        if S.d != m.p + m.d_gamma:  # codes only: pair them with posterior z0 draws
            z0 = posterior_draws(mean[:, : m.p], std[:, : m.p], n_draws, [rng])[0]
            latents = np.concatenate([z0, latents], axis=1)
    draws = rollout(m, latents, float(np.asarray(x.times)[0]), times)

    lo_q, hi_q = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    return CredibleBand(
        times=times,
        lower=np.quantile(draws, lo_q, axis=0),
        mean=draws.mean(axis=0),
        upper=np.quantile(draws, hi_q, axis=0),
        level=level,
        n_draws=n_draws,
    )


# -- out-of-distribution test ----------------------------------------------------------


def ood_scores(m: FNODEModel, S: gmm_mod.GMMModel, data, n_gamma: int = 16, seed: int = 0) -> np.ndarray:
    """Per-trajectory score: mean negative log-likelihood of posterior code draws.

    Per-trajectory generators are seeded as seed XOR index, so scoring is
    order-independent and parallelizable.  A non-finite score raises
    :class:`NonFiniteValue`, since no threshold can be compared with it.
    """
    if n_gamma < 1:
        raise ValueError(f"n_gamma must be >= 1, got {n_gamma}")
    joint = S.d == m.p + m.d_gamma
    # the latent rows a code-only sampler's draws would make, checked as rollout checks them
    _check_latents(m, (n_gamma, S.d if joint else m.p + S.d))
    mean, std = posterior(m, data.trajectories)
    cols = slice(0 if joint else m.p, None)
    rngs = [np.random.default_rng(seed ^ j) for j in range(len(mean))]
    draws = posterior_draws(mean[:, cols], std[:, cols], n_gamma, rngs)
    scores = -gmm_mod.score_rows(S, draws.reshape(-1, draws.shape[-1])).reshape(draws.shape[:2]).mean(axis=1)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        j = bad[0]
        raise NonFiniteValue(f"non-finite OOD score {scores[j]} for trajectory {j}: its draws overflow the density")
    return scores


def ood_calibrate(
    m: FNODEModel,
    S: gmm_mod.GMMModel,
    train_data,
    n_gamma: int = 16,
    quantile: float = 0.95,
    seed: int = 0,
) -> float:
    """Threshold = the ceil(q*N)-th order statistic of the training scores."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must lie in (0, 1]")
    scores = np.sort(ood_scores(m, S, train_data, n_gamma, seed))
    k = math.ceil(quantile * scores.size)
    return float(scores[k - 1])


def ood_test(
    m: FNODEModel,
    S: gmm_mod.GMMModel,
    threshold: float,
    test_data,
    n_gamma: int = 16,
    seed: int = 0,
) -> list[OODReport]:
    """Score each test trajectory and flag those above the threshold."""
    scores = ood_scores(m, S, test_data, n_gamma, seed)
    labels = test_data.labels()
    return [
        OODReport(index=j, nll=float(s), threshold=threshold, flagged=bool(s > threshold), label=labels[j])
        for j, s in enumerate(scores)
    ]


def class_flag_proportions(reports: Sequence[OODReport]) -> dict[int, float]:
    """Fraction flagged per label, for reports that carry labels."""
    by_label: dict[int, list[bool]] = {}
    for r in reports:
        if r.label is not None:
            by_label.setdefault(r.label, []).append(r.flagged)
    return {lab: float(np.mean(flags)) for lab, flags in sorted(by_label.items())}
