"""Statistical inference on a trained model and its ex-post sampler.

Three ways to generate: draw a fresh code from the mixture, borrow the code of
an exemplar trajectory (transfer), or rejection-sample codes within a ball
around an exemplar's code.  On top of those sit empirical credible bands and a
likelihood-threshold outlier test.  Every readout that decodes, the generators,
the bands and :func:`reconstruct` alike, decodes all of its draws in one
:func:`rollout` call, which runs them through the batched solver.

Posterior draws of (z0, code) all come from ``GaussianParams.draw`` on noise
the caller drew.  The code bank that ``gmm`` fits the mixture on
(:func:`collect_gamma_samples`) and the draws the outlier score averages over
(:func:`ood_scores`) share one per-trajectory routine, and differ only in
their generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gmm as gmm_mod
from .model import FNODEModel, decode_path
from .nets import encode_batch, hypernet_map
from .tensorgrad import Tensor, no_record

__all__ = [
    "CredibleBand",
    "OODReport",
    "ZeroAcceptance",
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


def rollout(m: FNODEModel, Z0: np.ndarray, G: np.ndarray, anchor_t: float | None, times) -> np.ndarray:
    """Decode (z0, code) pairs over ``times``; returns a [B, T, obs_dim] array.

    ``Z0`` is [B, p] and ``G`` is [B, d_gamma]; a single draw is a batch of
    one.  ``times`` is a [T] grid that every row shares, with the initial
    states at ``anchor_t``, or a [B, T] grid of per-row times with
    ``anchor_t`` None, where each row starts at its own first time (see
    :func:`decode_path`).  Rows go through the batched solver
    ``ROLLOUT_ROWS`` at a time, under ``no_record``, which builds no graph.
    """
    times = np.asarray(times, dtype=np.float64)
    Z0 = np.asarray(Z0, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if Z0.ndim != 2 or G.ndim != 2 or Z0.shape[0] != G.shape[0]:
        raise ValueError(f"Z0 {Z0.shape} and G {G.shape} must be [B, p] and [B, d_gamma]")
    if times.ndim not in (1, 2) or times.ndim == 2 and times.shape[0] != Z0.shape[0]:
        raise ValueError(f"times {times.shape} must be a [T] grid or a [B, T] grid for B = {Z0.shape[0]}")
    out = np.empty((Z0.shape[0], times.shape[-1], m.obs_dim))
    with no_record():
        for lo in range(0, Z0.shape[0], ROLLOUT_ROWS):
            hi = min(lo + ROLLOUT_ROWS, Z0.shape[0])
            theta = hypernet_map(m.hyper, Tensor(G[lo:hi]))
            grid = times if times.ndim == 1 else times[lo:hi]
            recon = decode_path(m, Tensor(Z0[lo:hi]), theta, anchor_t, grid)
            out[lo:hi] = recon.data.reshape(-1, hi - lo, m.obs_dim).transpose(1, 0, 2)
    return out


def reconstruct(m: FNODEModel, x, times, use_posterior_mean: bool = True, seed: int = 0) -> np.ndarray:
    """Decoded trajectory of ``x`` as a [T, obs_dim] array, one row per time of ``times``.

    ``times`` may start before the first observation and extend past the
    data.  With ``use_posterior_mean`` the encoder means are used directly;
    otherwise one posterior draw of (z0, gamma) is taken from one
    (z0 noise | code noise) row of ``default_rng(seed)``.
    """
    q_z0 = encode_batch(m.enc_z0, [x], m.obs_scale)
    q_gamma = encode_batch(m.enc_gamma, [x], m.obs_scale)
    if use_posterior_mean:
        Z0, G = q_z0.mean.data, q_gamma.mean.data
    else:
        noise = np.random.default_rng(seed).standard_normal((1, m.p + m.d_gamma))
        Z0, G = q_z0.draw(noise[:, : m.p]), q_gamma.draw(noise[:, m.p :])
    return rollout(m, Z0, G, float(np.asarray(x.times)[0]), times)[0]


def _posterior_draws(m: FNODEModel, trajs, n: int, rngs, joint: bool) -> np.ndarray:
    """``n`` posterior draws of the code, or of (z0, code) when ``joint``, per trajectory.

    Returns [N, n, width].  Trajectory j takes its code noise, then (joint
    only) its z0 noise, from ``rngs[j]``; a joint row is (z0 draw | code draw).
    """
    noise_g, noise_z = [], []
    for rng in rngs:
        noise_g.append(rng.standard_normal((n, m.d_gamma)))
        if joint:
            noise_z.append(rng.standard_normal((n, m.p)))
    # [n, N, d] noise broadcasts against the [N, d] moments
    draws = encode_batch(m.enc_gamma, trajs, m.obs_scale).draw(np.stack(noise_g, axis=1))
    if joint:
        z0 = encode_batch(m.enc_z0, trajs, m.obs_scale).draw(np.stack(noise_z, axis=1))
        draws = np.concatenate([z0, draws], axis=2)
    return np.ascontiguousarray(draws.transpose(1, 0, 2))


def collect_gamma_samples(m: FNODEModel, data, n_gamma: int, seed: int = 0, include_z0: bool = False) -> np.ndarray:
    """Posterior draws of the code for every trajectory: the bank the mixture is fit on.

    Returns the [N * n_gamma, d] bank in data order: trajectory j's draws are
    ``bank[j * n_gamma : (j + 1) * n_gamma]``, all from one generator.  With
    ``include_z0`` each row is the concatenation (z0 draw, gamma draw), for
    fitting a joint sampler used in fully unconditional generation.
    """
    if n_gamma < 1:
        raise ValueError("n_gamma must be >= 1")
    trajs = data.trajectories
    draws = _posterior_draws(m, trajs, n_gamma, [np.random.default_rng(seed)] * len(trajs), include_z0)
    return draws.reshape(-1, draws.shape[2])


def _mean_z0(m: FNODEModel, traj) -> tuple[np.ndarray, float]:
    q = encode_batch(m.enc_z0, [traj], m.obs_scale)
    return q.mean.data[0], float(np.asarray(traj.times)[0])


def sample_trajectories(
    m: FNODEModel,
    S: gmm_mod.GMMModel,
    z0_source,
    times,
    n: int,
    seed: int = 0,
) -> list[np.ndarray]:
    """Decode ``n`` mixture draws from the initial state encoded off one trajectory.

    If ``S`` was fit jointly over (z0, code), each draw also supplies the
    initial state and ``z0_source`` only sets the anchor time.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    times = np.asarray(times, dtype=np.float64)
    z0_np, anchor = _mean_z0(m, z0_source)
    joint = S.d == m.p + m.d_gamma
    if not joint and S.d != m.d_gamma:
        raise ValueError(f"sampler dimension {S.d} matches neither the code nor (z0, code)")
    draws = gmm_mod.sample(S, n, seed=seed)
    if joint:
        Z0, G = draws[:, : m.p], draws[:, m.p :]
    else:
        Z0, G = np.tile(z0_np, (n, 1)), draws
    return list(rollout(m, Z0, G, anchor, times))


def transfer_trajectory(m: FNODEModel, z0_source, exemplar, times) -> np.ndarray:
    """Exemplar dynamics applied to the donor's initial state (deterministic)."""
    times = np.asarray(times, dtype=np.float64)
    z0_np, anchor = _mean_z0(m, z0_source)
    gamma = encode_batch(m.enc_gamma, [exemplar], m.obs_scale).mean.data
    return rollout(m, z0_np[None], gamma, anchor, times)[0]


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
    back when the acceptance region is hit rarely.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if S.d != m.d_gamma:
        raise ValueError("neighborhood sampling needs a code-space sampler")
    gamma_j = encode_batch(m.enc_gamma, [exemplar], m.obs_scale).mean.data[0]
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
    if times is None:
        times = np.asarray(exemplar.times, dtype=np.float64)
    else:
        times = np.asarray(times, dtype=np.float64)
    z0_np, anchor = _mean_z0(m, exemplar)
    paths = rollout(m, np.tile(z0_np, (len(codes), 1)), codes, anchor, times)
    return codes, list(paths)


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

    ``source="posterior"`` draws (z0, gamma) from the per-trajectory encoder
    posteriors; ``"gmm"`` keeps posterior z0 draws but takes codes from ``S``.
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

    q_z0 = encode_batch(m.enc_z0, [x], m.obs_scale)
    anchor = float(np.asarray(x.times)[0])

    if source == "gmm":
        gammas = gmm_mod.sample(S, n_draws, seed=seed + 1)
        Z0 = q_z0.draw(rng.standard_normal((n_draws, m.p)))
    else:
        # draw k takes its z0 noise, then its code noise, from the one stream
        noise = rng.standard_normal((n_draws, m.p + m.d_gamma))
        Z0 = q_z0.draw(noise[:, : m.p])
        gammas = encode_batch(m.enc_gamma, [x], m.obs_scale).draw(noise[:, m.p :])
    draws = rollout(m, Z0, gammas, anchor, times)

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
    order-independent and parallelizable.
    """
    if n_gamma < 1:
        raise ValueError(f"n_gamma must be >= 1, got {n_gamma}")
    trajs = data.trajectories
    rngs = [np.random.default_rng(seed ^ j) for j in range(len(trajs))]
    draws = _posterior_draws(m, trajs, n_gamma, rngs, joint=S.d == m.p + m.d_gamma)
    return np.array([-gmm_mod.score_rows(S, block).mean() for block in draws])


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
