"""Statistical inference on a trained model and its ex-post sampler.

Three ways to generate: draw a fresh code from the mixture, borrow the code of
an exemplar trajectory (transfer), or rejection-sample codes within a ball
around an exemplar's code.  On top of those sit empirical credible bands and a
likelihood-threshold outlier test.  Each generator decodes all of its draws in
one :func:`rollout` call, which runs them through the batched solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gmm as gmm_mod
from .model import FNODEModel, decode_path, reparameterize
from .nets import encode_batch, hypernet_map
from .tensorgrad import Tensor

__all__ = [
    "CredibleBand",
    "OODReport",
    "ZeroAcceptance",
    "rollout",
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

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of observations falling inside the band."""
        v = np.asarray(values, dtype=np.float64)
        return (v >= self.lower) & (v <= self.upper)


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


def rollout(m: FNODEModel, Z0: np.ndarray, G: np.ndarray, anchor_t: float, times) -> np.ndarray:
    """Decode (z0, code) pairs over ``times``; returns a [B, T, obs_dim] array.

    ``Z0`` is [B, p] and ``G`` is [B, d_gamma]; a single draw is a batch of
    one.  Rows go through the batched solver ``ROLLOUT_ROWS`` at a time.
    """
    times = np.asarray(times, dtype=np.float64)
    Z0 = np.asarray(Z0, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if Z0.ndim != 2 or G.ndim != 2 or Z0.shape[0] != G.shape[0]:
        raise ValueError(f"Z0 {Z0.shape} and G {G.shape} must be [B, p] and [B, d_gamma]")
    out = np.empty((Z0.shape[0], times.size, m.obs_dim))
    for lo in range(0, Z0.shape[0], ROLLOUT_ROWS):
        hi = min(lo + ROLLOUT_ROWS, Z0.shape[0])
        theta = hypernet_map(m.hyper, Tensor(G[lo:hi]))
        recon = decode_path(m, Tensor(Z0[lo:hi]), theta, anchor_t, times)
        out[lo:hi] = recon.data.reshape(times.size, hi - lo, m.obs_dim).transpose(1, 0, 2)
    return out


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
    q_gamma = encode_batch(m.enc_gamma, [x], m.obs_scale)
    mu_z, sd_z = q_z0.mean.data, np.exp(0.5 * q_z0.log_var.data)
    mu_g, sd_g = q_gamma.mean.data, np.exp(0.5 * q_gamma.log_var.data)
    anchor = float(np.asarray(x.times)[0])

    if source == "gmm":
        gammas = gmm_mod.sample(S, n_draws, seed=seed + 1)
        Z0 = mu_z + sd_z * rng.standard_normal((n_draws, m.p))
    else:
        # draw k takes its z0 noise, then its code noise, from the one stream
        noise = rng.standard_normal((n_draws, m.p + m.d_gamma))
        Z0 = mu_z + sd_z * noise[:, : m.p]
        gammas = mu_g + sd_g * noise[:, m.p :]
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
    joint = S.d == m.p + m.d_gamma
    trajs = data.trajectories
    q_gamma = encode_batch(m.enc_gamma, trajs, m.obs_scale)
    mu_g, sd_g = q_gamma.mean.data, np.exp(0.5 * q_gamma.log_var.data)
    if joint:
        q_z0 = encode_batch(m.enc_z0, trajs, m.obs_scale)
        mu_z, sd_z = q_z0.mean.data, np.exp(0.5 * q_z0.log_var.data)

    scores = np.empty(len(trajs))
    for j in range(len(trajs)):
        rng = np.random.default_rng(seed ^ j)
        draws = mu_g[j] + sd_g[j] * rng.standard_normal((n_gamma, m.d_gamma))
        if joint:
            zdraws = mu_z[j] + sd_z[j] * rng.standard_normal((n_gamma, m.p))
            draws = np.concatenate([zdraws, draws], axis=1)
        scores[j] = -gmm_mod.score_rows(S, draws).mean()
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
