"""Ex-post Gaussian mixture over collected dynamics codes.

After training, per-trajectory posterior draws of the code are pooled into a
sample bank and a mixture is fit by expectation-maximization, with the number
of components and the covariance structure chosen by BIC.  The fitted mixture
is the sampler used for generation and the density used for likelihood-based
outlier scoring.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nets import encode_batch

__all__ = [
    "GMMModel",
    "GammaSampleBank",
    "SelectionRow",
    "COV_TYPES",
    "collect_gamma_samples",
    "em_fit",
    "bic",
    "select_model",
    "log_likelihood",
    "score_rows",
    "sample",
    "selection_table_csv",
]

log = logging.getLogger(__name__)

COV_TYPES = ("spherical", "tied", "diag", "full")
COV_FLOOR = 1e-6
LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GMMModel:
    """Mixture weights, means and covariances under one covariance structure.

    Covariance layout by type: spherical [K], diag [K, d], tied [d, d],
    full [K, d, d].
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    cov_type: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covariances = np.asarray(self.covariances, dtype=np.float64)
        if self.cov_type not in COV_TYPES:
            raise ValueError(f"unknown covariance type {self.cov_type!r}")
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights <= 0):
            raise ValueError("weights must be positive and sum to 1")
        if self.cov_type in ("spherical", "diag") and np.any(self.covariances < COV_FLOOR):
            raise ValueError(f"variances fall below the {COV_FLOOR} floor")
        if self.cov_type in ("tied", "full"):
            mats = self.covariances if self.cov_type == "full" else self.covariances[None]
            for c in mats:
                if np.any(np.diag(np.linalg.cholesky(c)) < COV_FLOOR):
                    raise ValueError("covariance Cholesky diagonal below floor")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass
class GammaSampleBank:
    """Pooled posterior draws, grouped by their source trajectory."""

    samples: np.ndarray
    provenance: np.ndarray
    n_gamma: int = 1

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.provenance = np.asarray(self.provenance, dtype=np.int64)
        if self.samples.ndim != 2 or self.samples.shape[0] != self.provenance.shape[0]:
            raise ValueError("samples and provenance must align")
        if self.n_gamma < 1:
            raise ValueError("n_gamma must be >= 1")

    @classmethod
    def from_array(cls, rows) -> "GammaSampleBank":
        rows = np.asarray(rows, dtype=np.float64)
        return cls(rows, np.arange(rows.shape[0]), n_gamma=1)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


def collect_gamma_samples(m, data, n_gamma: int, seed: int = 0, include_z0: bool = False) -> GammaSampleBank:
    """Reparameterized posterior draws of the code for every trajectory.

    With ``include_z0`` each row is the concatenation (z0 draw, gamma draw),
    for fitting a joint sampler used in fully unconditional generation.
    """
    if n_gamma < 1:
        raise ValueError("n_gamma must be >= 1")
    trajs = data.trajectories
    rng = np.random.default_rng(seed)

    q_gamma = encode_batch(m.enc_gamma, trajs, m.obs_scale)
    mu_g, sd_g = q_gamma.mean.data, np.exp(0.5 * q_gamma.log_var.data)
    if include_z0:
        q_z0 = encode_batch(m.enc_z0, trajs, m.obs_scale)
        mu_z, sd_z = q_z0.mean.data, np.exp(0.5 * q_z0.log_var.data)

    rows = []
    for j in range(len(trajs)):
        g = mu_g[j] + sd_g[j] * rng.standard_normal((n_gamma, m.d_gamma))
        if include_z0:
            z = mu_z[j] + sd_z[j] * rng.standard_normal((n_gamma, m.p))
            g = np.concatenate([z, g], axis=1)
        rows.append(g)
    samples = np.concatenate(rows, axis=0)
    provenance = np.repeat(np.arange(len(trajs)), n_gamma)
    return GammaSampleBank(samples, provenance, n_gamma=n_gamma)


# -- likelihood machinery -----------------------------------------------------------


def _component_log_prob(model: GMMModel, X: np.ndarray) -> np.ndarray:
    """log N(x_i | mu_k, Sigma_k) for every (i, k)."""
    n, d = X.shape
    K = model.n_components
    out = np.empty((n, K))
    ct = model.cov_type
    for k in range(K):
        diff = X - model.means[k]
        if ct == "spherical":
            var = model.covariances[k]
            maha = np.sum(diff * diff, axis=1) / var
            logdet = d * np.log(var)
        elif ct == "diag":
            var = model.covariances[k]
            maha = np.sum(diff * diff / var, axis=1)
            logdet = np.sum(np.log(var))
        else:
            cov = model.covariances if ct == "tied" else model.covariances[k]
            prec = np.linalg.inv(cov)
            maha = np.einsum("ij,jk,ik->i", diff, prec, diff)
            logdet = np.linalg.slogdet(cov)[1]
        out[:, k] = -0.5 * (d * LOG_2PI + logdet + maha)
    return out


def _logsumexp(a: np.ndarray, axis: int = 1) -> np.ndarray:
    hi = np.max(a, axis=axis, keepdims=True)
    return (hi + np.log(np.sum(np.exp(a - hi), axis=axis, keepdims=True))).squeeze(axis)


def score_rows(model: GMMModel, X: np.ndarray) -> np.ndarray:
    """Mixture log-density of each row of ``X``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _logsumexp(_component_log_prob(model, X) + np.log(model.weights))


def log_likelihood(model: GMMModel, point) -> float:
    """Mixture log-density at a single point (log-sum-exp, no underflow)."""
    point = np.asarray(point, dtype=np.float64).reshape(-1)
    if point.shape[0] != model.d:
        raise ValueError(f"point has dim {point.shape[0]}, model has {model.d}")
    return float(score_rows(model, point[None, :])[0])


# -- EM ------------------------------------------------------------------------------


def _kmeanspp_centers(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = np.sum((X - centers[0]) ** 2, axis=1)
    for k in range(1, K):
        total = closest.sum()
        if total <= 0:
            centers[k] = X[rng.integers(n)]
            continue
        centers[k] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((X - centers[k]) ** 2, axis=1))
    return centers


def _init_covariances(X: np.ndarray, K: int, cov_type: str) -> np.ndarray:
    d = X.shape[1]
    var = np.maximum(X.var(axis=0), COV_FLOOR)
    if cov_type == "spherical":
        return np.full(K, var.mean())
    if cov_type == "diag":
        return np.tile(var, (K, 1))
    base = np.cov(X.T).reshape(d, d) + COV_FLOOR * np.eye(d)
    if cov_type == "tied":
        return base
    return np.tile(base, (K, 1, 1))


def _m_step(X: np.ndarray, resp: np.ndarray, cov_type: str):
    n, d = X.shape
    nk = resp.sum(axis=0) + 10.0 * np.finfo(np.float64).eps
    weights = nk / n
    means = (resp.T @ X) / nk[:, None]
    K = resp.shape[1]
    if cov_type == "full":
        cov = np.empty((K, d, d))
        for k in range(K):
            diff = X - means[k]
            cov[k] = (resp[:, k] * diff.T) @ diff / nk[k]
            cov[k].flat[:: d + 1] += COV_FLOOR
    elif cov_type == "tied":
        cov = np.zeros((d, d))
        for k in range(K):
            diff = X - means[k]
            cov += (resp[:, k] * diff.T) @ diff
        cov /= n
        cov.flat[:: d + 1] += COV_FLOOR
    elif cov_type == "diag":
        cov = np.empty((K, d))
        for k in range(K):
            diff = X - means[k]
            cov[k] = np.maximum(resp[:, k] @ (diff * diff) / nk[k], COV_FLOOR)
    else:
        cov = np.empty(K)
        for k in range(K):
            diff = X - means[k]
            cov[k] = np.maximum((resp[:, k] @ np.sum(diff * diff, axis=1)) / (nk[k] * d), COV_FLOOR)
    return weights, means, cov


def _em_once(X, K, cov_type, rng, max_iter, tol):
    n = X.shape[0]
    weights = np.full(K, 1.0 / K)
    means = _kmeanspp_centers(X, K, rng)
    cov = _init_covariances(X, K, cov_type)
    model = GMMModel(weights, means, cov, cov_type)

    history = []
    prev = -np.inf
    for _ in range(max_iter):
        weighted = _component_log_prob(model, X) + np.log(model.weights)
        norm = _logsumexp(weighted)
        loglik = float(norm.sum())
        history.append(loglik)
        resp = np.exp(weighted - norm[:, None])

        empties = np.flatnonzero(resp.sum(axis=0) < 1e-10)
        if empties.size:
            worst = np.argsort(norm)[: empties.size]
            for k, i in zip(empties, worst):
                log.info("re-seeding empty component %d from worst-fit row %d", k, i)
                resp[i] = 0.0
                resp[i, k] = 1.0

        w, mu, cv = _m_step(X, resp, cov_type)
        model = GMMModel(w, mu, cv, cov_type)
        if loglik - prev < tol and np.isfinite(prev):
            break
        prev = loglik
    return model, history


def em_fit(
    bank: GammaSampleBank | np.ndarray,
    K: int,
    cov_type: str = "diag",
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-6,
    n_restarts: int = 3,
):
    """EM fit with k-means++ seeding; best of ``n_restarts`` runs is kept.

    Returns (model, loglik_history); the per-iteration total log-likelihood is
    nondecreasing within a run.
    """
    X = bank.samples if isinstance(bank, GammaSampleBank) else np.asarray(bank, dtype=np.float64)
    if K < 1:
        raise ValueError("K must be >= 1")
    if np.unique(X, axis=0).shape[0] < K:
        raise ValueError(f"need at least K={K} distinct rows, bank has fewer")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, n_restarts)):
        model, history = _em_once(X, K, cov_type, rng, max_iter, tol)
        if best is None or history[-1] > best[1][-1]:
            best = (model, history)
    return best


def bic(model: GMMModel, bank: GammaSampleBank | np.ndarray) -> float:
    """-2 * loglik + n_params * ln(n) for the fitted mixture on the bank."""
    X = bank.samples if isinstance(bank, GammaSampleBank) else np.asarray(bank, dtype=np.float64)
    n = X.shape[0]
    return float(-2.0 * score_rows(model, X).sum() + _n_params(model) * np.log(n))


def _n_params(model: GMMModel) -> int:
    K, d = model.n_components, model.d
    cov_params = {
        "spherical": K,
        "diag": K * d,
        "tied": d * (d + 1) // 2,
        "full": K * d * (d + 1) // 2,
    }[model.cov_type]
    return K * d + (K - 1) + cov_params


@dataclass
class SelectionRow:
    K: int
    cov_type: str
    loglik: float
    params: int
    bic: float
    selected: bool = False


def select_model(
    bank: GammaSampleBank | np.ndarray,
    component_range: Sequence[int],
    cov_types: Sequence[str] = COV_TYPES,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-6,
):
    """Fit every (K, cov_type) pair and keep the lowest-BIC model.

    Ties break toward fewer parameters, then the canonical covariance order
    (spherical, tied, diag, full).  Returns (best model, selection table).
    """
    X = bank.samples if isinstance(bank, GammaSampleBank) else np.asarray(bank, dtype=np.float64)
    if len(component_range) == 0 or len(cov_types) == 0:
        raise ValueError("component_range and cov_types must be non-empty")
    if max(component_range) > X.shape[0]:
        raise ValueError("every K must be <= number of bank rows")

    table: list[SelectionRow] = []
    fits: dict[tuple[int, str], GMMModel] = {}
    failures: list[str] = []
    for K in component_range:
        for ct in cov_types:
            rank = COV_TYPES.index(ct)
            # Child seed depends only on (seed, K, cov_type), not loop order.
            child_seed = seed * 1000003 + K * 101 + rank
            try:
                model, _ = em_fit(X, K, ct, seed=child_seed, max_iter=max_iter, tol=tol)
            except (ValueError, np.linalg.LinAlgError) as e:
                failures.append(f"K={K} {ct}: {e}")
                continue
            row = SelectionRow(K, ct, float(score_rows(model, X).sum()), _n_params(model), bic(model, X))
            table.append(row)
            fits[(K, ct)] = model
    if not table:
        raise RuntimeError("all mixture fits failed: " + "; ".join(failures))

    winner = min(table, key=lambda r: (r.bic, r.params, COV_TYPES.index(r.cov_type)))
    winner.selected = True
    return fits[(winner.K, winner.cov_type)], table


def selection_table_csv(table: Sequence[SelectionRow]) -> str:
    lines = ["K,cov_type,loglik,params,bic,selected"]
    for r in table:
        lines.append(f"{r.K},{r.cov_type},{r.loglik!r},{r.params},{r.bic!r},{int(r.selected)}")
    return "\n".join(lines) + "\n"


# -- sampling -----------------------------------------------------------------------


def sample(model: GMMModel, n: int, seed: int = 0) -> np.ndarray:
    """Ancestral sampling: component by weight, then its Gaussian."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    comps = rng.choice(model.n_components, size=n, p=model.weights)
    out = np.empty((n, model.d))
    for k in range(model.n_components):
        idx = np.flatnonzero(comps == k)
        if idx.size == 0:
            continue
        eps = rng.standard_normal((idx.size, model.d))
        ct = model.cov_type
        if ct == "spherical":
            out[idx] = model.means[k] + np.sqrt(model.covariances[k]) * eps
        elif ct == "diag":
            out[idx] = model.means[k] + np.sqrt(model.covariances[k]) * eps
        else:
            cov = model.covariances if ct == "tied" else model.covariances[k]
            L = np.linalg.cholesky(cov)
            out[idx] = model.means[k] + eps @ L.T
    return out
