"""Ex-post Gaussian mixture over collected dynamics codes.

After training, per-trajectory posterior draws of the code are pooled into an
[n, d] sample bank (drawn by ``inference.collect_gamma_samples``) and a
mixture is fit by expectation-maximization, with the number of components and
the covariance structure chosen by BIC.  The fitted mixture is the sampler
used for generation and the density used for likelihood-based outlier
scoring.  This module knows only arrays, not the model.

Components are scored together, component-major: each covariance is factored
once per EM step, log-densities and responsibilities are [K, n] (numpy
reduces a short contiguous axis, such as K of [n, K], many times slower),
and the M-step is one product per moment.  EM carries raw arrays; a
:class:`GMMModel`, whose constructor checks shapes, weights and floors, is
built once per restart.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GMMModel",
    "SelectionRow",
    "COV_TYPES",
    "em_fit",
    "select_model",
    "score_rows",
    "sample",
    "selection_table_csv",
]

log = logging.getLogger(__name__)

COV_TYPES = ("spherical", "tied", "diag", "full")
COV_FLOOR = 1e-6
# EM runs per fit; the one with the highest final log-likelihood is kept
N_RESTARTS = 3
LOG_2PI = np.log(2.0 * np.pi)
EXP_FLOOR = -700.0


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
        if self.means.ndim != 2:
            raise ValueError(f"means must be [K, d], got shape {list(self.means.shape)}")
        K, d = self.means.shape
        layout = {"spherical": (K,), "diag": (K, d), "tied": (d, d), "full": (K, d, d)}[self.cov_type]
        if self.weights.shape != (K,) or self.covariances.shape != layout:
            raise ValueError(
                f"{self.cov_type} mixture with means {list(self.means.shape)} needs weights {[K]} and "
                f"covariances {list(layout)}, got {list(self.weights.shape)} and {list(self.covariances.shape)}"
            )
        for name in ("weights", "means", "covariances"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"mixture {name} hold non-finite entries")
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights <= 0):
            raise ValueError("weights must be positive and sum to 1")
        if self.cov_type in ("spherical", "diag") and np.any(self.covariances < COV_FLOOR):
            raise ValueError(f"variances fall below the {COV_FLOOR} floor")
        if self.cov_type in ("tied", "full"):
            L = np.linalg.cholesky(self.covariances)
            if np.any(np.diagonal(L, axis1=-2, axis2=-1) < COV_FLOOR):
                raise ValueError("covariance Cholesky diagonal below floor")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


# -- likelihood machinery -----------------------------------------------------------


def _weighted_log_prob(X, weights, means, cov, cov_type: str) -> np.ndarray:
    """log w_k + log N(x_i | mu_k, Sigma_k) as a [K, n] array, all components at once.

    Component-major, so the reductions over components that follow (the
    log-sum-exp, EM's masses) run along the long contiguous axis.  Each
    covariance is factored once and the Mahalanobis distances come from a few
    matrix products, as in scikit-learn's ``GaussianMixture``.  Rows and means
    are first shifted by the mean of the means, so the expanded quadratics do
    not cancel far from the origin.  A non-positive-definite covariance raises
    ``LinAlgError``.
    """
    (n, d), K = X.shape, means.shape[0]
    centre = means.mean(axis=0)
    X, means = X - centre, means - centre
    if cov_type in ("spherical", "diag"):
        # |x - mu|^2 / var summed over dims = p . x^2 - 2 (mu p) . x + mu^2 . p, with p = 1 / var
        prec = np.broadcast_to(1.0 / (cov[:, None] if cov_type == "spherical" else cov), (K, d))
        maha = prec @ (X * X).T - 2.0 * ((means * prec) @ X.T) + np.sum(means * means * prec, axis=1)[:, None]
        half_logdet = -0.5 * np.sum(np.log(prec), axis=1)
    else:
        # Sigma = L L^T, so the distance is |L^-1 (x - mu)|^2
        L = np.linalg.cholesky(cov)
        Linv = np.linalg.solve(L, np.broadcast_to(np.eye(d), L.shape))
        half_logdet = np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
        if cov_type == "tied":
            Y, Ym = Linv @ X.T, means @ Linv.T
            maha = np.sum(Y * Y, axis=0) - 2.0 * (Ym @ Y) + np.sum(Ym * Ym, axis=1)[:, None]
        else:
            # one [K*d, d] @ [d, n] product for all factors, then per-component sums of
            # squares; in place, as each fresh [K*d, n] temporary costs page faults
            Y = Linv.reshape(K * d, d) @ X.T
            Y -= (Linv @ means[:, :, None]).reshape(K * d, 1)
            Y *= Y
            maha = Y.reshape(K, d, n).sum(axis=1)
    return np.log(weights)[:, None] - 0.5 * (d * LOG_2PI + maha) - np.reshape(half_logdet, (-1, 1))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log of the sum over axis 0 (the components) of exp(a)."""
    hi = np.max(a, axis=0)
    # terms below e^-700 cannot move a sum that holds exp(0), and subnormal ones slow exp several-fold
    return hi + np.log(np.sum(np.exp(np.maximum(a - hi, EXP_FLOOR)), axis=0))


def score_rows(model: GMMModel, X: np.ndarray) -> np.ndarray:
    """Mixture log-density of each row of ``X``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _logsumexp(_weighted_log_prob(X, model.weights, model.means, model.covariances, model.cov_type))


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
    return base if cov_type == "tied" else np.tile(base, (K, 1, 1))


def _m_step(X: np.ndarray, XX: np.ndarray, resp: np.ndarray, mass: np.ndarray, cov_type: str):
    """Weights, means and floored covariances from [K, n] responsibilities and their [K] masses.

    ``XX`` holds the rows' second moments: flattened outer products for full, squares otherwise.
    """
    n, d = X.shape
    nk = mass + 10.0 * np.finfo(np.float64).eps
    means = (resp @ X) / nk[:, None]
    if cov_type == "full":
        cov = (resp @ XX / nk[:, None]).reshape(len(nk), d, d) - means[:, :, None] * means[:, None, :]
        cov[:, np.arange(d), np.arange(d)] += COV_FLOOR
    elif cov_type == "tied":
        cov = (X.T @ X - (nk * means.T) @ means) / n
        cov.flat[:: d + 1] += COV_FLOOR
    else:
        var = resp @ XX / nk[:, None] - means * means
        cov = np.maximum(var if cov_type == "diag" else var.mean(axis=1), COV_FLOOR)
    return nk / n, means, cov


def _em_once(X, XX, K, cov_type, rng, max_iter, tol):
    """One EM run on centred rows: (weights, means, covariances) and the log-likelihood history."""
    weights, means, cov = np.full(K, 1.0 / K), _kmeanspp_centers(X, K, rng), _init_covariances(X, K, cov_type)
    history = []
    for _ in range(max_iter):
        weighted = _weighted_log_prob(X, weights, means, cov, cov_type)
        norm = _logsumexp(weighted)
        loglik = float(norm.sum())
        history.append(loglik)
        # zero responsibilities below e^-700: they cannot move EM's sums, and subnormal ones slow the products
        resp = weighted - norm
        np.putmask(resp, resp < EXP_FLOOR, -np.inf)
        np.exp(resp, out=resp)
        mass = resp.sum(axis=1)
        empties = np.flatnonzero(mass < 1e-10)
        if empties.size:
            worst = np.argsort(norm)[: empties.size]
            for k, i in zip(empties, worst):
                log.info("re-seeding empty component %d from worst-fit row %d", k, i)
                resp[:, i] = 0.0
                resp[k, i] = 1.0
            mass = resp.sum(axis=1)

        weights, means, cov = _m_step(X, XX, resp, mass, cov_type)
        if len(history) > 1 and loglik - history[-2] < tol:
            break
    return (weights, means, cov), history


def _as_bank(bank) -> np.ndarray:
    X = np.asarray(bank, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"bank must be [n, d], got shape {list(X.shape)}")
    return X


def em_fit(bank: np.ndarray, K: int, cov_type: str = "diag", seed: int = 0, max_iter: int = 200, tol: float = 1e-6):
    """EM fit of an [n, d] bank with k-means++ seeding; best of ``N_RESTARTS`` runs is kept.

    Returns (model, loglik_history); the per-iteration total log-likelihood is
    nondecreasing within a run.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    X = _as_bank(bank)
    if K < 1:
        raise ValueError("K must be >= 1")
    if np.unique(X, axis=0).shape[0] < K:
        raise ValueError(f"need at least K={K} distinct rows, bank has fewer")
    # Every restart fits the same centred rows, so the M-step's expanded second moments do not cancel.
    shift = X.mean(axis=0)
    X = X - shift
    XX = (X[:, :, None] * X[:, None, :]).reshape(len(X), X.shape[1] ** 2) if cov_type == "full" else X * X
    rng = np.random.default_rng(seed)
    runs = (_em_once(X, XX, K, cov_type, rng, max_iter, tol) for _ in range(N_RESTARTS))
    fits = [(GMMModel(weights, means + shift, cov, cov_type), history) for (weights, means, cov), history in runs]
    return max(fits, key=lambda fit: fit[1][-1])


def _bic(loglik: float, n_params: int, n: int) -> float:
    """-2 * loglik + n_params * ln(n) for a mixture fitted on n rows."""
    return float(-2.0 * loglik + n_params * np.log(n))


def _n_params(model: GMMModel) -> int:
    K, d = model.n_components, model.d
    cov_params = {"spherical": K, "diag": K * d, "tied": d * (d + 1) // 2, "full": K * d * (d + 1) // 2}[model.cov_type]
    return K * d + (K - 1) + cov_params


@dataclass
class SelectionRow:
    """One fit of the selection grid; ``n_iter`` and ``converged`` describe its kept EM restart."""

    K: int
    cov_type: str
    loglik: float
    params: int
    bic: float
    selected: bool = False
    n_iter: int = 0
    converged: bool = False


def select_model(
    bank: np.ndarray, component_range: Sequence[int], cov_types: Sequence[str] = COV_TYPES,
    seed: int = 0, max_iter: int = 200, tol: float = 1e-6,
):
    """Fit every (K, cov_type) pair and keep the lowest-BIC model.

    BICs within 1e-9 of the best's magnitude tie; ties break toward fewer
    parameters, then the canonical covariance order (spherical, tied, diag,
    full).  Returns (best model, selection table).  A row is ``converged``
    when its kept restart's last EM step gained less than ``tol``.
    """
    X = _as_bank(bank)
    if len(component_range) == 0 or len(cov_types) == 0:
        raise ValueError("component_range and cov_types must be non-empty")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if min(component_range) < 1:
        raise ValueError(f"every K must be >= 1, got {min(component_range)}")
    if max(component_range) > X.shape[0]:
        raise ValueError("every K must be <= number of bank rows")

    table: list[SelectionRow] = []
    fits: dict[tuple[int, str], GMMModel] = {}
    failures: list[str] = []
    for K in component_range:
        for ct in cov_types:
            # Child seed depends only on (seed, K, cov_type), not loop order.
            child_seed = seed * 1000003 + K * 101 + COV_TYPES.index(ct)
            try:
                model, history = em_fit(X, K, ct, seed=child_seed, max_iter=max_iter, tol=tol)
            except (ValueError, np.linalg.LinAlgError) as e:
                failures.append(f"K={K} {ct}: {e}")
                continue
            loglik, params = float(score_rows(model, X).sum()), _n_params(model)
            converged = len(history) > 1 and history[-1] - history[-2] < tol
            bic_value = _bic(loglik, params, X.shape[0])
            table.append(SelectionRow(K, ct, loglik, params, bic_value, n_iter=len(history), converged=converged))
            fits[(K, ct)] = model
    if not table:
        raise RuntimeError("all mixture fits failed: " + "; ".join(failures))

    # BICs within rounding tie: spherical and diag at d = 1, or tied and full at K = 1, are one model.
    best_bic = min(r.bic for r in table)
    ties = [r for r in table if r.bic - best_bic <= 1e-9 * abs(best_bic)]
    winner = min(ties, key=lambda r: (r.params, COV_TYPES.index(r.cov_type)))
    winner.selected = True
    return fits[(winner.K, winner.cov_type)], table


def selection_table_csv(table: Sequence[SelectionRow]) -> str:
    rows = (f"{r.K},{r.cov_type},{r.loglik!r},{r.params},{r.bic!r},{int(r.selected)}" for r in table)
    return "\n".join(["K,cov_type,loglik,params,bic,selected", *rows]) + "\n"


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
        if ct in ("spherical", "diag"):
            out[idx] = model.means[k] + np.sqrt(model.covariances[k]) * eps
        else:
            cov = model.covariances if ct == "tied" else model.covariances[k]
            L = np.linalg.cholesky(cov)
            out[idx] = model.means[k] + eps @ L.T
    return out
