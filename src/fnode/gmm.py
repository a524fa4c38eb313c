"""Ex-post Gaussian mixture over collected dynamics codes.

After training, per-trajectory posterior draws of the code are pooled into an [n, d] sample bank (drawn by
``inference.collect_gamma_samples``) and a mixture is fit by expectation-maximization, with the number of
components and the covariance structure chosen by BIC.  The fitted mixture is the sampler used for generation
and the density used for likelihood-based outlier scoring.  This module knows only arrays, not the model.

Each fit builds one design matrix D = [X | second moments]^T of its centred rows (|x|^2, x^2 or the upper
triangle of x x^T, by covariance type), in which every Gaussian log-density is linear: the E-step is one
product of per-component coefficients with D and the M-step one ``resp @ D.T``.  Tied shares one precision,
so its E-step adds one quadratic per restart to K linear terms and its M-step needs ``resp @ X`` and X^T X.
A fit's ``N_RESTARTS`` restarts advance in lockstep on a leading axis, so numpy's per-call costs are paid once
per step.  EM carries raw arrays and builds one :class:`GMMModel`, for the restart it keeps.
"""

from __future__ import annotations

import functools
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
            if not np.array_equal(self.covariances, np.swapaxes(self.covariances, -1, -2)):
                raise ValueError("covariances must be symmetric")  # Cholesky reads only one triangle
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


@functools.cache
def _triu(d: int):
    """Indices (i, j) of a d x d upper triangle, the [d, d] map of each entry to its place in it, and the
    weights (-1/2 on the diagonal, -1 above it) that turn x x^T's upper triangle into -x^T P x / 2; read-only."""
    i, j = np.triu_indices(d)
    fold = np.empty((d, d), dtype=np.intp)
    fold[i, j] = fold[j, i] = np.arange(i.size)
    half = np.where(i == j, -0.5, -1.0)
    i.flags.writeable = j.flags.writeable = fold.flags.writeable = half.flags.writeable = False
    return i, j, fold, half


def _design(X: np.ndarray, cov_type: str) -> np.ndarray:
    """Feature-major [m, n] design matrix [X | |x|^2 (spherical), x^2 (diag) or x x^T's upper triangle]^T."""
    Xt = np.ascontiguousarray(X.T)
    if cov_type == "spherical":
        second = np.sum(Xt * Xt, axis=0, keepdims=True)
    elif cov_type == "diag":
        second = Xt * Xt
    else:
        i, j, _, _ = _triu(X.shape[1])
        second = Xt[i] * Xt[j]
    return np.concatenate([Xt, second])


def _weighted_log_prob(D, weights, means, cov, cov_type: str) -> np.ndarray:
    """log w_k + log N(x_i | mu_k, Sigma_k) as [R, K, n] for R mixtures of K components, ``means`` [R, K, d].

    With P = Sigma^-1 it is coef . D[:, i] + const, coef = [P mu | the weights of -x^T P x / 2 on the second
    moments] and const = log w - (d log 2pi + log det Sigma + mu^T P mu) / 2; tied scores its shared quadratic
    once per restart and broadcasts it over K.  The expanded quadratic cancels far from the origin, so rows and
    means are centred first.  A non-PD covariance raises ``LinAlgError``.
    """
    R, K, d = means.shape
    if cov_type in ("spherical", "diag"):
        var = cov[..., None] if cov_type == "spherical" else cov
        Pmu = means / var
        logdet = d * np.log(cov) if cov_type == "spherical" else np.sum(np.log(cov), axis=-1)
        quad = -0.5 / var
    else:
        # Sigma = L L^T, so P = L^-T L^-1; tied [R, d, d] gains a unit component axis that broadcasts over K
        L = np.linalg.cholesky(cov if cov_type == "full" else cov[:, None])
        Linv = np.linalg.inv(L)
        P = np.swapaxes(Linv, -1, -2) @ Linv
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
        Pmu = (P @ means[..., None])[..., 0]
        i, j, _, half = _triu(d)
        quad = P[..., i, j] * half  # x^T P x holds each x_i x_j, i < j, twice
    const = np.log(weights) - 0.5 * (d * LOG_2PI + logdet + np.sum(means * Pmu, axis=-1))
    if cov_type == "tied":
        out = (Pmu.reshape(R * K, d) @ D[:d]).reshape(R, K, -1)
        out += (quad[:, 0] @ D[d:])[:, None]
    else:
        out = (np.concatenate([Pmu, quad], axis=-1).reshape(R * K, -1) @ D).reshape(R, K, -1)
    out += const[..., None]
    return out


def _posterior(weighted: np.ndarray):
    """(log-normalisers [R, n], responsibilities [R, K, n]) of weighted log-densities [R, K, n]."""
    hi = np.max(weighted, axis=1)
    resp = weighted - hi[:, None, :]
    # zero terms below e^-700: they cannot move a sum that holds exp(0), and subnormal ones slow exp and EM's products
    np.putmask(resp, resp < EXP_FLOOR, -np.inf)
    np.exp(resp, out=resp)
    total = np.sum(resp, axis=1)
    resp /= total[:, None, :]
    return hi + np.log(total), resp


def score_rows(model: GMMModel, X: np.ndarray) -> np.ndarray:
    """Mixture log-density of each row of ``X``, scored on rows and means centred on the mean of the means."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    centre = model.means.mean(axis=0)
    mixture = (model.weights[None], (model.means - centre)[None], model.covariances[None], model.cov_type)
    return _posterior(_weighted_log_prob(_design(X - centre, model.cov_type), *mixture))[0][0]


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


def _m_step(D: np.ndarray, gram: np.ndarray, resp: np.ndarray, mass: np.ndarray, cov_type: str):
    """Weights, means and floored covariances of R mixtures from [R, K, n] responsibilities and [R, K] masses.

    ``gram`` is the fit's X^T X.  Tied needs only ``resp @ X``: Sigma = (X^T X - sum_k n_k mu_k mu_k^T) / n.
    Tied and full covariances are folded from one triangle, so they are exactly symmetric.
    """
    (R, K, n), d = resp.shape, gram.shape[0]
    nk = mass + 10.0 * np.finfo(np.float64).eps
    rows = D[:d] if cov_type == "tied" else D
    moments = (resp.reshape(R * K, n) @ rows.T).reshape(R, K, -1) / nk[..., None]
    means, second = moments[..., :d], moments[..., d:]
    if cov_type == "spherical":
        cov = np.maximum((second[..., 0] - np.sum(means * means, axis=-1)) / d, COV_FLOOR)
    elif cov_type == "diag":
        cov = np.maximum(second - means * means, COV_FLOOR)
    else:
        i, j, fold, _ = _triu(d)
        if cov_type == "full":
            cov = second[..., fold] - means[..., :, None] * means[..., None, :]
        else:
            cov = ((gram - (np.swapaxes(means, 1, 2) * nk[:, None]) @ means) / n)[..., i, j][..., fold]
        cov[..., np.arange(d), np.arange(d)] += COV_FLOOR
    return nk / n, means, cov


def _as_bank(bank) -> np.ndarray:
    X = np.asarray(bank, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"bank must be [n, d], got shape {list(X.shape)}")
    return X


def em_fit(bank: np.ndarray, K: int, cov_type: str = "diag", seed: int = 0, max_iter: int = 200, tol: float = 1e-6):
    """EM fit of an [n, d] bank from ``N_RESTARTS`` k-means++ seedings; returns (model, loglik_history).

    The restarts advance in lockstep; one leaves after the M-step of the iteration whose gain falls below
    ``tol``, and its history, the total log-likelihood before each M-step, is nondecreasing.  Final
    log-likelihoods within 1e-9 of the best's magnitude tie, as BICs do in :func:`select_model`, and the
    first restart among them is kept, so rounding does not choose among restarts at one optimum.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    X = _as_bank(bank)
    if K < 1:
        raise ValueError("K must be >= 1")
    rows = np.ascontiguousarray(X + 0.0)  # one byte string per row; -0.0 + 0.0 is 0.0, so the zeros are one
    if np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))).size < K:
        raise ValueError(f"need at least K={K} distinct rows, bank has fewer")
    # Every restart fits the same centred rows, so the M-step's expanded second moments do not cancel.
    shift = X.mean(axis=0)
    X = X - shift
    D, gram, rng, R = _design(X, cov_type), X.T @ X, np.random.default_rng(seed), N_RESTARTS
    weights, means = np.full((R, K), 1.0 / K), np.stack([_kmeanspp_centers(X, K, rng) for _ in range(R)])
    cov, histories, live = np.stack([_init_covariances(X, K, cov_type)] * R), [[] for _ in range(R)], np.arange(R)
    for _ in range(max_iter):
        norm, resp = _posterior(_weighted_log_prob(D, weights[live], means[live], cov[live], cov_type))
        mass = resp.sum(axis=2)
        for a in np.flatnonzero(np.any(mass < 1e-10, axis=1)):
            empties = np.flatnonzero(mass[a] < 1e-10)
            for k, i in zip(empties, np.argsort(norm[a])[: empties.size]):
                log.info("re-seeding empty component %d from worst-fit row %d", k, i)
                resp[a, :, i] = 0.0
                resp[a, k, i] = 1.0
            mass[a] = resp[a].sum(axis=1)
        weights[live], means[live], cov[live] = _m_step(D, gram, resp, mass, cov_type)
        for r, loglik in zip(live, norm.sum(axis=1)):
            histories[r].append(float(loglik))
        live = np.array([r for r in live if not (len(histories[r]) > 1 and histories[r][-1] - histories[r][-2] < tol)])
        if not live.size:
            break
    best = max(history[-1] for history in histories)
    r = next(r for r, history in enumerate(histories) if best - history[-1] <= 1e-9 * abs(best))
    return GMMModel(weights[r], means[r] + shift, cov[r], cov_type), histories[r]


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
    if len(set(component_range)) < len(component_range) or len(set(cov_types)) < len(cov_types):
        raise ValueError(f"component_range {list(component_range)} and cov_types {list(cov_types)} repeat an entry")
    unknown = sorted(set(cov_types) - set(COV_TYPES))
    if unknown:
        raise ValueError(f"unknown covariance types {unknown}")
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
    ct = model.cov_type
    chol = np.linalg.cholesky(model.covariances) if ct in ("tied", "full") else None  # tied: one for every k
    for k in range(model.n_components):
        idx = np.flatnonzero(comps == k)
        if idx.size == 0:
            continue
        eps = rng.standard_normal((idx.size, model.d))
        if ct in ("spherical", "diag"):
            out[idx] = model.means[k] + np.sqrt(model.covariances[k]) * eps
        else:
            out[idx] = model.means[k] + eps @ (chol if ct == "tied" else chol[k]).T
    return out
