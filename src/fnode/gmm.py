"""Ex-post Gaussian mixture over collected dynamics codes.

After training, per-trajectory posterior draws of the code are pooled into an [n, d] sample bank (drawn by
``inference.collect_gamma_samples``) and a mixture is fit by expectation-maximization, with the number of
components and the covariance structure chosen by BIC.  The fitted mixture is the sampler used for generation
and the density used for likelihood-based outlier scoring.  This module knows only arrays, not the model.

EM builds one design matrix D = [X | second moments]^T of the centred rows (|x|^2, x^2 or the upper triangle
of x x^T, by covariance type), in which every Gaussian log-density is linear: the E-step is one product of
per-component coefficients with D and the M-step one ``resp @ D.T``.  Tied shares one precision, so its
E-step adds one quadratic per mixture to its components' linear terms and its M-step needs ``resp @ X`` and
X^T X.  One :func:`em_fit` call fits a whole grid of component counts: every restart of every fit is one
mixture, and the mixtures lie end to end on one flat component axis, so an EM step is one E-step, one
posterior and one M-step for all of them.  Per-mixture maxima and sums reduce one [count, K, n] view per run
of consecutive mixtures of K components.  A mixture leaves the batch when its own gain per bank row falls below
``tol``.  A grid whose components x rows exceed ``LOCKSTEP_ENTRIES`` runs in consecutive blocks of counts.  EM
carries raw arrays and builds one :class:`GMMModel` per fit, for the restart it keeps.
"""

from __future__ import annotations

import functools
import itertools
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
# Components x rows that one lockstep holds, 8 MiB per [components, rows] array; a fit larger than this runs alone
LOCKSTEP_ENTRIES = 2**20
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


def _views(a: np.ndarray, runs):
    """[count, K, ...] views of the flat component axis of ``a``, one per run of ``runs``."""
    c = 0
    for K, count in runs:
        yield a[c : c + K * count].reshape(count, K, *a.shape[1:])
        c += K * count


def _sizes(runs) -> np.ndarray:
    """Components of each mixture laid out as ``runs``."""
    return np.repeat([K for K, _ in runs], [count for _, count in runs])


def _weighted_log_prob(D, weights, means, cov, runs, cov_type: str) -> np.ndarray:
    """log w_c + log N(x_i | mu_c, Sigma_c) as [C, n] for the C components of mixtures laid end to end.

    ``runs`` lists the mixtures as (K, count) pairs: ``count`` consecutive mixtures of K components each on
    the flat axis of ``weights`` [C] and ``means`` [C, d].  Covariances sit on it too, but tied's [M, d, d]
    hold one per mixture.  With P = Sigma^-1 it is coef . D[:, i] + const, coef = [P mu | the weights of
    -x^T P x / 2 on the second moments] and const = log w - (d log 2pi + log det Sigma + mu^T P mu) / 2; tied
    scores its shared quadratic once per mixture.  The expanded quadratic cancels far from the origin, so rows
    and means are centred first.  A non-PD covariance raises ``LinAlgError``.
    """
    d = means.shape[1]
    if cov_type in ("spherical", "diag"):
        var = cov[:, None] if cov_type == "spherical" else cov
        Pmu = means / var
        logdet = d * np.log(cov) if cov_type == "spherical" else np.sum(np.log(cov), axis=-1)
        quad = -0.5 / var
    else:
        # Sigma = L L^T, so P = L^-T L^-1
        L = np.linalg.cholesky(cov)
        Linv = np.linalg.inv(L)
        P = np.swapaxes(Linv, -1, -2) @ Linv
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
        i, j, _, half = _triu(d)
        quad = P[:, i, j] * half  # x^T P x holds each x_i x_j, i < j, twice
        if cov_type == "tied":
            sizes = _sizes(runs)
            P, logdet = np.repeat(P, sizes, axis=0), np.repeat(logdet, sizes)
        Pmu = (P @ means[..., None])[..., 0]
    const = np.log(weights) - 0.5 * (d * LOG_2PI + logdet + np.sum(means * Pmu, axis=-1))
    if cov_type == "tied":
        out = Pmu @ D[:d]
        out += np.repeat(quad @ D[d:], sizes, axis=0)
    else:
        out = np.concatenate([Pmu, quad], axis=-1) @ D
    out += const[:, None]
    return out


def _posterior(weighted: np.ndarray, runs):
    """(log-normalisers [M, n], responsibilities [C, n]) of weighted log-densities [C, n] of mixtures in ``runs``;
    the responsibilities overwrite ``weighted``.

    Per-mixture maxima and sums reduce a [count, K, n] view per run: ``np.add.reduceat`` over the flat axis
    costs several times more at these sizes and sums in another order.
    """
    sizes = _sizes(runs)
    hi = np.concatenate([w.max(axis=1) for w in _views(weighted, runs)])
    resp = weighted
    resp -= np.repeat(hi, sizes, axis=0)
    # zero terms below e^-700: they cannot move a sum that holds exp(0), and subnormal ones slow exp and EM's products
    np.putmask(resp, resp < EXP_FLOOR, -np.inf)
    np.exp(resp, out=resp)
    total = np.concatenate([r.sum(axis=1) for r in _views(resp, runs)])
    resp /= np.repeat(total, sizes, axis=0)
    return hi + np.log(total), resp


def score_rows(model: GMMModel, X: np.ndarray) -> np.ndarray:
    """Mixture log-density of each row of ``X``, scored on rows and means centred on the mean of the means."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    centre, one = model.means.mean(axis=0), ((model.n_components, 1),)
    cov = model.covariances[None] if model.cov_type == "tied" else model.covariances
    D = _design(X - centre, model.cov_type)
    return _posterior(_weighted_log_prob(D, model.weights, model.means - centre, cov, one, model.cov_type), one)[0][0]


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
        # Generator.choice(n, p=closest / total)'s own draw, without its per-call validation of p
        cdf = (closest / total).cumsum()
        cdf /= cdf[-1]
        centers[k] = X[cdf.searchsorted(rng.random(), side="right")]
        closest = np.minimum(closest, np.sum((X - centers[k]) ** 2, axis=1))
    return centers


def _init_covariances(X: np.ndarray, count: int, cov_type: str) -> np.ndarray:
    """``count`` copies of the bank's covariance under ``cov_type``: one per component, or per mixture if tied."""
    d = X.shape[1]
    var = np.maximum(X.var(axis=0), COV_FLOOR)
    if cov_type == "spherical":
        return np.full(count, var.mean())
    if cov_type == "diag":
        return np.tile(var, (count, 1))
    return np.tile(np.cov(X.T).reshape(d, d) + COV_FLOOR * np.eye(d), (count, 1, 1))


def _m_step(D: np.ndarray, gram: np.ndarray, resp: np.ndarray, mass: np.ndarray, runs, cov_type: str):
    """Weights, means and floored covariances of the mixtures in ``runs`` from [C, n] responsibilities and [C] masses.

    ``gram`` is the bank's X^T X.  Tied needs only ``resp @ X``: Sigma = (X^T X - sum_k n_k mu_k mu_k^T) / n,
    the sum over each mixture's components.  Tied and full covariances are folded from one triangle, so they
    are exactly symmetric.
    """
    (C, n), d = resp.shape, gram.shape[0]
    nk = mass + 10.0 * np.finfo(np.float64).eps
    rows = D[:d] if cov_type == "tied" else D
    moments = (resp @ rows.T) / nk[:, None]
    means, second = moments[:, :d], moments[:, d:]
    if cov_type == "spherical":
        cov = np.maximum((second[:, 0] - np.sum(means * means, axis=-1)) / d, COV_FLOOR)
    elif cov_type == "diag":
        cov = np.maximum(second - means * means, COV_FLOOR)
    else:
        i, j, fold, _ = _triu(d)
        if cov_type == "full":
            cov = second[:, fold] - means[:, :, None] * means[:, None, :]
        else:
            spread = [(np.swapaxes(mu, 1, 2) * w[:, None]) @ mu for mu, w in zip(_views(means, runs), _views(nk, runs))]
            cov = ((gram - np.concatenate(spread)) / n)[:, i, j][:, fold]
        cov[:, np.arange(d), np.arange(d)] += COV_FLOOR
    return nk / n, means, cov


def _as_bank(bank) -> np.ndarray:
    X = np.asarray(bank, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"bank must be [n, d], got shape {list(X.shape)}")
    return X


def _stalled(history, n: int, tol: float) -> bool:
    """EM's stopping rule: the last step of a fit on ``n`` rows gained less than ``tol`` per row."""
    return len(history) > 1 and history[-1] - history[-2] < tol * n


def _em_step(D, gram, weights, means, cov, runs, cov_type: str):
    """One EM step of the mixtures in ``runs``: their total log-likelihoods [M] before it, then their new
    weights, means and covariances.  A component without mass takes its mixture's worst-fit row."""
    norm, resp = _posterior(_weighted_log_prob(D, weights, means, cov, runs, cov_type), runs)
    mass = resp.sum(axis=1)
    if np.any(mass < 1e-10):
        sizes = _sizes(runs)
        for a, start in enumerate(np.cumsum(sizes) - sizes):
            seg = slice(start, start + sizes[a])
            empties = np.flatnonzero(mass[seg] < 1e-10)
            for k, i in zip(empties, np.argsort(norm[a])[: empties.size]):
                log.info("re-seeding empty component %d from worst-fit row %d", k, i)
                resp[seg, i] = 0.0
                resp[start + k, i] = 1.0
            mass[seg] = resp[seg].sum(axis=1)
    return norm.sum(axis=1), *_m_step(D, gram, resp, mass, runs, cov_type)


def _lockstep(X, D, gram, shift, counts, seeds, cov_type: str, max_iter: int, tol: float) -> list:
    """EM over every restart of the fits (K, seed) of centred rows ``X`` in lockstep; per fit, its kept
    restart's (model, history) shifted back by ``shift``, or the error that failed the fit."""
    R, tied = N_RESTARTS, cov_type == "tied"
    sizes = np.repeat(counts, R)  # components of each mixture, fit-major; fit f owns mixtures f*R .. f*R+R-1
    centers = []
    for K, seed in zip(counts, seeds):
        rng = np.random.default_rng(seed)
        centers += [_kmeanspp_centers(X, K, rng) for _ in range(R)]
    weights, means = np.repeat(1.0 / sizes, sizes), np.concatenate(centers)
    cov = _init_covariances(X, len(sizes) if tied else sizes.sum(), cov_type)
    live, histories, final, outcome, runs = np.arange(len(sizes)), [[] for _ in sizes], {}, {}, None
    while live.size:
        runs = runs or tuple((K, len(list(g))) for K, g in itertools.groupby(sizes.tolist()))
        try:
            logliks, *params = _em_step(D, gram, weights, means, cov, runs, cov_type)
        except np.linalg.LinAlgError:
            # find the covariances that lost definiteness; each fails its fit, and the rest take the step again
            owner = live if tied else np.repeat(live, sizes)
            for c, matrix in enumerate(cov):
                try:
                    np.linalg.cholesky(matrix)
                except np.linalg.LinAlgError as e:
                    outcome.setdefault(owner[c] // R, e)
            keep = np.array([m // R not in outcome for m in live])
            if keep.all():
                raise
        else:
            weights, means, cov = params
            for m, loglik in zip(live, logliks):
                histories[m].append(float(loglik))
            done = [len(h) == max_iter or _stalled(h, X.shape[0], tol) for h in (histories[m] for m in live)]
            keep = ~np.array(done)
            starts = np.cumsum(sizes) - sizes
            for a in np.flatnonzero(done):
                seg = slice(starts[a], starts[a] + sizes[a])
                final[live[a]] = weights[seg].copy(), means[seg].copy(), (cov[a] if tied else cov[seg]).copy()
        if not keep.all():
            comp = np.repeat(keep, sizes)
            weights, means, cov = weights[comp], means[comp], cov[keep if tied else comp]
            sizes, live, runs = sizes[keep], live[keep], None
    for f in range(len(counts)):
        if f in outcome:
            continue
        restarts = range(f * R, f * R + R)
        best = max(histories[m][-1] for m in restarts)
        m = next(m for m in restarts if best - histories[m][-1] <= 1e-9 * abs(best))
        weights, means, cov = final[m]
        try:
            outcome[f] = GMMModel(weights, means + shift, cov, cov_type), histories[m]
        except (ValueError, np.linalg.LinAlgError) as e:
            outcome[f] = e
    return [outcome[f] for f in range(len(counts))]


def em_fit(bank: np.ndarray, K, cov_type: str = "diag", seed=0, max_iter: int = 200, tol: float = 1e-3):
    """EM fit of an [n, d] bank from ``N_RESTARTS`` k-means++ seedings; returns (model, loglik_history).

    The restarts advance in lockstep; one leaves after the M-step of the iteration whose gain falls below
    ``tol`` per bank row, so a larger bank does not tighten it, and its history, the total log-likelihood before
    each M-step, is nondecreasing.  The default, scikit-learn's, ends the large-K fits that an absolute 1e-6 ran
    to ``max_iter`` and moves the selected sampler's held-out code log-density by less than its seed spread.  Final
    log-likelihoods within 1e-9 of the best's magnitude tie, as BICs do in :func:`select_model`, and the
    first restart among them is kept, so rounding does not choose among restarts at one optimum.

    Given a sequence of counts ``K`` and one seed per count, it fits the whole grid in lockstep and returns one
    entry per count: (model, history) as above, or the ``ValueError`` or ``LinAlgError`` that failed that fit
    alone (fewer distinct rows than K, a covariance that lost definiteness, a model that fails validation).
    Each fit seeds from its own generator and follows its solo path up to the rounding of products taken over
    more rows; the fits share each step's calls in blocks of at most ``LOCKSTEP_ENTRIES`` components x rows.
    An integer ``K`` is the grid of one count, whose failure is raised.
    """
    if max_iter < 1 or np.isnan(tol):  # a NaN gain bound compares false, so every fit would run to max_iter
        raise ValueError(f"need max_iter >= 1 and a tol that is a number, got max_iter={max_iter}, tol={tol}")
    X = _as_bank(bank)
    grid = np.ndim(K) > 0
    counts, seeds = list(K) if grid else [K], list(seed) if np.ndim(seed) else [seed]
    if not counts or len(seeds) != len(counts):
        raise ValueError(f"need one seed per K, got {len(seeds)} seeds for the counts {counts}")
    if min(counts) < 1:
        raise ValueError("K must be >= 1")
    rows = np.ascontiguousarray(X + 0.0)  # one byte string per row; -0.0 + 0.0 is 0.0, so the zeros are one
    distinct = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))).size
    results = [ValueError(f"need at least K={k} distinct rows, bank has fewer") for k in counts]
    # Every restart fits the same centred rows, so the M-step's expanded second moments do not cancel.
    shift = X.mean(axis=0)
    X = X - shift
    D, gram = _design(X, cov_type), X.T @ X
    todo = [f for f, k in enumerate(counts) if k <= distinct]
    while todo:
        # the longest run of fits that holds at most LOCKSTEP_ENTRIES components x rows, and at least one fit
        entries = np.cumsum([N_RESTARTS * counts[f] * X.shape[0] for f in todo])
        take = max(1, int(np.searchsorted(entries, LOCKSTEP_ENTRIES, side="right")))
        block, todo = todo[:take], todo[take:]
        fits = [counts[f] for f in block], [seeds[f] for f in block]
        for f, result in zip(block, _lockstep(X, D, gram, shift, *fits, cov_type, max_iter, tol)):
            results[f] = result
    if not grid and isinstance(results[0], Exception):
        raise results[0]
    return results if grid else results[0]


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
    seed: int = 0, max_iter: int = 200, tol: float = 1e-3,
):
    """Fit every (K, cov_type) pair and keep the lowest-BIC model.

    Each covariance type's whole K grid is one :func:`em_fit` call, looked up on the module with the type as its
    third argument, in which all its fits advance in lockstep.  A fit that fails leaves a failure line, and the
    other fits stand.  The table lists the fits K-major, in ``cov_types`` order within each K.  BICs within 1e-9
    of the best's magnitude tie; ties break toward fewer parameters, then the canonical covariance order
    (spherical, tied, diag, full).  Returns (best model, selection table).  A row is ``converged`` when its kept
    restart stopped by :func:`em_fit`'s rule, its last EM step gaining less than ``tol`` per bank row.
    """
    X = _as_bank(bank)
    if len(component_range) == 0 or len(cov_types) == 0:
        raise ValueError("component_range and cov_types must be non-empty")
    if len(set(component_range)) < len(component_range) or len(set(cov_types)) < len(cov_types):
        raise ValueError(f"component_range {list(component_range)} and cov_types {list(cov_types)} repeat an entry")
    unknown = sorted(set(cov_types) - set(COV_TYPES))
    if unknown:
        raise ValueError(f"unknown covariance types {unknown}")
    if max_iter < 1 or np.isnan(tol):  # a NaN gain bound compares false, so every fit would run to max_iter
        raise ValueError(f"need max_iter >= 1 and a tol that is a number, got max_iter={max_iter}, tol={tol}")
    if min(component_range) < 1:
        raise ValueError(f"every K must be >= 1, got {min(component_range)}")
    if max(component_range) > X.shape[0]:
        raise ValueError("every K must be <= number of bank rows")

    # One lockstep per covariance type over the whole grid; each child seed depends only on (seed, K, cov_type).
    counts = list(component_range)
    grids = {
        ct: em_fit(X, counts, ct, seed=[seed * 1000003 + K * 101 + COV_TYPES.index(ct) for K in counts],
                   max_iter=max_iter, tol=tol)
        for ct in cov_types
    }
    table: list[SelectionRow] = []
    fits: dict[tuple[int, str], GMMModel] = {}
    failures: list[str] = []
    for f, K in enumerate(counts):
        for ct in cov_types:
            if isinstance(grids[ct][f], Exception):
                failures.append(f"K={K} {ct}: {grids[ct][f]}")
                continue
            model, history = grids[ct][f]
            loglik, params, n = float(score_rows(model, X).sum()), _n_params(model), X.shape[0]
            bic, converged = float(-2.0 * loglik + params * np.log(n)), _stalled(history, n, tol)
            table.append(SelectionRow(K, ct, loglik, params, bic, n_iter=len(history), converged=converged))
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
