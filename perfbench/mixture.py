"""Inputs and checks of the select workload, computed apart from ``fnode.gmm``.

The bank is drawn from a planted Gaussian mixture whose components are fixed
here (they do not depend on the run's seed); the seed only picks the draws.
The components are far apart and have unequal per-dimension variances, so BIC
over the selection grid must pick exactly the planted (K, covariance type).
"""

from __future__ import annotations

import numpy as np

PLANTED_K = 3
PLANTED_COV = "diag"
PLANTED_WEIGHTS = np.array([2.0, 3.0, 4.0]) / 9.0
COMPONENT_SEED = 20240317


def planted_components(d: int):
    """(weights, means [K, d], variances [K, d]) of the planted mixture."""
    rng = np.random.default_rng(COMPONENT_SEED)
    means = rng.normal(0.0, 4.0, size=(PLANTED_K, d))
    variances = rng.uniform(0.2, 2.0, size=(PLANTED_K, d))
    return PLANTED_WEIGHTS, means, variances


def planted_bank(n: int, d: int, seed: int) -> np.ndarray:
    """``n`` rows drawn from the planted mixture with generator ``seed``."""
    weights, means, variances = planted_components(d)
    rng = np.random.default_rng(seed)
    comp = rng.choice(PLANTED_K, size=n, p=weights)
    return means[comp] + np.sqrt(variances[comp]) * rng.standard_normal((n, d))


def n_params(K: int, d: int, cov_type: str) -> int:
    """Free parameters: K means, K-1 weights and the covariance entries."""
    cov = {
        "spherical": K,
        "diag": K * d,
        "tied": d * (d + 1) // 2,
        "full": K * d * (d + 1) // 2,
    }[cov_type]
    return K * d + (K - 1) + cov


def log_density(weights, means, covariances, cov_type: str, X) -> np.ndarray:
    """Mixture log-density of each row of X, by Cholesky factors and log-sum-exp."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    K = len(weights)
    if cov_type == "spherical":
        chols = [np.sqrt(c) * np.eye(d) for c in covariances]
    elif cov_type == "diag":
        chols = [np.diag(np.sqrt(c)) for c in covariances]
    elif cov_type == "tied":
        chols = [np.linalg.cholesky(covariances)] * K
    else:
        chols = [np.linalg.cholesky(c) for c in covariances]
    comp = np.empty((n, K))
    for k, L in enumerate(chols):
        # solve L y = (x - mu)^T, so |y|^2 is the Mahalanobis distance
        y = np.linalg.solve(L, (X - means[k]).T)
        half_logdet = np.sum(np.log(np.diag(L)))
        comp[:, k] = np.log(weights[k]) - 0.5 * d * np.log(2.0 * np.pi) - half_logdet - 0.5 * np.sum(y * y, axis=0)
    top = comp.max(axis=1)
    return top + np.log(np.sum(np.exp(comp - top[:, None]), axis=1))
