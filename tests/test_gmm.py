import ast
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fnode.gmm as gmm_mod
from fnode.gmm import (
    COV_TYPES,
    GMMModel,
    em_fit,
    sample,
    score_rows,
    select_model,
    selection_table_csv,
    _n_params,
)
from fnode.inference import collect_gamma_samples, posterior
from fnode.model import FNODEModel
from fnode.syndata import generate_set_a


def three_clusters(n_per=120, d=1, seed=0, centers=(-5.0, 0.0, 5.0), sigma=0.3):
    rng = np.random.default_rng(seed)
    rows = [c + sigma * rng.standard_normal((n_per, d)) for c in centers]
    return np.concatenate(rows)


def _assert_same_fit(got, want, rtol=1e-12):
    """Two em_fit results: the same n_iter, and history and model arrays within ``rtol``."""
    (model, history), (want_model, want_history) = got, want
    assert len(history) == len(want_history) and model.cov_type == want_model.cov_type
    np.testing.assert_allclose(history, want_history, rtol=rtol, atol=0)
    for key in ("weights", "means", "covariances"):
        np.testing.assert_allclose(getattr(model, key), getattr(want_model, key), rtol=rtol, atol=0)


class TestGMMModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GMMModel(np.array([0.5, 0.4]), np.zeros((2, 1)), np.ones(2), "spherical")

    def test_floor_enforced(self):
        with pytest.raises(ValueError):
            GMMModel(np.array([1.0]), np.zeros((1, 2)), np.array([[1e-9, 1.0]]), "diag")

    # (cov_type, weights, means, covariances) that break the documented layout
    # spherical [K], diag [K, d], tied [d, d], full [K, d, d]; here K = 2, d = 3.
    BAD_LAYOUTS = {
        "diag with [K]": ("diag", np.full(2, 0.5), np.zeros((2, 3)), np.ones(2)),
        "spherical with [K, d]": ("spherical", np.full(2, 0.5), np.zeros((2, 3)), np.ones((2, 3))),
        "tied with [K, d, d]": ("tied", np.full(2, 0.5), np.zeros((2, 3)), np.tile(np.eye(3), (2, 1, 1))),
        "full with [d, d]": ("full", np.full(2, 0.5), np.zeros((2, 3)), np.eye(3)),
        "full with [K, d-1, d-1]": ("full", np.full(2, 0.5), np.zeros((2, 3)), np.tile(np.eye(2), (2, 1, 1))),
        "weights of length K+1": ("diag", np.full(3, 1 / 3), np.zeros((2, 3)), np.ones((2, 3))),
        "rank-1 means": ("spherical", np.ones(1), np.zeros(3), np.ones(1)),
    }

    @pytest.mark.parametrize("case", sorted(BAD_LAYOUTS))
    def test_shape_mismatch_rejected(self, case):
        cov_type, weights, means, cov = self.BAD_LAYOUTS[case]
        with pytest.raises(ValueError):
            GMMModel(weights, means, cov, cov_type)

    @pytest.mark.parametrize("cov_type", ["tied", "full"])
    def test_asymmetric_covariance_rejected(self, cov_type):
        # Cholesky reads the lower triangle only, so this one would score and sample as the identity
        cov = np.array([[1.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="covariances must be symmetric"):
            GMMModel(np.ones(1), np.zeros((1, 2)), cov if cov_type == "tied" else cov[None], cov_type)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("key", ["weights", "means", "covariances"])
    @pytest.mark.parametrize("cov_type", COV_TYPES)
    def test_non_finite_entry_rejected(self, cov_type, key, value):
        K, d = 2, 3
        cov = {"spherical": np.ones(K), "diag": np.ones((K, d)), "tied": np.eye(d), "full": np.tile(np.eye(d), (K, 1, 1))}
        arrays = {"weights": np.full(K, 0.5), "means": np.zeros((K, d)), "covariances": cov[cov_type]}
        GMMModel(**arrays, cov_type=cov_type)
        arrays[key].flat[0] = value
        with pytest.raises(ValueError, match=f"mixture {key} hold non-finite entries"):
            GMMModel(**arrays, cov_type=cov_type)


class TestEMFit:
    @pytest.mark.parametrize("cov_type", COV_TYPES)
    def test_k1_matches_closed_form_mle(self, cov_type):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 3)) @ np.array([[1.5, 0.0, 0.0], [0.4, 0.7, 0.0], [0.0, 0.1, 0.2]])
        X += np.array([1.0, -2.0, 0.5])
        model, _ = em_fit(X, K=1, cov_type=cov_type, seed=0)
        diff = X - X.mean(axis=0)
        biased = diff.T @ diff / X.shape[0]
        want = {
            "spherical": np.maximum(np.mean(np.diag(biased)), 1e-6),
            "diag": np.maximum(np.diag(biased), 1e-6),
            "tied": biased + 1e-6 * np.eye(3),
            "full": biased + 1e-6 * np.eye(3),
        }[cov_type]
        np.testing.assert_allclose(model.means[0], X.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(model.covariances if cov_type == "tied" else model.covariances[0], want, atol=1e-8)
        assert model.weights[0] == 1.0

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(1)
        X = np.concatenate(
            [rng.standard_normal((150, 2)) * 0.2 + 5.0, rng.standard_normal((150, 2)) * 0.2 - 5.0]
        )
        model, history = em_fit(X, K=2, cov_type="diag", seed=0)
        centers = model.means[np.argsort(model.means[:, 0])]
        np.testing.assert_allclose(centers[0], [-5.0, -5.0], atol=0.1)
        np.testing.assert_allclose(centers[1], [5.0, 5.0], atol=0.1)

    @pytest.mark.parametrize("cov_type", COV_TYPES)
    def test_loglik_history_nondecreasing(self, cov_type):
        X = three_clusters(n_per=80, d=2, seed=3)
        _, history = em_fit(X, K=3, cov_type=cov_type, seed=0)
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-9), f"{cov_type}: {diffs.min()}"

    def test_k_larger_than_rows_rejected(self):
        X = np.zeros((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(ValueError):
            em_fit(X, K=5, cov_type="diag", seed=0)

    def test_signed_zeros_are_one_distinct_row(self):
        with pytest.raises(ValueError, match="distinct rows"):
            em_fit(np.array([[0.0], [-0.0]]), K=2, cov_type="diag", seed=0)

    @pytest.mark.parametrize("cov_type", COV_TYPES)
    def test_shifted_bank_gives_shifted_fit(self, cov_type):
        # EM fits centred rows, so moving the bank far from the origin moves only the means.  Restarts
        # that reach one optimum differ by rounding alone, so the kept one must not depend on it.
        X = three_clusters(n_per=60, d=3, seed=5)
        for seed in range(8):
            near, near_hist = em_fit(X, K=3, cov_type=cov_type, seed=seed)
            far, far_hist = em_fit(X + 1e4, K=3, cov_type=cov_type, seed=seed)
            assert len(far_hist) == len(near_hist), seed
            np.testing.assert_allclose(far.means - 1e4, near.means, rtol=0, atol=1e-9)
            np.testing.assert_allclose(far.covariances, near.covariances, rtol=1e-9, atol=0)
            np.testing.assert_allclose(far.weights, near.weights, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("cov_type, seed", [("tied", 1), ("full", 0)])
    def test_restarts_share_each_e_step(self, cov_type, seed, monkeypatch):
        # The restarts advance together: a fit makes as many E-steps as its longest restart has
        # iterations, not their sum, and each restart runs as long as it does alone from its seed.
        X = three_clusters(n_per=60, d=3, seed=5)
        seeds, live = [], []
        draw, e_step = gmm_mod._kmeanspp_centers, gmm_mod._weighted_log_prob
        monkeypatch.setattr(gmm_mod, "_kmeanspp_centers", lambda *args: seeds.append(draw(*args)) or seeds[-1])

        def counted(D, weights, means, cov, runs, ct):
            live.append(sum(count for _, count in runs))
            return e_step(D, weights, means, cov, runs, ct)

        monkeypatch.setattr(gmm_mod, "_weighted_log_prob", counted)
        _, history = em_fit(X, K=3, cov_type=cov_type, seed=seed)
        monkeypatch.setattr(gmm_mod, "_weighted_log_prob", e_step)
        monkeypatch.setattr(gmm_mod, "N_RESTARTS", 1)
        alone = []
        for centers in seeds:
            monkeypatch.setattr(gmm_mod, "_kmeanspp_centers", lambda *args, c=centers: c)
            alone.append(len(em_fit(X, K=3, cov_type=cov_type, seed=seed)[1]))
        assert len(seeds) == 3 and len(set(alone)) == 3
        assert len(live) == max(alone) < sum(alone) and len(history) in alone
        # restarts leave the batch and never return: step t scores every restart longer than t
        assert live == [sum(n > t for n in alone) for t in range(max(alone))]

    @pytest.mark.parametrize("cov_type", COV_TYPES)
    def test_grid_cells_equal_their_solo_fits(self, cov_type):
        # One lockstep over K 1-5 ends each fit where em_fit on that K and seed alone ends it.  At the default
        # tol, full K = 5 keeps a restart with a component collapsed onto one row, whose rounding grows past
        # 1e-12 within 20 steps; 1e-6 per row keeps restarts that stay well conditioned.
        X, seeds = three_clusters(n_per=60, d=2, seed=4), [7 * K + 1 for K in range(1, 6)]
        grid = em_fit(X, range(1, 6), cov_type, seed=seeds, max_iter=60, tol=1e-6)
        assert len(grid) == 5
        for K, s, cell in zip(range(1, 6), seeds, grid):
            _assert_same_fit(cell, em_fit(X, K, cov_type, seed=s, max_iter=60, tol=1e-6))

    @pytest.mark.parametrize("cov_type", COV_TYPES)
    def test_grid_fits_run_as_long_as_alone_on_a_planted_bank(self, cov_type):
        # The select benchmark's planted bank 1: 500 rows in 16 dimensions from three far-apart components,
        # with select_model's child seeds for seed 1.  A grid's products round differently from a solo fit's,
        # which under an absolute bound of 1e-6 ended full K = 8 after 153 steps in the grid and 152 alone
        # (one BLAS thread).
        rng, draws = np.random.default_rng(20240317), np.random.default_rng(1)
        means, variances = rng.normal(0.0, 4.0, (3, 16)), rng.uniform(0.2, 2.0, (3, 16))
        comp = draws.choice(3, size=500, p=np.array([2.0, 3.0, 4.0]) / 9.0)
        X = means[comp] + np.sqrt(variances[comp]) * draws.standard_normal((500, 16))
        counts, seeds = range(1, 9), [1000003 + K * 101 + COV_TYPES.index(cov_type) for K in range(1, 9)]
        grid = em_fit(X, counts, cov_type, seed=seeds)
        assert [len(h) for _, h in grid] == [len(em_fit(X, K, cov_type, seed=s)[1]) for K, s in zip(counts, seeds)]

    def test_tol_bounds_the_gain_per_row(self, monkeypatch):
        # Repeating every row doubles each step's gain and the bound alike, so every fit of the grid stops at
        # the same step; an absolute bound would run the doubled bank's fits longer.
        X, counts, seeds = three_clusters(n_per=60, d=2, seed=4), [1, 2, 3, 4, 5], [5, 6, 7, 8, 9]
        draw, init, steps = gmm_mod._kmeanspp_centers, gmm_mod._init_covariances, {}
        for reps in (1, 2):
            # start from the first copy of each row, so both banks start from the same centres and covariances
            # (np.cov divides by n - 1)
            monkeypatch.setattr(gmm_mod, "_kmeanspp_centers", lambda X, K, rng, r=reps: draw(X[::r], K, rng))
            monkeypatch.setattr(gmm_mod, "_init_covariances", lambda X, *args, r=reps: init(X[::r], *args))
            for ct in COV_TYPES:
                steps[ct, reps] = [len(h) for _, h in em_fit(np.repeat(X, reps, axis=0), counts, ct, seed=seeds)]
        for ct in COV_TYPES:
            assert steps[ct, 1] == steps[ct, 2], ct
        assert len({n for runs in steps.values() for n in runs}) > 3  # fits stop at many different steps

    def test_kmeanspp_draws_match_generator_choice(self):
        # The inverse-CDF draw is Generator.choice's own: the same centres and the same generator state as
        # the loop of rng.choice calls it replaced, on a bank with and one without repeated rows.
        def reference(X, K, rng):
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

        X = three_clusters(n_per=40, d=3, seed=7)
        for bank in (X, np.repeat(X[:3], 4, axis=0)):
            for seed in range(6):
                for K in (1, 2, 3, 5, 8):
                    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert np.array_equal(gmm_mod._kmeanspp_centers(bank, K, got_rng), reference(bank, K, want_rng))
                    assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("cov_type", ["tied", "diag"])
    def test_grid_runs_in_blocks_under_the_entry_cap(self, cov_type, monkeypatch):
        # 3 restarts x K components x 180 rows: K 1 and 2 fill 1,620 of 2,000 entries, K 3 starts a new
        # block, and K 4 alone (2,160) is over the cap, so it runs by itself.  Blocks change no fit.
        X, seeds = three_clusters(n_per=60, d=2, seed=4), [5, 6, 7, 8]
        whole = em_fit(X, [1, 2, 3, 4], cov_type, seed=seeds, max_iter=60)
        blocks, lockstep = [], gmm_mod._lockstep

        def recorded(X, D, gram, shift, counts, *rest):
            blocks.append(list(counts))
            return lockstep(X, D, gram, shift, counts, *rest)

        monkeypatch.setattr(gmm_mod, "_lockstep", recorded)
        monkeypatch.setattr(gmm_mod, "LOCKSTEP_ENTRIES", 2000)
        split = em_fit(X, [1, 2, 3, 4], cov_type, seed=seeds, max_iter=60)
        assert blocks == [[1, 2], [3], [4]]
        for got, want in zip(split, whole):
            _assert_same_fit(got, want)

    @pytest.mark.parametrize("cov_type", ["spherical", "full"])
    def test_grid_shares_each_e_step(self, cov_type, monkeypatch):
        # A grid call makes as many E-steps as its longest mixture has iterations, and each step scores
        # only the mixtures still running: every restart of every K runs as long as it does alone.
        X, counts = three_clusters(n_per=60, d=2, seed=4), [1, 2, 3, 4]
        seeds, live = [], []
        draw, e_step = gmm_mod._kmeanspp_centers, gmm_mod._weighted_log_prob
        monkeypatch.setattr(gmm_mod, "_kmeanspp_centers", lambda *args: seeds.append(draw(*args)) or seeds[-1])

        def counted(D, weights, means, cov, runs, ct):
            live.append(sum(count for _, count in runs))
            return e_step(D, weights, means, cov, runs, ct)

        monkeypatch.setattr(gmm_mod, "_weighted_log_prob", counted)
        em_fit(X, counts, cov_type, seed=[3, 1, 4, 1], max_iter=80)
        monkeypatch.setattr(gmm_mod, "_weighted_log_prob", e_step)
        monkeypatch.setattr(gmm_mod, "N_RESTARTS", 1)
        alone = []
        for centers in seeds:
            monkeypatch.setattr(gmm_mod, "_kmeanspp_centers", lambda *args, c=centers: c)
            alone.append(len(em_fit(X, len(centers), cov_type, seed=0, max_iter=80)[1]))
        assert len(seeds) == 3 * len(counts) and len(set(alone)) > 2
        assert len(live) == max(alone) < sum(alone)
        assert live == [sum(n > t for n in alone) for t in range(max(alone))] and live[-1] < live[0]

    @pytest.mark.parametrize("cov_type", COV_TYPES)
    def test_k_above_distinct_rows_fails_its_cell_alone(self, cov_type):
        X = np.concatenate([three_clusters(n_per=10, d=2, seed=1)] * 2)  # 30 distinct rows, each twice
        grid = em_fit(X, [2, 31, 3], cov_type, seed=[5, 6, 7], max_iter=40)
        assert isinstance(grid[1], ValueError) and "K=31 distinct rows" in str(grid[1])
        for K, s, cell in ((2, 5, grid[0]), (3, 7, grid[2])):
            _assert_same_fit(cell, em_fit(X, K, cov_type, seed=s, max_iter=40))
        with pytest.raises(ValueError, match="K=31 distinct rows"):
            em_fit(X, 31, cov_type, seed=6)

    @pytest.mark.parametrize("cov_type", ["tied", "full"])
    def test_covariance_losing_definiteness_fails_its_cell_alone(self, cov_type, monkeypatch):
        # The third M-step turns the first restart of K = 2 non-PD; the next E-step's Cholesky fails it,
        # and K = 2 fails while K = 1 and K = 3 end as their solo fits do.
        X, seeds = three_clusters(n_per=60, d=2, seed=4), [11, 12, 13]
        solo = {K: em_fit(X, K, cov_type, seed=s, max_iter=40) for K, s in zip((1, 3), (11, 13))}
        calls, m_step = [], gmm_mod._m_step

        def poison(D, gram, resp, mass, runs, ct):
            weights, means, cov = m_step(D, gram, resp, mass, runs, ct)
            calls.append(1)
            if len(calls) == 3:
                mixture = component = 0
                for K, count in runs:
                    if K == 2:
                        cov[mixture if ct == "tied" else component] = -np.eye(2)
                        break
                    mixture, component = mixture + count, component + K * count
            return weights, means, cov

        monkeypatch.setattr(gmm_mod, "_m_step", poison)
        grid = em_fit(X, [1, 2, 3], cov_type, seed=seeds, max_iter=40)
        assert isinstance(grid[1], np.linalg.LinAlgError)
        _assert_same_fit(grid[0], solo[1])
        _assert_same_fit(grid[2], solo[3])
        calls.clear()
        _, table = select_model(X, [1, 2, 3], (cov_type,), seed=0, max_iter=40)
        assert [r.K for r in table] == [1, 3]

    @pytest.mark.parametrize("cov_type", ["tied", "full"])
    def test_covariances_exactly_symmetric(self, cov_type):
        X = three_clusters(n_per=50, d=4, seed=6) @ np.random.default_rng(6).standard_normal((4, 4))
        for seed in range(4):
            for K in (1, 2, 3, 5):
                cov = em_fit(X, K, cov_type, seed=seed, max_iter=30)[0].covariances
                assert np.array_equal(cov, np.swapaxes(cov, -1, -2)), (seed, K)

    @pytest.mark.parametrize("cov_type", COV_TYPES)
    def test_losing_restart_is_never_validated(self, cov_type, monkeypatch):
        # Every restart but the kept one is poisoned in its last M-step, after its log-likelihood is
        # recorded, so it ranks as it would clean.  Only the kept restart becomes a GMMModel.
        X, max_iter = three_clusters(n_per=60, d=3, seed=5), 12
        fit = dict(cov_type=cov_type, seed=0, max_iter=max_iter, tol=-np.inf)  # every restart runs max_iter steps
        clean, clean_history = em_fit(X, 3, **fit)
        calls, poisoned, m_step = [], [], gmm_mod._m_step

        def poison_losers(*args):
            weights, means, cov = m_step(*args)
            calls.append(1)
            # the restarts lie end to end, three components each; tied holds one covariance per restart
            per_restart = [a.reshape(-1, 3, *a.shape[1:]) for a in (weights, means, cov)]
            if cov_type == "tied":
                per_restart[2] = cov[:, None]
            for w, mu, c in zip(*per_restart) if len(calls) == max_iter else ():
                if not np.array_equal(mu + X.mean(axis=0), clean.means):
                    c[...] = np.nan
                    poisoned.append((w, mu, c[0] if cov_type == "tied" else c))
            return weights, means, cov

        monkeypatch.setattr(gmm_mod, "_m_step", poison_losers)
        builds, validate = [], GMMModel.__post_init__
        monkeypatch.setattr(GMMModel, "__post_init__", lambda self: builds.append(1) or validate(self))
        model, history = em_fit(X, 3, **fit)
        assert len(builds) == 1 and history == clean_history and len(poisoned) == gmm_mod.N_RESTARTS - 1
        for key in ("weights", "means", "covariances"):
            assert np.array_equal(getattr(model, key), getattr(clean, key))
        for loser in poisoned:
            with pytest.raises(ValueError, match="non-finite"):
                GMMModel(*loser, cov_type)

    @pytest.mark.parametrize("cov_type", ["spherical", "diag", "full"])
    def test_empty_component_is_reseeded(self, cov_type, caplog, monkeypatch):
        # Six components on three tight 1-D clusters: one restart at this seed empties a
        # component, which takes the worst-fit row; keep that restart alone.
        monkeypatch.setattr(gmm_mod, "N_RESTARTS", 1)
        X = three_clusters(n_per=20, d=1, seed=2)
        with caplog.at_level(logging.INFO, logger="fnode.gmm"):
            # every step up to max_iter: this restart empties a component after the default tol would stop it
            model, history = em_fit(X, K=6, cov_type=cov_type, seed=2, max_iter=50, tol=-np.inf)
        assert any(r.getMessage().startswith("re-seeding empty component") for r in caplog.records)
        assert model.n_components == 6 and np.all(model.weights > 0)
        # every mean is a weighted average of rows, so it stays inside the bank's range
        assert np.all((model.means >= X.min(axis=0) - 1e-9) & (model.means <= X.max(axis=0) + 1e-9))
        assert np.all(np.isfinite(score_rows(model, X))) and np.all(np.isfinite(history))

    @pytest.mark.parametrize("shape", [(), (12,), (4, 3, 2)])
    def test_bank_not_rank_two_rejected(self, shape):
        X = np.arange(float(np.prod(shape))).reshape(shape)
        want = re.escape(f"bank must be [n, d], got shape {list(shape)}")
        with pytest.raises(ValueError, match=want):
            em_fit(X, K=1, cov_type="diag", seed=0)
        with pytest.raises(ValueError, match=want):
            select_model(X, [1], ("diag",), seed=0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        X = three_clusters(n_per=20, d=2)
        with pytest.raises(ValueError, match="max_iter"):
            em_fit(X, K=2, cov_type="diag", seed=0, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter"):
            select_model(X, [1, 2], ("diag",), seed=0, max_iter=max_iter)

    def test_nan_tol_rejected(self):
        # every comparison with NaN is false, so each fit would run to max_iter and report no convergence
        X = three_clusters(n_per=20, d=2)
        with pytest.raises(ValueError, match="tol"):
            em_fit(X, K=2, cov_type="diag", seed=0, tol=np.nan)
        with pytest.raises(ValueError, match="tol"):
            select_model(X, [1, 2], ("diag",), seed=0, tol=np.nan)

    @pytest.mark.parametrize("components", [[0], [0, 1], range(-1, 2)])
    def test_component_count_below_one_rejected(self, components):
        X = three_clusters(n_per=20, d=2)
        with pytest.raises(ValueError, match="every K must be >= 1"):
            select_model(X, components, ("diag",), seed=0)

    @pytest.mark.parametrize("components, cov_types", [([2, 2], ("diag",)), ([1, 2], ("diag", "tied", "diag"))])
    def test_repeated_grid_entry_rejected(self, components, cov_types, monkeypatch):
        # refused before any fit, where it would repeat identical fits and table rows
        monkeypatch.setattr(gmm_mod, "em_fit", None)
        with pytest.raises(ValueError, match="repeat an entry"):
            select_model(three_clusters(n_per=20, d=2), components, cov_types, seed=0)

    def test_unknown_covariance_type_named(self):
        with pytest.raises(ValueError, match=re.escape("unknown covariance types ['bogus']")):
            select_model(three_clusters(n_per=20, d=2), [1], ("diag", "bogus"), seed=0)


class TestBIC:
    def test_param_counts(self):
        def mk(K, d, ct):
            cov = {
                "spherical": np.ones(K),
                "diag": np.ones((K, d)),
                "tied": np.eye(d),
                "full": np.tile(np.eye(d), (K, 1, 1)),
            }[ct]
            return GMMModel(np.full(K, 1.0 / K), np.zeros((K, d)), cov, ct)

        # K=1 spherical, d=2: means 2 + weights 0 + cov 1 = 3
        assert _n_params(mk(1, 2, "spherical")) == 3
        assert _n_params(mk(3, 2, "diag")) == 3 * 2 + 2 + 6
        assert _n_params(mk(2, 3, "tied")) == 2 * 3 + 1 + 6
        assert _n_params(mk(2, 3, "full")) == 2 * 3 + 1 + 12
        # nested penalties: full > diag for the same K at d >= 2
        assert _n_params(mk(4, 3, "full")) > _n_params(mk(4, 3, "diag"))

    def test_formula_and_doubling_penalty(self):
        X = three_clusters(n_per=50)
        _, (row,) = select_model(X, [3], ("diag",), seed=0)
        _, (row2,) = select_model(np.concatenate([X, X]), [3], ("diag",), seed=0)
        assert row.params == row2.params
        assert row.bic == pytest.approx(-2 * row.loglik + row.params * math.log(len(X)))
        # doubling n adds params * ln(2) to the penalty, whatever the two fits
        penalty_1 = row.bic + 2 * row.loglik
        penalty_2 = row2.bic + 2 * row2.loglik
        assert penalty_2 - penalty_1 == pytest.approx(row.params * math.log(2), abs=1e-9)


class TestSelectModel:
    def test_recovers_three_clusters(self):
        X = three_clusters()
        best, table = select_model(X, range(1, 7), ("diag", "spherical"), seed=0)
        assert best.n_components == 3
        assert sum(r.selected for r in table) == 1

    def test_single_tight_cluster_selects_k1(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((300, 2)) * 0.1
        best, _ = select_model(X, range(1, 6), ("diag",), seed=0)
        assert best.n_components == 1

    def test_row_permutation_invariant_selection(self):
        X = three_clusters(seed=8)
        perm = np.random.default_rng(0).permutation(X.shape[0])
        best_a, _ = select_model(X, range(1, 6), ("spherical", "diag"), seed=3)
        best_b, _ = select_model(X[perm], range(1, 6), ("spherical", "diag"), seed=3)
        assert (best_a.n_components, best_a.cov_type) == (best_b.n_components, best_b.cov_type)

    def test_d1_spherical_and_diag_tie_goes_to_spherical(self):
        # At d = 1 the two types are one model with one parameter count; their BICs differ
        # only by rounding, which the row order moves.
        X = three_clusters(seed=8)
        for p in range(12):
            perm = np.random.default_rng(p).permutation(X.shape[0])
            best, table = select_model(X[perm], [3], ("diag", "spherical"), seed=3)
            assert best.cov_type == "spherical", [(r.cov_type, r.bic) for r in table]

    @pytest.mark.parametrize("seed", [7, 10, 21, 29])
    def test_k1_tied_and_full_tie_goes_to_tied(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 3))
        best, table = select_model(X, [1], ("full", "tied"), seed=seed)
        assert best.cov_type == "tied", [(r.cov_type, r.bic) for r in table]

    def test_each_cell_fitted_once_through_the_module(self, monkeypatch):
        # select_model looks em_fit up on the module once per covariance type, with the type as its third
        # positional argument and that type's whole K grid, so a probe rebinding gmm.em_fit sees every fit
        X = three_clusters(n_per=40)
        calls, fit = [], gmm_mod.em_fit
        probe = lambda X, Ks, ct, **kw: calls.append((list(Ks), ct)) or fit(X, Ks, ct, **kw)  # noqa: E731
        monkeypatch.setattr(gmm_mod, "em_fit", probe)
        _, table = select_model(X, [1, 2, 3], ("spherical", "diag"), seed=0)
        assert [ct for _, ct in calls] == ["spherical", "diag"]
        cells = sorted((K, ct) for Ks, ct in calls for K in Ks)
        assert cells == sorted((r.K, r.cov_type) for r in table) and len(cells) == 6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_diag_mixture_selected(self, seed):
        # Three far-apart components with unequal per-dimension variances, 500 rows in 16 dimensions:
        # BIC over K 1-8 and every covariance type must find exactly the planted (3, diag).
        rng = np.random.default_rng(seed)
        means, variances = rng.normal(0.0, 4.0, (3, 16)), rng.uniform(0.2, 2.0, (3, 16))
        comp = rng.choice(3, size=500, p=[0.25, 0.35, 0.4])
        X = means[comp] + np.sqrt(variances[comp]) * rng.standard_normal((500, 16))
        best, table = select_model(X, range(1, 9), seed=seed, max_iter=50)
        assert (best.n_components, best.cov_type) == (3, "diag")
        assert [(r.K, r.cov_type) for r in table if r.selected] == [(3, "diag")] and len(table) == 32

    def test_each_fit_scored_once(self, monkeypatch):
        X = three_clusters(n_per=40)
        calls = []
        score = gmm_mod.score_rows
        monkeypatch.setattr(gmm_mod, "score_rows", lambda m, rows: calls.append(1) or score(m, rows))
        best, table = select_model(X, [1, 2, 3], ("spherical", "diag"), seed=0)
        assert len(calls) == len(table) == 6
        monkeypatch.undo()
        for r in table:
            if r.selected:
                assert r.bic == -2.0 * r.loglik + r.params * np.log(X.shape[0])
                assert r.loglik == float(score_rows(best, X).sum())

    def test_rows_report_em_convergence(self):
        X = three_clusters(n_per=80, d=2, seed=3)
        _, short = select_model(X, [3], ("diag",), seed=0, max_iter=2)
        assert (short[0].n_iter, short[0].converged) == (2, False)
        # a gain below tol on the last allowed step still counts as converged
        _, loose = select_model(X, [3], ("diag",), seed=0, max_iter=2, tol=1e9)
        assert (loose[0].n_iter, loose[0].converged) == (2, True)
        _, single = select_model(X, [1], ("diag", "full"), seed=0)
        for r in single:
            assert r.converged and 2 <= r.n_iter <= 200

    def test_csv_table(self):
        X = three_clusters(n_per=40)
        _, table = select_model(X, [2, 3], ("diag",), seed=0)
        text = selection_table_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == "K,cov_type,loglik,params,bic,selected"
        assert len(lines) == 3


class TestLogLikelihood:
    def test_standard_normal_at_origin(self):
        model = GMMModel(np.array([1.0]), np.zeros((1, 1)), np.array([1.0]), "spherical")
        assert score_rows(model, [[0.0]])[0] == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_mode_beats_distant_point(self):
        model = GMMModel(
            np.array([0.9, 0.1]), np.array([[0.0], [8.0]]), np.array([1.0, 1.0]), "spherical"
        )
        at_mode, distant = score_rows(model, [[0.0], [5.0]])
        assert at_mode >= distant

    def test_far_point_is_finite(self):
        model = GMMModel(np.array([1.0]), np.zeros((1, 2)), np.array([1.0]), "spherical")
        val = score_rows(model, [[100.0, 100.0]])[0]
        assert math.isfinite(val) and val < -1000

    def test_density_integrates_to_one_1d(self):
        model = GMMModel(
            np.array([0.4, 0.6]), np.array([[-1.0], [2.0]]), np.array([[0.5], [1.5]]), "diag"
        )
        xs = np.linspace(-14.0, 15.0, 20001)
        dens = np.exp(score_rows(model, xs[:, None]))
        integral = np.trapezoid(dens, xs)
        assert integral == pytest.approx(1.0, abs=1e-4)


def _oracle_log_density(weights, means, full_covs, X):
    """Mixture log-density by one Cholesky solve per component on [K, d, d] covariances."""
    d = X.shape[1]
    comp = np.empty((X.shape[0], len(weights)))
    for k, cov in enumerate(full_covs):
        L = np.linalg.cholesky(cov)
        y = np.linalg.solve(L, (X - means[k]).T)
        half_logdet = np.sum(np.log(np.diag(L)))
        comp[:, k] = math.log(weights[k]) - 0.5 * d * math.log(2 * math.pi) - half_logdet - 0.5 * np.sum(y * y, axis=0)
    top = comp.max(axis=1)
    return top + np.log(np.sum(np.exp(comp - top[:, None]), axis=1))


def _random_mixture(cov_type, K, d, seed, offset=0.0):
    """A GMMModel with random SPD covariances, its [K, d, d] covariances and 60 rows around it."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, K)
    weights /= weights.sum()
    means = rng.normal(0.0, 2.0, (K, d)) + offset
    A = rng.standard_normal((K, d, d))
    spd = A @ A.transpose(0, 2, 1) / d + 0.3 * np.eye(d)
    variances = rng.uniform(0.3, 2.0, (K, d))
    cov, full = {
        "spherical": (variances[:, 0], variances[:, :1, None] * np.eye(d)),
        "diag": (variances, variances[:, :, None] * np.eye(d)),
        "tied": (spd[0], np.broadcast_to(spd[0], (K, d, d))),
        "full": (spd, spd),
    }[cov_type]
    X = means[rng.integers(K, size=60)] + 1.5 * rng.standard_normal((60, d))
    return GMMModel(weights, means, cov, cov_type), full, X


class TestScoreRowsOracle:
    # At offset 1e4 the expanded quadratics are only accurate because rows and
    # means are centred before expanding.
    @pytest.mark.parametrize("offset, rtol", [(0.0, 1e-10), (1e4, 1e-9)])
    @pytest.mark.parametrize("cov_type", COV_TYPES)
    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("K", [1, 4])
    def test_matches_per_component_cholesky_solve(self, cov_type, d, K, offset, rtol):
        model, full, X = _random_mixture(cov_type, K, d, seed=10 * d + K, offset=offset)
        want = _oracle_log_density(model.weights, model.means, full, X)
        np.testing.assert_allclose(score_rows(model, X), want, rtol=rtol, atol=0)


class TestStackedEStep:
    # Mixtures of 4, 4 and 2 components laid end to end and scored in one call, as EM scores a grid,
    # each against the oracle on its own.  Rows and means are centred on one point first, as EM centres them.
    @pytest.mark.parametrize("offset, rtol", [(0.0, 1e-10), (1e4, 1e-9)])
    @pytest.mark.parametrize("cov_type", COV_TYPES)
    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_each_mixture_matches_per_component_cholesky_solve(self, cov_type, d, offset, rtol):
        trio = [_random_mixture(cov_type, K, d, seed=20 * d + r, offset=offset) for r, K in enumerate((4, 4, 2))]
        models, X = [m for m, _, _ in trio], np.concatenate([rows for _, _, rows in trio])
        centre = np.concatenate([m.means for m in models]).mean(axis=0)
        fields = ("weights", "means", "covariances")
        weights, means, cov = (np.concatenate([getattr(m, k) for m in models]) for k in fields)
        if cov_type == "tied":  # one covariance per mixture
            cov = np.stack([m.covariances for m in models])
        D, runs = gmm_mod._design(X - centre, cov_type), ((4, 2), (2, 1))
        weighted = gmm_mod._weighted_log_prob(D, weights, means - centre, cov, runs, cov_type)
        assert weighted.shape == (10, X.shape[0])
        norm, resp = gmm_mod._posterior(weighted, runs)
        assert resp.shape == (10, X.shape[0]) and norm.shape == (3, X.shape[0])
        np.testing.assert_allclose([resp[:4].sum(axis=0), resp[4:8].sum(axis=0), resp[8:].sum(axis=0)], 1.0, rtol=1e-14)
        for r, (model, full, _) in enumerate(trio):
            want = _oracle_log_density(model.weights, model.means, full, X)
            np.testing.assert_allclose(norm[r], want, rtol=rtol, atol=0)


# Each row is scored on its own, whatever the order of the others.  Equal up to
# rounding: a matrix product need not sum a row the same way at every position.
@settings(max_examples=40, deadline=None)
@given(
    cov_type=st.sampled_from(COV_TYPES),
    K=st.integers(1, 4),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_score_rows_commutes_with_row_permutation(cov_type, K, d, seed):
    model, _, X = _random_mixture(cov_type, K, d, seed)
    perm = np.random.default_rng(seed).permutation(X.shape[0])
    np.testing.assert_allclose(score_rows(model, X[perm]), score_rows(model, X)[perm], rtol=1e-13, atol=0)


class TestFullMStep:
    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("K", [1, 4])
    def test_matches_weighted_sample_covariance(self, d, K):
        # Components up to 10 standard deviations out, on centred rows, as EM fits them. Each
        # component's responsibilities sit mostly on its own cluster, so the expanded second
        # moment of the M-step cancels most of its magnitude.
        rng = np.random.default_rng(100 * d + K)
        centers = rng.uniform(-10.0, 10.0, (K, d))
        labels = rng.integers(K, size=200)
        X = centers[labels] + rng.standard_normal((200, d))
        X -= X.mean(axis=0)
        logits = 6.0 * (np.arange(K)[:, None] == labels) + rng.standard_normal((K, 200))
        resp = np.exp(logits - logits.max(axis=0))
        resp /= resp.sum(axis=0)
        D = gmm_mod._design(X, "full")
        weights, means, cov = gmm_mod._m_step(D, X.T @ X, resp, resp.sum(axis=1), ((K, 1),), "full")
        for k in range(K):
            want = np.cov(X.T, aweights=resp[k], bias=True).reshape(d, d) + gmm_mod.COV_FLOOR * np.eye(d)
            np.testing.assert_allclose(cov[k], want, rtol=0, atol=1e-10 * np.abs(want).max())
            np.testing.assert_allclose(means[k], np.average(X, axis=0, weights=resp[k]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights, resp.mean(axis=1), rtol=1e-12)


class TestTiedMStep:
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("K", [1, 4])
    def test_matches_pooled_weighted_sample_covariance(self, d, K, offset):
        # The bank sits at ``offset`` and is centred, as em_fit centres it; the oracle works on the raw rows.
        # The last row is one-hot to the last component, as a re-seeded empty component holds it.
        rng = np.random.default_rng(100 * d + K)
        centers = rng.uniform(-10.0, 10.0, (K, d)) + offset
        labels = rng.integers(K, size=200)
        X = centers[labels] + rng.standard_normal((200, d)) @ rng.standard_normal((d, d))
        logits = 6.0 * (np.arange(K)[:, None] == labels) + rng.standard_normal((K, 200))
        resp = np.exp(logits - logits.max(axis=0))
        resp[:, -1] = np.arange(K) == K - 1
        resp /= resp.sum(axis=0)
        want = np.zeros((d, d))
        for k in range(K):
            diff = X - np.average(X, axis=0, weights=resp[k])
            want += (resp[k][:, None] * diff).T @ diff
        want = want / X.shape[0] + gmm_mod.COV_FLOOR * np.eye(d)
        Xc = X - X.mean(axis=0)
        D = gmm_mod._design(Xc, "tied")
        weights, means, (cov,) = gmm_mod._m_step(D, Xc.T @ Xc, resp, resp.sum(axis=1), ((K, 1),), "tied")
        np.testing.assert_allclose(cov, want, rtol=0, atol=1e-10 * np.abs(want).max())
        assert np.array_equal(cov, cov.T)
        for k in range(K):
            want_mean = np.average(X, axis=0, weights=resp[k]) - X.mean(axis=0)
            np.testing.assert_allclose(means[k], want_mean, rtol=0, atol=1e-12 * max(1.0, offset))
        np.testing.assert_allclose(weights, resp.mean(axis=1), rtol=1e-12)


class TestSample:
    def test_degenerate_covariance_concentrates_on_mean(self):
        model = GMMModel(np.array([1.0]), np.array([[2.0, -1.0]]), np.array([1e-6]), "spherical")
        rows = sample(model, 50, seed=0)
        np.testing.assert_allclose(rows, np.tile([2.0, -1.0], (50, 1)), atol=0.01)

    def test_component_frequencies_match_weights(self):
        w = np.array([0.3, 0.7])
        model = GMMModel(w, np.array([[-50.0], [50.0]]), np.array([1.0, 1.0]), "spherical")
        rows = sample(model, 10000, seed=1)
        frac_hi = float((rows[:, 0] > 0).mean())
        bound = 3 * math.sqrt(w[1] * w[0] / 10000)
        assert abs(frac_hi - w[1]) <= bound

    def test_same_seed_identical(self):
        model = GMMModel(
            np.array([0.5, 0.5]), np.array([[0.0], [3.0]]), np.array([[1.0], [0.5]]), "diag"
        )
        np.testing.assert_array_equal(sample(model, 64, seed=9), sample(model, 64, seed=9))

    def test_tied_draws_equal_its_full_copy(self):
        # one factor of the shared covariance serves every component, as K factors of it would
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        tied = GMMModel(np.array([0.2, 0.3, 0.5]), rng.standard_normal((3, 3)), A @ A.T + np.eye(3), "tied")
        full = GMMModel(tied.weights, tied.means, np.tile(tied.covariances, (3, 1, 1)), "full")
        assert np.array_equal(sample(tied, 200, seed=2), sample(full, 200, seed=2))

    @pytest.mark.parametrize("cov_type", COV_TYPES)
    def test_sample_moments_match_model(self, cov_type):
        rng = np.random.default_rng(0)
        d = 2
        mean = np.array([[1.0, -2.0]])
        cov = {
            "spherical": np.array([0.5]),
            "diag": np.array([[0.5, 1.5]]),
            "tied": np.array([[0.8, 0.3], [0.3, 0.6]]),
            "full": np.array([[[0.8, 0.3], [0.3, 0.6]]]),
        }[cov_type]
        model = GMMModel(np.array([1.0]), mean, cov, cov_type)
        rows = sample(model, 20000, seed=3)
        np.testing.assert_allclose(rows.mean(axis=0), mean[0], atol=0.05)


class TestCollect:
    def make_model_and_data(self):
        data = generate_set_a(n_per_class=1, n_classes=3, n_points=4, seed=0)
        m = FNODEModel.build(
            obs_dim=1, n_points=4, p=2, d_gamma=3, f_hidden=(6,), enc_hidden=(8,),
            dec_hidden=(6,), hyper_hidden=(6,), seed=0,
        )
        return m, data

    def test_row_counts_and_provenance(self):
        m, data = self.make_model_and_data()
        bank = collect_gamma_samples(m, data, n_gamma=4, seed=0)
        assert bank.shape == (12, 3)
        # rows 4j..4j+3 are trajectory j's draws: standardised by its own
        # posterior, the bank gives back the seed's noise stream in data order
        mean, std = posterior(m, data.trajectories)
        mu, sd = np.repeat(mean[:, m.p :], 4, axis=0), np.repeat(std[:, m.p :], 4, axis=0)
        np.testing.assert_allclose((bank - mu) / sd, np.random.default_rng(0).standard_normal((12, 3)), atol=1e-12)

    def test_degenerate_posterior_returns_means(self):
        m, data = self.make_model_and_data()
        # force the log-variance half of the encoder output to -80
        last = m.enc_gamma.spec.n_layers - 1
        m.enc_gamma.params[f"b{last}"].data[m.d_gamma :] = -80.0
        bank = collect_gamma_samples(m, data, n_gamma=2, seed=0)
        mu = posterior(m, data.trajectories)[0][:, m.p :]
        np.testing.assert_allclose(bank, np.repeat(mu, 2, axis=0), atol=1e-12)

    def test_sample_mean_approaches_posterior_mean(self):
        m, data = self.make_model_and_data()
        bank = collect_gamma_samples(m, data, n_gamma=1000, seed=1)
        mean, std = posterior(m, data.trajectories)
        mu, sd = mean[:, m.p :], std[:, m.p :]
        for j in range(3):
            rows = bank[1000 * j : 1000 * (j + 1)]
            bound = 3 * sd[j] / math.sqrt(1000)
            assert np.all(np.abs(rows.mean(axis=0) - mu[j]) <= bound)

    def test_joint_mode_concatenates_z0(self):
        m, data = self.make_model_and_data()
        bank = collect_gamma_samples(m, data, n_gamma=2, seed=0, include_z0=True)
        assert bank.shape == (6, m.p + m.d_gamma)


def test_gmm_has_no_relative_import():
    # the mixture module works on plain arrays: it must not reach into the model's modules
    tree = ast.parse(Path(gmm_mod.__file__).read_text(encoding="utf-8"))
    relative = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == []
