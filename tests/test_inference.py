import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fnode import gmm, inference
from fnode.gmm import GMMModel, em_fit
from fnode.inference import (
    CredibleBand,
    ZeroAcceptance,
    collect_gamma_samples,
    credible_band,
    neighborhood_sample,
    ood_calibrate,
    ood_scores,
    posterior,
    reconstruct,
    rollout,
    sample_trajectories,
    transfer_trajectory,
)
from fnode.model import FNODEModel, TrainConfig, fit
from fnode.nets import batch_features, weight_count
from fnode.syndata import generate_set_a


@pytest.fixture(scope="module")
def trained():
    data = generate_set_a(n_per_class=6, n_classes=4, n_points=6, seed=3)
    m = FNODEModel.build(
        obs_dim=1, n_points=6, p=3, d_gamma=4, f_hidden=(8, 8), enc_hidden=(16,),
        dec_hidden=(8,), hyper_hidden=(8,), sigma_x=0.1, obs_scale=3.0, seed=0,
    )
    fit(m, data, TrainConfig(epochs=10, batch_size=8, kl_anneal_epochs=5, seed=0))
    bank = collect_gamma_samples(m, data, n_gamma=4, seed=1)
    S, _ = em_fit(bank, K=4, cov_type="diag", seed=0)
    return m, data, S


def numpy_posterior(m, trajs):
    """(mean, std) of the latent rows (z0 | code), from a plain-numpy forward of both encoders."""
    halves = []
    for enc in (m.enc_z0, m.enc_gamma):
        h = batch_features(trajs, m.obs_scale)
        for i in range(enc.spec.n_layers):
            h = h @ enc.params[f"w{i}"].data.T + enc.params[f"b{i}"].data
            if i < enc.spec.n_layers - 1:
                h = np.tanh(h)
        halves.append(np.split(h, 2, axis=1))
    mean = np.concatenate([mu for mu, _ in halves], axis=1)
    std = np.exp(np.concatenate([lv for _, lv in halves], axis=1) / 2)
    return mean, std


class TestPosterior:
    @pytest.mark.parametrize("rows", [[5], [0, 9, 17]])
    def test_matches_numpy_encoders(self, trained, rows):
        m, data, _ = trained
        trajs = [data.trajectories[j] for j in rows]
        mean, std = posterior(m, trajs)
        want_mean, want_std = numpy_posterior(m, trajs)
        assert mean.shape == std.shape == (len(rows), m.p + m.d_gamma)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-12)
        np.testing.assert_allclose(std, want_std, rtol=1e-12)

    def test_columns_are_z0_then_code(self, trained):
        # an encoder whose output layer is zero gives N(0, 1) in its own columns and leaves the others
        import copy

        m, data, _ = trained
        trajs = data.trajectories[:3]
        mean, std = posterior(m, trajs)
        for name, own in (("enc_z0", np.arange(m.p)), ("enc_gamma", np.arange(m.p, m.p + m.d_gamma))):
            m2 = copy.deepcopy(m)
            enc = getattr(m2, name)
            for key in (f"w{enc.spec.n_layers - 1}", f"b{enc.spec.n_layers - 1}"):
                enc.params[key].data[...] = 0.0
            other = np.setdiff1d(np.arange(m.p + m.d_gamma), own)
            mean2, std2 = posterior(m2, trajs)
            np.testing.assert_array_equal(mean2[:, own], 0.0)
            np.testing.assert_array_equal(std2[:, own], 1.0)
            np.testing.assert_array_equal(mean2[:, other], mean[:, other])
            np.testing.assert_array_equal(std2[:, other], std[:, other])


class TestSampleTrajectories:
    def test_degenerate_sampler_matches_forced_code(self, trained):
        m, data, _ = trained
        src = data.trajectories[0]
        mean = posterior(m, [src])[0]
        S = GMMModel(
            np.array([1.0]), mean[:, m.p :], np.array([1e-6]), "spherical"
        )
        out = sample_trajectories(m, S, src, src.times, n=1, seed=0)[0]
        forced = rollout(m, mean, float(src.times[0]), src.times)[0]
        np.testing.assert_allclose(out, forced, atol=1e-2)

    def test_fixed_seed_identical_batches(self, trained):
        m, data, S = trained
        src = data.trajectories[1]
        a = sample_trajectories(m, S, src, src.times, n=5, seed=42)
        b = sample_trajectories(m, S, src, src.times, n=5, seed=42)
        assert a.shape == (5, len(src.times), m.obs_dim)
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_n(self, trained):
        m, data, S = trained
        with pytest.raises(ValueError):
            sample_trajectories(m, S, data.trajectories[0], data.trajectories[0].times, n=0)


class TestEncodesOnce:
    """Each readout encodes what it reads in one batch: one call per encoder."""

    @pytest.mark.parametrize("readout", ["transfer", "neighborhood", "sample", "reconstruct", "band", "band_gmm"])
    def test_two_encoder_calls(self, trained, monkeypatch, readout):
        m, data, S = trained
        src, ex = data.trajectories[0], data.trajectories[9]
        encode, rows = inference.encode_features, []

        def counted(enc, feats):
            rows.append(len(feats))
            return encode(enc, feats)

        monkeypatch.setattr(inference, "encode_features", counted)
        {
            "transfer": lambda: transfer_trajectory(m, src, ex, src.times),
            "neighborhood": lambda: neighborhood_sample(m, S, ex, 1e3, 3, seed=0),
            "sample": lambda: sample_trajectories(m, S, src, src.times, 3, seed=0),
            "reconstruct": lambda: reconstruct(m, src, src.times, use_posterior_mean=False),
            "band": lambda: credible_band(m, S, src, src.times, n_draws=20),
            "band_gmm": lambda: credible_band(m, S, src, src.times, n_draws=20, source="gmm"),
        }[readout]()
        assert rows == ([2, 2] if readout == "transfer" else [1, 1])


class TestRollout:
    def test_rows_land_in_place_across_solver_chunks(self, trained, monkeypatch):
        m, data, _ = trained
        src = data.trajectories[3]
        rng = np.random.default_rng(4)
        latents = np.hstack([rng.standard_normal((5, m.p)), rng.standard_normal((5, m.d_gamma))])
        whole = rollout(m, latents, float(src.times[0]), src.times)
        monkeypatch.setattr("fnode.inference.ROLLOUT_ROWS", 2)
        chunked = rollout(m, latents, float(src.times[0]), src.times)
        assert chunked.shape == (5, len(src.times), m.obs_dim)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-15)
        for b in range(5):
            alone = rollout(m, latents[b : b + 1], float(src.times[0]), src.times)[0]
            np.testing.assert_allclose(whole[b], alone, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("chunk", [256, 2])
    def test_per_row_grid_rows_match_their_own_shared_grid(self, trained, monkeypatch, chunk):
        m, data, _ = trained
        monkeypatch.setattr("fnode.inference.ROLLOUT_ROWS", chunk)
        rng = np.random.default_rng(5)
        latents = np.hstack([rng.standard_normal((5, m.p)), rng.standard_normal((5, m.d_gamma))])
        grid = np.stack([data.trajectories[j].times for j in (0, 7, 12, 7, 20)])
        rows = rollout(m, latents, None, grid)
        assert rows.shape == (5, grid.shape[1], m.obs_dim)
        for b in range(5):
            alone = rollout(m, latents[b : b + 1], float(grid[b, 0]), grid[b])[0]
            np.testing.assert_allclose(rows[b], alone, rtol=1e-12, atol=1e-15)

    def test_anchor_time_goes_with_a_shared_grid_only(self, trained):
        m, data, _ = trained
        times = data.trajectories[0].times
        latents = np.zeros((2, m.p + m.d_gamma))
        with pytest.raises(ValueError, match="anchor"):
            rollout(m, latents, float(times[0]), np.stack([times, times]))
        with pytest.raises(ValueError, match="anchor"):
            rollout(m, latents, None, times)
        for bad in (np.zeros((2, 2, 2)), np.stack([times] * 3)):
            with pytest.raises(ValueError, match="grid"):
                rollout(m, latents, None, bad)

    def test_decreasing_grid_a_whole_float_range_wide_is_refused_without_warning(self, trained):
        m, _, _ = trained
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="strictly increasing"):
                rollout(m, np.zeros((1, m.p + m.d_gamma)), 0.0, np.array([1e308, -1e308]))

    def test_rejects_unbatched_draws(self, trained):
        m, data, _ = trained
        src = data.trajectories[0]
        for bad in (np.zeros(m.p + m.d_gamma), np.zeros((1, m.d_gamma)), np.zeros((1, m.p + m.d_gamma + 1))):
            with pytest.raises(ValueError, match="p \\+ d_gamma"):
                rollout(m, bad, float(src.times[0]), src.times)

    @pytest.mark.parametrize("per_row", [False, True])
    def test_peak_memory_stays_near_the_weight_block(self, per_row):
        # Nothing is recorded, the hypernetwork's output layer is one dense
        # node that adds its bias, applies tanh and scales in place on its
        # matmul result, and the field's per-layer weights are views of theta.
        # So one [B, weight_count] block is live: the peak reads 1.14 blocks on
        # the shared grid and 1.43 on per-row grids, where the process's first
        # np.unique (in pick_rows) imports numpy.ma, about 1 MB.  Four ops that
        # each held an input and a result block read 2.14 on both.
        m = FNODEModel.build(obs_dim=1, n_points=10, seed=0)
        B = 40
        rng = np.random.default_rng(0)
        latents = np.hstack([rng.standard_normal((B, m.p)), rng.standard_normal((B, m.d_gamma))])
        times = np.linspace(0.0, 1.0, 10)
        args = (None, np.sort(rng.uniform(0.0, 1.0, (B, 10)), axis=1)) if per_row else (0.0, times)
        block = B * weight_count(m.f_spec) * 8
        tracemalloc.start()
        try:
            rollout(m, latents, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block, peak / block


class TestTransfer:
    def test_self_transfer_matches_posterior_mean_reconstruction(self, trained):
        m, data, _ = trained
        src = data.trajectories[2]
        out = transfer_trajectory(m, src, src, src.times)
        recon = reconstruct(m, src, src.times, use_posterior_mean=True)
        np.testing.assert_allclose(out, recon, rtol=1e-12)

    def test_idempotent(self, trained):
        m, data, _ = trained
        donor, exemplar = data.trajectories[0], data.trajectories[7]
        a = transfer_trajectory(m, donor, exemplar, donor.times)
        b = transfer_trajectory(m, donor, exemplar, donor.times)
        np.testing.assert_array_equal(a, b)

    def test_depends_on_exemplar_only_through_mean_code(self, trained):
        import copy

        m, data, _ = trained
        donor, exemplar = data.trajectories[0], data.trajectories[9]
        twin = copy.deepcopy(exemplar)
        a = transfer_trajectory(m, donor, exemplar, donor.times)
        b = transfer_trajectory(m, donor, twin, donor.times)
        np.testing.assert_array_equal(a, b)


class TestNeighborhood:
    def test_huge_delta_behaves_unconstrained(self, trained):
        m, data, S = trained
        codes, paths = neighborhood_sample(m, S, data.trajectories[3], delta=1e9, n=6, seed=0)
        assert codes.shape == (6, m.d_gamma)
        assert paths.shape == (6, len(data.trajectories[3].times), m.obs_dim)

    def test_tiny_delta_raises_zero_acceptance(self, trained):
        m, data, S = trained
        with pytest.raises(ZeroAcceptance, match="acceptance rate"):
            neighborhood_sample(
                m, S, data.trajectories[3], delta=1e-9, n=3, max_attempts=300, seed=0
            )

    @pytest.mark.parametrize("delta, n", [(math.nan, 3), (0.0, 3), (-1.0, 3), (1.0, 0), (1.0, -2)])
    def test_refuses_a_bad_delta_or_count(self, trained, delta, n):
        m, data, S = trained
        with pytest.raises(ValueError, match="delta must be positive|n must be >= 1"):
            neighborhood_sample(m, S, data.trajectories[3], delta=delta, n=n, max_attempts=300, seed=0)

    def test_accepted_codes_satisfy_constraint(self, trained):
        m, data, S = trained
        exemplar = data.trajectories[5]
        delta = 2.0
        codes, _ = neighborhood_sample(m, S, exemplar, delta=delta, n=8, seed=1)
        gamma_j = numpy_posterior(m, [exemplar])[0][0, m.p :]
        assert np.all(np.linalg.norm(codes - gamma_j, axis=1) <= delta)

    def test_acceptance_grows_with_delta(self, trained):
        m, data, S = trained
        exemplar = data.trajectories[5]
        counts = []
        for delta in (0.5, 1.5, 4.0):
            try:
                codes, _ = neighborhood_sample(
                    m, S, exemplar, delta=delta, n=10000, max_attempts=2000, seed=2
                )
                counts.append(len(codes))
            except ZeroAcceptance:
                counts.append(0)
        assert counts[0] <= counts[1] <= counts[2]


def linear_decoder_model(seed=0):
    # single-layer decoder and a frozen-at-zero field: decoded output is an
    # exact linear function of the Gaussian initial state
    m = FNODEModel.build(
        obs_dim=1, n_points=4, p=3, d_gamma=3, f_hidden=(6,), enc_hidden=(8,),
        dec_hidden=(), hyper_hidden=(6,), seed=seed,
    )
    m.hyper.params["lambda"].data *= 0.0
    return m


class TestCredibleBand:
    def test_zero_variance_collapses_band(self, trained):
        import copy

        m, data, _ = trained
        m2 = copy.deepcopy(m)
        for enc in (m2.enc_z0, m2.enc_gamma):
            last = enc.spec.n_layers - 1
            half = enc.spec.out_width // 2
            enc.params[f"w{last}"].data[half:, :] = 0.0
            enc.params[f"b{last}"].data[half:] = -80.0
        x = data.trajectories[0]
        band = credible_band(m2, None, x, x.times, n_draws=50, seed=0)
        np.testing.assert_allclose(band.lower, band.mean, atol=1e-12)
        np.testing.assert_allclose(band.upper, band.mean, atol=1e-12)

    def test_matches_gaussian_quantiles(self):
        m = linear_decoder_model()
        data = generate_set_a(n_per_class=1, n_classes=1, n_points=4, seed=0)
        x = data.trajectories[0]
        band = credible_band(m, None, x, x.times, n_draws=1000, level=0.95, seed=2)

        mean, std = numpy_posterior(m, [x])
        w = m.dec.params["w0"].data[0]
        mu = float(w @ mean[0, : m.p] + m.dec.params["b0"].data[0])
        sigma = math.sqrt(float((w**2) @ std[0, : m.p] ** 2))
        half_width = 1.96 * sigma
        for i in range(len(x.times)):
            np.testing.assert_allclose(band.upper[i, 0] - mu, half_width, rtol=0.05)
            np.testing.assert_allclose(mu - band.lower[i, 0], half_width, rtol=0.05)

    def test_nesting(self, trained):
        m, data, _ = trained
        x = data.trajectories[4]
        wide = credible_band(m, None, x, x.times, n_draws=200, level=0.99, seed=7)
        narrow = credible_band(m, None, x, x.times, n_draws=200, level=0.90, seed=7)
        assert np.all(wide.lower <= narrow.lower + 1e-12)
        assert np.all(narrow.upper <= wide.upper + 1e-12)

    def test_posterior_draws_match_per_draw_loop(self, trained):
        # reference: one rollout per draw, each draw taking its z0 noise and
        # then its code noise from the one generator
        m, data, S = trained
        x = data.trajectories[4]
        band = credible_band(m, S, x, x.times, n_draws=20, level=0.9, seed=7)
        mean, std = numpy_posterior(m, [x])
        rng = np.random.default_rng(7)
        paths = []
        for _ in range(20):
            z0 = mean[:, : m.p] + std[:, : m.p] * rng.standard_normal(m.p)
            g = mean[:, m.p :] + std[:, m.p :] * rng.standard_normal(m.d_gamma)
            paths.append(rollout(m, np.concatenate([z0, g], axis=1), float(x.times[0]), x.times)[0])
        np.testing.assert_allclose(band.mean, np.mean(paths, axis=0), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(band.lower, np.quantile(paths, 0.05, axis=0), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(band.upper, np.quantile(paths, 0.95, axis=0), rtol=1e-12, atol=1e-15)

    def test_gmm_source(self, trained):
        m, data, S = trained
        x = data.trajectories[0]
        band = credible_band(m, S, x, x.times, n_draws=50, seed=0, source="gmm")
        assert band.n_draws == 50

    def test_joint_gmm_source_draws_whole_latent_rows(self, trained):
        # a sampler over (z0 | code) supplies each draw's initial state as well as its code
        m, data, _ = trained
        x = data.trajectories[4]
        S, _ = em_fit(collect_gamma_samples(m, data, n_gamma=3, seed=2, include_z0=True), K=2, seed=0)
        band = credible_band(m, S, x, x.times, n_draws=30, level=0.9, seed=6, source="gmm")
        paths = rollout(m, gmm.sample(S, 30, seed=7), float(x.times[0]), x.times)
        np.testing.assert_array_equal(band.mean, paths.mean(axis=0))
        # the band's quantile levels as it computes them: (1 - 0.9) / 2 is 0.04999999999999999, not 0.05
        np.testing.assert_array_equal(band.lower, np.quantile(paths, (1.0 - 0.9) / 2.0, axis=0))
        np.testing.assert_array_equal(band.upper, np.quantile(paths, (1.0 + 0.9) / 2.0, axis=0))

    def test_validates_level_and_draws(self, trained):
        m, data, _ = trained
        x = data.trajectories[0]
        with pytest.raises(ValueError):
            credible_band(m, None, x, x.times, n_draws=5)
        with pytest.raises(ValueError):
            credible_band(m, None, x, x.times, n_draws=50, level=1.5)

    def test_band_invariant_enforced(self):
        with pytest.raises(ValueError):
            CredibleBand(
                times=np.array([0.0]),
                lower=np.array([[1.0]]),
                mean=np.array([[0.0]]),
                upper=np.array([[2.0]]),
            )


class TestOOD:
    def test_threshold_is_order_statistic(self, trained):
        m, data, S = trained
        scores = ood_scores(m, S, data, n_gamma=8, seed=0)
        thr = ood_calibrate(m, S, data, n_gamma=8, quantile=0.95, seed=0)
        n = len(scores)
        assert thr == np.sort(scores)[math.ceil(0.95 * n) - 1]

    def test_quantile_one_is_max(self, trained):
        m, data, S = trained
        scores = ood_scores(m, S, data, n_gamma=8, seed=0)
        thr = ood_calibrate(m, S, data, n_gamma=8, quantile=1.0, seed=0)
        assert thr == scores.max()

    def test_train_flag_rate_matches_quantile(self, trained):
        m, data, S = trained
        thr = ood_calibrate(m, S, data, n_gamma=8, quantile=0.95, seed=0)
        rate = np.mean(ood_scores(m, S, data, n_gamma=8, seed=0) > thr)
        assert abs(rate - 0.05) <= 0.05

    def test_flag_decision_invariant_to_monotone_rescaling(self, trained):
        m, data, S = trained
        thr = ood_calibrate(m, S, data, n_gamma=8, quantile=0.9, seed=0)
        scores = ood_scores(m, S, data, n_gamma=8, seed=0)
        np.testing.assert_array_equal(scores > thr, 3.0 * scores + 1.0 > 3.0 * thr + 1.0)

    def test_degenerate_sampler_identical_scores(self, trained):
        import copy

        m, data, _ = trained
        m2 = copy.deepcopy(m)
        last = m2.enc_gamma.spec.n_layers - 1
        half = m2.enc_gamma.spec.out_width // 2
        m2.enc_gamma.params[f"w{last}"].data[:, :] = 0.0
        m2.enc_gamma.params[f"b{last}"].data[:] = 0.0
        m2.enc_gamma.params[f"b{last}"].data[half:] = -80.0
        S = GMMModel(np.array([1.0]), np.zeros((1, m2.d_gamma)), np.array([1.0]), "spherical")
        scores = ood_scores(m2, S, data, n_gamma=4, seed=0)
        assert np.ptp(scores) < 1e-9
        thr = ood_calibrate(m2, S, data, n_gamma=4, quantile=0.95, seed=0)
        assert thr == pytest.approx(scores[0])

    def test_sampler_of_neither_width_raises_like_rollout(self, trained):
        # a width-1 sampler matches neither the code (4) nor (z0 | code) (7)
        m, data, _ = trained
        S = GMMModel(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)), "diag")
        with pytest.raises(ValueError, match="p \\+ d_gamma") as ours:
            ood_scores(m, S, data, n_gamma=4, seed=0)
        src = data.trajectories[0]
        with pytest.raises(ValueError) as theirs:
            sample_trajectories(m, S, src, src.times, 4, seed=0)
        assert str(ours.value) == str(theirs.value)

    def test_class_proportions(self, trained):
        m, data, S = trained
        thr = ood_calibrate(m, S, data, n_gamma=8, quantile=0.95, seed=0)
        flagged = ood_scores(m, S, data, n_gamma=8, seed=0) > thr
        labels = np.array(data.labels())
        props = {k: flagged[labels == k].mean() for k in set(labels.tolist())}
        assert set(props) == set(range(4))
        assert all(0.0 <= v <= 1.0 for v in props.values())


def diag_mixture(d, seed):
    rng = np.random.default_rng(seed)
    return GMMModel(np.array([0.3, 0.7]), rng.standard_normal((2, d)), rng.uniform(0.5, 2.0, (2, d)), "diag")


def diag_mixture_logpdf(S, X):
    # log sum_k w_k prod_i N(x_i | mu_ki, var_ki), one component at a time
    per_comp = [
        math.log(w) - 0.5 * np.sum(np.log(2 * np.pi * var) + (X - mu) ** 2 / var, axis=1)
        for w, mu, var in zip(S.weights, S.means, S.covariances)
    ]
    return np.logaddexp(*per_comp)


class TestPosteriorDraws:
    """Draws checked against encoder moments and the documented generator order."""

    @pytest.mark.parametrize("joint", [False, True])
    def test_bank_rows_follow_one_shared_stream(self, trained, joint):
        # trajectory by trajectory, one noise row per draw over the bank's
        # columns: the code, or (joint) the whole row (z0 | code)
        m, data, _ = trained
        n = 3
        bank = collect_gamma_samples(m, data, n, seed=5, include_z0=joint)
        trajs = data.trajectories
        mean, std = numpy_posterior(m, trajs)
        cols = slice(0 if joint else m.p, None)
        rng = np.random.default_rng(5)
        assert bank.shape == (len(trajs) * n, m.d_gamma + joint * m.p)
        for j in range(len(trajs)):
            rows = mean[j, cols] + std[j, cols] * rng.standard_normal((n, m.d_gamma + joint * m.p))
            np.testing.assert_allclose(bank[j * n : (j + 1) * n], rows, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("joint", [False, True])
    def test_ood_scores_follow_per_trajectory_streams(self, trained, joint):
        # trajectory j draws from default_rng(seed ^ j), one noise row per draw
        # over the sampler's columns: the code, or (joint) the whole row (z0 | code)
        m, data, _ = trained
        n, seed = 5, 12
        S = diag_mixture(m.d_gamma + joint * m.p, seed=1)
        scores = ood_scores(m, S, data, n_gamma=n, seed=seed)
        trajs = data.trajectories
        mean, std = numpy_posterior(m, trajs)
        cols = slice(0 if joint else m.p, None)
        for j in range(len(trajs)):
            rng = np.random.default_rng(seed ^ j)
            draws = mean[j, cols] + std[j, cols] * rng.standard_normal((n, S.d))
            assert scores[j] == pytest.approx(-diag_mixture_logpdf(S, draws).mean(), rel=1e-12)

    def test_joint_sample_takes_z0_from_the_first_columns(self):
        # a frozen field keeps z at its draw and the decoder is linear, so every
        # decoded time is w . z0 + b with z0 the first p columns of the mixture draw
        m = linear_decoder_model()
        x = generate_set_a(n_per_class=1, n_classes=1, n_points=4, seed=0).trajectories[0]
        S = diag_mixture(m.p + m.d_gamma, seed=2)
        paths = sample_trajectories(m, S, x, x.times, n=6, seed=3)
        z0 = gmm.sample(S, 6, seed=3)[:, : m.p]
        expected = z0 @ m.dec.params["w0"].data.T + m.dec.params["b0"].data
        np.testing.assert_allclose(paths, np.repeat(expected[:, None, :], len(x.times), axis=1), rtol=1e-12, atol=1e-14)

    def test_sampled_reconstruction_takes_z0_noise_first(self):
        m = linear_decoder_model()
        x = generate_set_a(n_per_class=1, n_classes=1, n_points=4, seed=0).trajectories[0]
        got = reconstruct(m, x, x.times, use_posterior_mean=False, seed=8)
        mean, std = numpy_posterior(m, [x])
        z0 = mean[:, : m.p] + std[:, : m.p] * np.random.default_rng(8).standard_normal((1, m.p))
        expected = z0 @ m.dec.params["w0"].data.T + m.dec.params["b0"].data
        np.testing.assert_allclose(got, np.repeat(expected, len(x.times), axis=0), rtol=1e-12, atol=1e-14)
