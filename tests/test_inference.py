import math

import numpy as np
import pytest

from fnode.gmm import GMMModel, collect_gamma_samples, em_fit
from fnode.inference import (
    CredibleBand,
    ZeroAcceptance,
    class_flag_proportions,
    credible_band,
    neighborhood_sample,
    ood_calibrate,
    ood_scores,
    ood_test,
    rollout,
    sample_trajectories,
    transfer_trajectory,
)
from fnode.model import FNODEModel, TrainConfig, fit, reconstruct
from fnode.nets import encode_batch
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


class TestSampleTrajectories:
    def test_degenerate_sampler_matches_forced_code(self, trained):
        m, data, _ = trained
        src = data.trajectories[0]
        gamma_star = encode_batch(m.enc_gamma, [src], m.obs_scale).mean.data[0]
        S = GMMModel(
            np.array([1.0]), gamma_star[None, :], np.array([1e-6]), "spherical"
        )
        out = sample_trajectories(m, S, src, src.times, n=1, seed=0)[0]
        z0 = encode_batch(m.enc_z0, [src], m.obs_scale).mean.data[0]
        forced = rollout(m, z0[None], gamma_star[None], float(src.times[0]), src.times)[0]
        np.testing.assert_allclose(out, forced, atol=1e-2)

    def test_fixed_seed_identical_batches(self, trained):
        m, data, S = trained
        src = data.trajectories[1]
        a = sample_trajectories(m, S, src, src.times, n=5, seed=42)
        b = sample_trajectories(m, S, src, src.times, n=5, seed=42)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_rejects_nonpositive_n(self, trained):
        m, data, S = trained
        with pytest.raises(ValueError):
            sample_trajectories(m, S, data.trajectories[0], data.trajectories[0].times, n=0)


class TestRollout:
    def test_rows_land_in_place_across_solver_chunks(self, trained, monkeypatch):
        m, data, _ = trained
        src = data.trajectories[3]
        rng = np.random.default_rng(4)
        Z0, G = rng.standard_normal((5, m.p)), rng.standard_normal((5, m.d_gamma))
        whole = rollout(m, Z0, G, float(src.times[0]), src.times)
        monkeypatch.setattr("fnode.inference.ROLLOUT_ROWS", 2)
        chunked = rollout(m, Z0, G, float(src.times[0]), src.times)
        assert chunked.shape == (5, len(src.times), m.obs_dim)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-15)
        for b in range(5):
            alone = rollout(m, Z0[b : b + 1], G[b : b + 1], float(src.times[0]), src.times)[0]
            np.testing.assert_allclose(whole[b], alone, rtol=1e-12, atol=1e-15)

    def test_rejects_unbatched_draws(self, trained):
        m, data, _ = trained
        src = data.trajectories[0]
        with pytest.raises(ValueError):
            rollout(m, np.zeros(m.p), np.zeros(m.d_gamma), float(src.times[0]), src.times)


class TestTransfer:
    def test_self_transfer_matches_posterior_mean_reconstruction(self, trained):
        m, data, _ = trained
        src = data.trajectories[2]
        out = transfer_trajectory(m, src, src, src.times)
        recon = np.stack([r.data for r in reconstruct(m, src, src.times, use_posterior_mean=True)])
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
        assert len(paths) == 6

    def test_tiny_delta_raises_zero_acceptance(self, trained):
        m, data, S = trained
        with pytest.raises(ZeroAcceptance, match="acceptance rate"):
            neighborhood_sample(
                m, S, data.trajectories[3], delta=1e-9, n=3, max_attempts=300, seed=0
            )

    def test_accepted_codes_satisfy_constraint(self, trained):
        m, data, S = trained
        exemplar = data.trajectories[5]
        delta = 2.0
        codes, _ = neighborhood_sample(m, S, exemplar, delta=delta, n=8, seed=1)
        gamma_j = encode_batch(m.enc_gamma, [exemplar], m.obs_scale).mean.data[0]
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
    m.hyper.lam.data *= 0.0
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

        q = encode_batch(m.enc_z0, [x], m.obs_scale)
        w = m.dec.params["w0"].data[0]
        mu = float(w @ q.mean.data[0] + m.dec.params["b0"].data[0])
        sigma = math.sqrt(float((w**2) @ np.exp(q.log_var.data[0])))
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
        q_z0 = encode_batch(m.enc_z0, [x], m.obs_scale)
        q_g = encode_batch(m.enc_gamma, [x], m.obs_scale)
        rng = np.random.default_rng(7)
        paths = []
        for _ in range(20):
            z0 = q_z0.mean.data + np.exp(0.5 * q_z0.log_var.data) * rng.standard_normal(m.p)
            g = q_g.mean.data + np.exp(0.5 * q_g.log_var.data) * rng.standard_normal(m.d_gamma)
            paths.append(rollout(m, z0, g, float(x.times[0]), x.times)[0])
        np.testing.assert_allclose(band.mean, np.mean(paths, axis=0), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(band.lower, np.quantile(paths, 0.05, axis=0), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(band.upper, np.quantile(paths, 0.95, axis=0), rtol=1e-12, atol=1e-15)

    def test_gmm_source(self, trained):
        m, data, S = trained
        x = data.trajectories[0]
        band = credible_band(m, S, x, x.times, n_draws=50, seed=0, source="gmm")
        assert band.n_draws == 50

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
        reports = ood_test(m, S, thr, data, n_gamma=8, seed=0)
        rate = np.mean([r.flagged for r in reports])
        assert abs(rate - 0.05) <= 0.05

    def test_flag_decision_invariant_to_monotone_rescaling(self, trained):
        m, data, S = trained
        thr = ood_calibrate(m, S, data, n_gamma=8, quantile=0.9, seed=0)
        reports = ood_test(m, S, thr, data, n_gamma=8, seed=0)
        for r in reports:
            assert r.flagged == (3.0 * r.nll + 1.0 > 3.0 * thr + 1.0)

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

    def test_class_proportions(self, trained):
        m, data, S = trained
        thr = ood_calibrate(m, S, data, n_gamma=8, quantile=0.95, seed=0)
        reports = ood_test(m, S, thr, data, n_gamma=8, seed=0)
        props = class_flag_proportions(reports)
        assert set(props) == set(range(4))
        assert all(0.0 <= v <= 1.0 for v in props.values())
