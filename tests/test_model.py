import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import autodiff
import fnode.tensorgrad as tg
from fnode.model import (
    Adam,
    FNODEModel,
    TrainConfig,
    TrainingDiverged,
    elbo_loss,
    decode_path,
    fit,
    kl_gaussian,
    kl_schedule,
    make_batch_field,
    reparameterize,
    _elbo_core,
    _pack_batch,
)
from fnode.inference import posterior, reconstruct, rollout
from fnode.nets import MLP, GaussianParams, MLPSpec, hypernet_map, weight_count
from fnode.odeint import IntegrationBlowUp, integrate_batch
from fnode.syndata import PanelDataset, Trajectory, generate_set_a
from fnode.tensorgrad import Tensor


def tiny_model(n_points=6, seed=0, obs_dim=1, **kw):
    defaults = dict(
        p=3,
        d_gamma=4,
        f_hidden=(8, 8),
        enc_hidden=(16,),
        dec_hidden=(8,),
        hyper_hidden=(8,),
        sigma_x=0.1,
    )
    defaults.update(kw)
    return FNODEModel.build(obs_dim=obs_dim, n_points=n_points, seed=seed, **defaults)


def tiny_data(n=20, n_points=6, seed=0, n_classes=4):
    return generate_set_a(
        n_per_class=n // n_classes, n_classes=n_classes, n_points=n_points, seed=seed
    )


class TestReparameterize:
    def test_zero_noise_returns_mean(self):
        q = GaussianParams(Tensor([1.0, -2.0]), Tensor([0.3, 0.7]))
        out = reparameterize(q, Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [1.0, -2.0])

    def test_degenerate_variance(self):
        q = GaussianParams(Tensor([1.0]), Tensor([-80.0]))
        out = reparameterize(q, Tensor([3.0]))
        assert out.item() == pytest.approx(1.0, abs=1e-12)

    def test_unit_gaussian(self):
        q = GaussianParams(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]))
        out = reparameterize(q, Tensor([1.0, -1.0]))
        np.testing.assert_array_equal(out.data, [1.0, -1.0])


class TestKLGaussian:
    def test_matches_prior_gives_zero(self):
        assert kl_gaussian(GaussianParams(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]))) == 0.0

    def test_unit_mean_shift(self):
        assert kl_gaussian(GaussianParams(Tensor([1.0]), Tensor([0.0]))) == pytest.approx(0.5)

    def test_doubled_variance(self):
        expected = 0.5 * (2.0 - 1.0 - math.log(2.0))
        got = kl_gaussian(GaussianParams(Tensor([0.0]), Tensor([math.log(2.0)])))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_over_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = GaussianParams(Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4)))
            assert kl_gaussian(q) >= 0.0


class TestKLSchedule:
    def test_linear_ramp_start(self):
        assert kl_schedule(0, TrainConfig(epochs=100, kl_anneal_epochs=50)) == pytest.approx(0.02)

    def test_reaches_one_and_stays(self):
        cfg = TrainConfig(epochs=100, kl_anneal_epochs=50)
        assert kl_schedule(49, cfg) == 1.0
        assert kl_schedule(99, cfg) == 1.0

    def test_anneal_one_is_always_one(self):
        cfg = TrainConfig(epochs=5, kl_anneal_epochs=1)
        assert all(kl_schedule(e, cfg) == 1.0 for e in range(5))

    def test_monotone(self):
        cfg = TrainConfig(epochs=40, kl_anneal_epochs=17)
        vals = [kl_schedule(e, cfg) for e in range(40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_warm_up_longer_than_the_run_ramps_over_the_run(self):
        long, short = TrainConfig(epochs=4, kl_anneal_epochs=50), TrainConfig(epochs=4, kl_anneal_epochs=4)
        ramp = [kl_schedule(e, long) for e in range(4)]
        assert ramp == [kl_schedule(e, short) for e in range(4)] == [0.25, 0.5, 0.75, 1.0]


class TestForward:
    def test_zero_lambda_gives_constant_path(self):
        m = tiny_model()
        m.hyper.params["lambda"].data *= 0.0
        traj = tiny_data(n=4).trajectories[0]
        latents = np.random.default_rng(0).standard_normal((1, m.p + m.d_gamma))
        recon = rollout(m, latents, float(traj.times[0]), traj.times)[0]
        # the latent path is exactly constant (test_frozen_lambda_keeps_latent_constant);
        # the decoder maps all T states in one product, whose rounding may differ by row
        expected = m.dec(Tensor(latents[:, : m.p])).data[0]
        for r in recon:
            np.testing.assert_allclose(r, expected, rtol=1e-12)

    def test_single_point_trajectory(self):
        m = tiny_model(n_points=1)
        traj = Trajectory(np.array([0.4]), np.array([[1.2]]))
        mean, std = posterior(m, [traj])
        assert mean.shape == std.shape == (1, m.p + m.d_gamma)
        z0 = Tensor(np.random.default_rng(1).standard_normal((1, m.p)))
        theta = hypernet_map(m.hyper, Tensor(np.random.default_rng(2).standard_normal((1, m.d_gamma))))
        recon = decode_path(m, z0, theta, traj.times[None, :])
        assert recon.data.shape == (1, 1)
        np.testing.assert_array_equal(recon.data, m.dec(z0).data)

    def test_seeded_forward_reproducible(self):
        m = tiny_model()
        traj = tiny_data(n=4).trajectories[1]
        z0 = np.random.default_rng(3).standard_normal((2, m.p))
        gamma = np.random.default_rng(4).standard_normal((2, m.d_gamma))
        latents = np.hstack([z0, gamma])
        a = rollout(m, latents, float(traj.times[0]), traj.times)
        b = rollout(m, latents, float(traj.times[0]), traj.times)
        np.testing.assert_array_equal(a, b)


class TestELBO:
    def test_perfect_reconstruction_normalizer(self):
        # decoder reproduces the data exactly => recon term is the pure normalizer
        m = tiny_model(n_points=2)
        traj = Trajectory(np.array([0.1, 0.9]), np.zeros((2, 1)))
        m.hyper.params["lambda"].data *= 0.0
        # zero decoder and zero-mean encoder: recon == 0 == targets
        for name, t in m.dec.params.items():
            t.data *= 0.0
        for name, t in m.enc_z0.params.items():
            t.data *= 0.0
        bd = elbo_loss(m, traj, TrainConfig(epochs=1, kl_anneal_epochs=1, seed=0), 0.0)
        expected = -2.0 * (math.log(m.sigma_x) + 0.5 * math.log(2 * math.pi))
        assert bd.recon_loglik == pytest.approx(expected, rel=1e-12)
        assert bd.total == pytest.approx(expected, rel=1e-12)

    def test_kl_weight_zero_total_ignores_kl(self):
        m = tiny_model()
        traj = tiny_data(n=4).trajectories[0]
        cfg = TrainConfig(epochs=1, kl_anneal_epochs=1, seed=5)
        bd = elbo_loss(m, traj, cfg, 0.0)
        assert bd.total == pytest.approx(bd.recon_loglik, rel=1e-12)
        assert bd.kl_weight == 0.0

    def test_kl_terms_match_closed_form(self):
        m = tiny_model()
        traj = tiny_data(n=4).trajectories[2]
        cfg = TrainConfig(epochs=1, kl_anneal_epochs=1, seed=5)
        bd = elbo_loss(m, traj, cfg, 1.0)
        # KL(N(mean, std^2) || N(0, 1)) per entry, summed over each block of the (z0 | code) columns
        mean, std = posterior(m, [traj])
        kl = 0.5 * (std**2 + mean**2 - 2 * np.log(std) - 1)
        assert bd.kl_z0 == pytest.approx(kl[:, : m.p].sum(), rel=1e-10)
        assert bd.kl_gamma == pytest.approx(kl[:, m.p :].sum(), rel=1e-10)
        assert bd.total == pytest.approx(bd.recon_loglik - bd.kl_z0 - bd.kl_gamma, rel=1e-10)

    def test_rejects_bad_kl_weight(self):
        m = tiny_model()
        traj = tiny_data(n=4).trajectories[0]
        with pytest.raises(ValueError):
            elbo_loss(m, traj, TrainConfig(), 1.5)

    def test_two_draws_average_the_reconstruction_term(self):
        # One-layer encoders and decoder and lambda = 0, so the field is zero and
        # every draw's path is its z0: the bound is a sum of closed forms in numpy.
        m = FNODEModel.build(obs_dim=1, n_points=3, p=2, d_gamma=3, f_hidden=(4,), enc_hidden=(), dec_hidden=(),
                             hyper_hidden=(4,), sigma_x=0.3, obs_scale=2.0, lambda_init=0.0, seed=7)
        traj = Trajectory(np.array([0.1, 0.4, 1.3]), np.array([[0.5], [-1.0], [2.0]]))
        cfg, w = TrainConfig(seed=11, mc_samples=2), 0.4
        bd = elbo_loss(m, traj, cfg, w)

        rng = np.random.default_rng(cfg.seed)  # elbo_loss's draws: a (z0, code) noise pair per sample
        noises = [(rng.standard_normal(2), rng.standard_normal(3)) for _ in range(2)]
        feats = np.column_stack([traj.times, traj.values[:, 0] / 2.0]).reshape(-1)
        p = {k: t.data for k, t in m.params.items()}
        out_z0 = p["enc_z0.w0"] @ feats + p["enc_z0.b0"]
        out_gamma = p["enc_gamma.w0"] @ feats + p["enc_gamma.b0"]
        recon = []
        for nz, _ in noises:
            z0 = out_z0[:2] + np.exp(0.5 * out_z0[2:]) * nz
            x = p["dec.w0"] @ z0 + p["dec.b0"]
            sq = np.sum((x - traj.values) ** 2)
            recon.append(-sq / (2 * 0.3**2) - 3 * (math.log(0.3) + 0.5 * math.log(2 * math.pi)))
        kl = [0.5 * np.sum(np.exp(o[d:]) + o[:d] ** 2 - o[d:] - 1) for o, d in ((out_z0, 2), (out_gamma, 3))]
        assert recon[0] != pytest.approx(recon[1], rel=1e-3)  # the draws differ
        assert bd.recon_loglik == pytest.approx(np.mean(recon), rel=1e-12)
        assert bd.kl_z0 == pytest.approx(kl[0], rel=1e-12) and bd.kl_gamma == pytest.approx(kl[1], rel=1e-12)
        assert bd.total == pytest.approx(np.mean(recon) - w * sum(kl), rel=1e-12)


def gradient_check_fixture(seed=1):
    # A compact fixture with a healthy derivative spectrum: O(1) observations,
    # a single-hidden-layer transition net (no structurally dead weights) and
    # sigma_x = 1/sqrt(2*pi) so the likelihood normalizer vanishes.  Larger
    # objectives put near-zero derivatives inside central-difference noise.
    m = FNODEModel.build(
        obs_dim=1,
        n_points=3,
        p=2,
        d_gamma=3,
        f_hidden=(6,),
        enc_hidden=(8,),
        dec_hidden=(6,),
        hyper_hidden=(6,),
        sigma_x=1.0 / math.sqrt(2.0 * math.pi),
        lambda_init=0.8,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 100)
    trajs = [
        Trajectory(np.sort(rng.uniform(0, 1.0, 3)), 0.4 * rng.standard_normal((3, 1)))
        for _ in range(2)
    ]
    noises = [(Tensor(rng.standard_normal((2, 2))), Tensor(rng.standard_normal((2, 3))))]
    return m, trajs, noises


class TestBatchedFieldConsistency:
    def test_batch_field_matches_single_sample_field(self):
        # reference: a plain-numpy tanh MLP on [z, t] built from each row's theta
        rng = np.random.default_rng(5)
        f_spec = MLPSpec((4, 6, 3))
        B = 4
        theta = Tensor(0.5 * rng.standard_normal((B, weight_count(f_spec))))
        Z = Tensor(rng.standard_normal((B, 3)))
        t_row = rng.uniform(0, 1.5, B)
        batched = make_batch_field(f_spec, theta)(Z, t_row)
        for b in range(B):
            th = theta.data[b]
            w0, b0 = th[:24].reshape(6, 4), th[24:30]
            w1, b1 = th[30:48].reshape(3, 6), th[48:51]
            expected = w1 @ np.tanh(w0 @ np.append(Z.data[b], t_row[b]) + b0) + b1
            np.testing.assert_allclose(batched.data[b], expected, rtol=1e-12, atol=1e-15)


class TestELBOGradients:
    def test_all_parameter_groups_match_central_differences(self):
        m, trajs, noises = gradient_check_fixture()

        def prog(ps):
            loss_t, _ = _elbo_core(m, *_pack_batch(m, trajs), 1.0, noises)
            return tg.neg(loss_t)

        err = autodiff.finite_diff_check(prog, m.params, [], h=1e-5)
        assert err <= 1e-4


class TestLowerBound:
    def test_elbo_below_true_loglik_linear_gaussian(self):
        # x = z + eps with z ~ N(0,1), eps ~ N(0, s^2): log p(x) is closed-form.
        # The bound assembled from the package's reparameterize + KL pieces must
        # stay below it (within Monte-Carlo error at 1000 draws).
        s = 0.5
        x = 0.8
        q = GaussianParams(Tensor([0.6]), Tensor([math.log(0.3)]))
        rng = np.random.default_rng(0)
        draws = []
        for _ in range(1000):
            z = reparameterize(q, Tensor(rng.standard_normal(1)))
            ll = -((x - z.item()) ** 2) / (2 * s**2) - math.log(s * math.sqrt(2 * math.pi))
            draws.append(ll)
        elbo = float(np.mean(draws)) - kl_gaussian(q)
        true = -0.5 * math.log(2 * math.pi * (1 + s**2)) - x**2 / (2 * (1 + s**2))
        mc_err = 3.0 * float(np.std(draws)) / math.sqrt(len(draws))
        assert elbo <= true + mc_err


class TestFit:
    def test_zero_epochs_leaves_parameters_unchanged(self):
        m = tiny_model()
        before = {name: t.data.copy() for name, t in m.params.items()}
        fit(m, tiny_data(n=8), TrainConfig(epochs=0, kl_anneal_epochs=1, seed=0))
        for name, t in m.params.items():
            np.testing.assert_array_equal(t.data, before[name])

    def test_same_seed_gives_bit_identical_parameters(self):
        cfg = TrainConfig(epochs=3, batch_size=5, kl_anneal_epochs=2, seed=7)
        runs = []
        for _ in range(2):
            m = tiny_model(seed=4)
            fit(m, tiny_data(n=10, seed=2), cfg)
            runs.append({name: t.data.copy() for name, t in m.params.items()})
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])

    @pytest.mark.parametrize("n_points", [10, 25])
    def test_peak_memory_stays_near_one_batch_graph(self, n_points):
        # backward frees each node's saved arrays as it passes, and the
        # parameter gradients are cleared before the next batch's forward, so
        # one batch's graph is alive at a time; keeping the previous batch's
        # graph and gradients through the next forward peaks above 7x.  The
        # parameters predate tracing, and Adam's two moment buffers are 2x.
        m = FNODEModel.build(obs_dim=1, n_points=n_points, seed=0)
        data = generate_set_a(n_per_class=4, n_classes=10, n_points=n_points, seed=1)
        param_bytes = sum(t.data.nbytes for t in m.params.values())
        tracemalloc.start()
        try:
            fit(m, data, TrainConfig(epochs=1, batch_size=32, kl_anneal_epochs=1, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * param_bytes, peak / param_bytes

    def test_loss_improves_on_small_panel(self):
        m = tiny_model(seed=1)
        data = tiny_data(n=20, seed=5)
        _, history = fit(m, data, TrainConfig(epochs=10, batch_size=10, kl_anneal_epochs=5, seed=0))
        assert history[-1].total > history[0].total

    def test_history_length_and_weights(self):
        m = tiny_model(seed=1)
        _, history = fit(
            m, tiny_data(n=8), TrainConfig(epochs=4, batch_size=4, kl_anneal_epochs=2, seed=0)
        )
        assert len(history) == 4
        assert history[0].kl_weight == 0.5
        assert history[1].kl_weight == 1.0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_aborts_with_location(self):
        # the first insane step wrecks the parameters; the next batch sees it
        m = tiny_model(seed=1)
        data = tiny_data(n=6)
        with pytest.raises(TrainingDiverged) as ei:
            fit(m, data, TrainConfig(epochs=2, kl_anneal_epochs=1, learning_rate=1e18, seed=0))
        assert (ei.value.epoch, ei.value.batch) == (1, 0)

    def test_non_finite_gradient_aborts_before_update(self, monkeypatch):
        m = tiny_model(seed=1, hyper_hidden=(8, 8))
        before = {name: t.data.copy() for name, t in m.params.items()}
        real_backward = tg.backward

        def poisoned(out):
            real_backward(out)
            m.params["hyper.w2"].grad[0, 0] = np.nan

        monkeypatch.setattr(tg, "backward", poisoned)
        with pytest.raises(TrainingDiverged, match="non-finite gradient in hyper$") as ei:
            fit(m, tiny_data(n=8), TrainConfig(epochs=2, kl_anneal_epochs=1, seed=0))
        assert (ei.value.epoch, ei.value.batch) == (0, 0)
        for name, t in m.params.items():
            assert t.data.tobytes() == before[name].tobytes(), name


class TestReconstruct:
    def test_posterior_mean_is_deterministic(self):
        m = tiny_model()
        traj = tiny_data(n=4).trajectories[0]
        a = reconstruct(m, traj, traj.times, use_posterior_mean=True)
        b = reconstruct(m, traj, traj.times, use_posterior_mean=True)
        np.testing.assert_array_equal(a, b)

    def test_matches_observed_grid_shape(self):
        m = tiny_model()
        traj = tiny_data(n=4).trajectories[0]
        recon = reconstruct(m, traj, traj.times)
        assert isinstance(recon, np.ndarray) and recon.shape == (len(traj.times), 1)

    def test_extrapolation_extends_interpolation(self):
        # adding later times must not change the states at the observed times
        m = tiny_model()
        traj = tiny_data(n=4).trajectories[1]
        base = reconstruct(m, traj, traj.times)
        extended = reconstruct(m, traj, np.concatenate([traj.times, [traj.times[-1] + 0.3]]))
        np.testing.assert_allclose(base, extended[: len(base)], rtol=1e-12)

    def test_times_before_anchor_integrate_backwards(self):
        m = tiny_model()
        m.hyper.params["lambda"].data *= 0.0  # constant latent path both directions
        traj = tiny_data(n=4).trajectories[0]
        times = np.concatenate([[traj.times[0] - 0.2], traj.times])
        recon = reconstruct(m, traj, times)
        np.testing.assert_allclose(recon[0], recon[1], rtol=1e-12)

    def test_frozen_lambda_keeps_latent_constant(self):
        m = tiny_model()
        m.hyper.params["lambda"].data *= 0.0
        traj = tiny_data(n=4).trajectories[3]
        rng = np.random.default_rng(0)
        theta = hypernet_map(m.hyper, Tensor(rng.standard_normal((1, m.d_gamma))))
        z0 = Tensor(rng.standard_normal((1, m.p)))
        z_path = integrate_batch(make_batch_field(m.f_spec, theta), z0, traj.times[None, :], m.solver)
        drift = max(np.max(np.abs(z.data - z0.data)) for z in z_path)
        assert drift == 0.0


def numpy_mlp(layers, x):
    """A tanh MLP in plain numpy: ``layers`` holds (weight [out, in], bias, tanh_out) per layer."""
    for w, b, tanh_out in layers:
        x = w @ x + b
        if tanh_out:
            x = np.tanh(x)
    return x


def numpy_field(f_spec, theta_row):
    """f(z, t), the transition net on [z, t], rebuilt from one row of the weight block."""
    layers, pos = [], 0
    ws = f_spec.layer_widths
    for i, (n_in, n_out) in enumerate(zip(ws[:-1], ws[1:])):
        w = theta_row[pos : pos + n_in * n_out].reshape(n_out, n_in)
        pos += n_in * n_out
        layers.append((w, theta_row[pos : pos + n_out], i < len(ws) - 2 or f_spec.final_activation == "tanh"))
        pos += n_out
    return lambda z, t: numpy_mlp(layers, np.append(z, t))


def numpy_decode(m, z0, theta_row, anchor, times):
    """Decoded states at ``times`` of dz/dt = f(z, t) with z(anchor) = z0, by plain RK4.

    The solve walks out from the anchor through the grid times on each side,
    in steps of the solver's step size with a partial step onto each time:
    forward after the anchor, and with negative steps before it.
    """
    f = numpy_field(m.f_spec, theta_row)
    dec = [(m.dec.params[f"w{i}"].data, m.dec.params[f"b{i}"].data, i < m.dec.spec.n_layers - 1)
           for i in range(m.dec.spec.n_layers)]
    states = {}
    for side in ([t for t in times if t < anchor][::-1], [t for t in times if t >= anchor]):
        z, t = np.array(z0, dtype=float), anchor
        for target in side:
            while abs(target - t) > 1e-12:
                h = math.copysign(min(m.solver.step_size, abs(target - t)), target - t)
                k1 = f(z, t)
                k2 = f(z + h / 2 * k1, t + h / 2)
                k3 = f(z + h / 2 * k2, t + h / 2)
                k4 = f(z + h * k3, t + h)
                z, t = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), t + h
            states[target] = numpy_mlp(dec, z)
    return np.array([states[t] for t in times])


# Grids around an anchor at 0.3, with no gap a multiple of the step size.
ANCHOR = 0.3
ANCHORED_GRIDS = {
    "before_at_after": np.array([-0.47, -0.13, 0.3, 0.52, 0.91]),
    "before_only": np.array([-0.41, 0.05, 0.18]),
    "starts_after": np.array([0.44, 0.67, 1.13]),
    # both legs start from the anchor, which is not a grid time
    "straddles": np.array([-0.29, 0.07, 0.61, 0.88]),
}


class TestAnchoredDecoding:
    """``rollout`` and ``reconstruct`` against plain-numpy RK4 from the anchor, in both directions."""

    @pytest.mark.parametrize("grid", sorted(ANCHORED_GRIDS))
    def test_rollout_matches_numpy_rk4(self, grid):
        m = tiny_model(seed=2)
        m.hyper.params["lambda"].data[...] = 1.0  # a field strong enough to move the state
        times = ANCHORED_GRIDS[grid]
        rng = np.random.default_rng(9)
        Z0, G = rng.standard_normal((3, m.p)), rng.standard_normal((3, m.d_gamma))
        got = rollout(m, np.hstack([Z0, G]), ANCHOR, times)
        theta = hypernet_map(m.hyper, Tensor(G)).data
        for b in range(3):
            want = numpy_decode(m, Z0[b], theta[b], ANCHOR, times)
            at_anchor = numpy_decode(m, Z0[b], theta[b], ANCHOR, [ANCHOR])
            assert np.max(np.abs(want - at_anchor)) > 1e-3  # the path moves away from z0
            np.testing.assert_allclose(got[b], want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("grid", sorted(ANCHORED_GRIDS))
    @pytest.mark.parametrize("use_posterior_mean", [True, False])
    def test_reconstruct_matches_numpy_rk4(self, grid, use_posterior_mean):
        m = tiny_model(n_points=3, seed=3)
        m.hyper.params["lambda"].data[...] = 1.0
        x = Trajectory(ANCHOR + np.array([0.0, 0.2, 0.45]), np.array([[0.5], [-0.3], [0.8]]))
        times = ANCHORED_GRIDS[grid]
        got = reconstruct(m, x, times, use_posterior_mean=use_posterior_mean, seed=4)
        mean, std = posterior(m, [x])
        row = mean[0]
        if not use_posterior_mean:
            # one (z0 noise | code noise) row of default_rng(seed)
            row = row + std[0] * np.random.default_rng(4).standard_normal(m.p + m.d_gamma)
        z0, gamma = row[: m.p], row[m.p :]
        theta = hypernet_map(m.hyper, Tensor(gamma[None])).data[0]
        np.testing.assert_allclose(got, numpy_decode(m, z0, theta, ANCHOR, times), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("anchor", [math.nan, math.inf, -math.inf])
    def test_non_finite_anchor_raises(self, anchor):
        m = tiny_model()
        with pytest.raises(ValueError, match="anchor time must be finite"):
            rollout(m, np.zeros((2, m.p + m.d_gamma)), anchor, ANCHORED_GRIDS["straddles"])

    @pytest.mark.parametrize("anchor, times", [(0.0, [-100.0, 0.0]), (5.0, [-100.0, -50.0]), (0.0, [0.0, 100.0])])
    def test_blow_up_reports_a_time_between_the_anchor_and_the_grid(self, anchor, times):
        # a linear field with weights up to 50 drives the state past float range
        m = tiny_model(f_hidden=(), lambda_init=50.0)
        rng = np.random.default_rng(0)
        latents = np.hstack([rng.standard_normal((2, m.p)), rng.standard_normal((2, m.d_gamma))])
        with pytest.raises(IntegrationBlowUp) as info, np.errstate(all="ignore"):
            rollout(m, latents, anchor, np.array(times))
        t = info.value.t
        assert (times[0] <= t < anchor) if times[0] < anchor else (anchor < t <= times[-1]), t


class TestAdam:
    def test_moves_towards_minimum_of_quadratic(self):
        params = {"x": Tensor([4.0])}
        opt = Adam(params, lr=0.1)
        for _ in range(200):

            def prog(ps):
                return tg.tensor_sum(tg.square(ps["x"]))

            tg.zero_grads(params.values())
            out = prog(params)
            tg.backward(out)
            opt.step()
        assert abs(params["x"].item()) < 1e-2


def adam_same_order(theta, grads, lr, b1, b2, eps):
    """Per-element Adam in Python floats, in the order of ``Adam.step``'s array operations."""
    theta = [float(x) for x in theta]
    m, v = [0.0] * len(theta), [0.0] * len(theta)
    for t, g in enumerate(grads, start=1):
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for i, gi in enumerate(np.asarray(g, dtype=np.float64).reshape(-1).tolist()):
            m[i] = m[i] * b1 + gi * (1.0 - b1)
            v[i] = v[i] * b2 + gi * gi * (1.0 - b2)
            theta[i] -= m[i] / (math.sqrt(v[i] / c2) + eps) * (lr / c1)
    return np.array(theta), np.array(m), np.array(v)


def adam_textbook(theta, grads, lr, b1, b2, eps):
    """Kingma & Ba's update with the bias-corrected moments formed first."""
    theta, m, v = np.array(theta, dtype=np.float64), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g**2
        m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class TestBlockedAdam:
    def test_partial_last_block_matches_per_element_adam(self):
        # "w" spans one full block and a partial one; the 0-d "c" is like hyper.lambda
        n = Adam.BLOCK + 1001
        rng = np.random.default_rng(8)
        w0, c0 = rng.standard_normal(n), np.float64(rng.standard_normal())
        params = {"w": Tensor(w0.copy()), "c": Tensor(c0), "unused": Tensor(np.ones(3))}
        w_grads = [rng.standard_normal(n) for _ in range(3)]
        c_grads = [np.float64(g) for g in rng.standard_normal(3)]
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = Adam(params, lr, betas=(b1, b2), eps=eps)
        for gw, gc in zip(w_grads, c_grads):
            tg.zero_grads(params.values())
            params["w"].grad, params["c"].grad = gw.copy(), gc.copy()
            opt.step()

        w_ref, m_ref, v_ref = adam_same_order(w0, w_grads, lr, b1, b2, eps)
        assert params["w"].data.tobytes() == w_ref.tobytes()
        assert opt._m["w"].tobytes() == m_ref.tobytes() and opt._v["w"].tobytes() == v_ref.tobytes()
        c_ref = adam_same_order([c0], c_grads, lr, b1, b2, eps)[0]
        assert params["c"].data.shape == () and params["c"].data.tobytes() == c_ref.tobytes()
        np.testing.assert_array_equal(params["unused"].data, np.ones(3))

        # relative to the larger of the start and end magnitude: an entry that
        # ends near 0 by cancellation keeps the rounding of its operands
        for name, start, grads in (("w", w0, w_grads), ("c", c0, c_grads)):
            got, want = params[name].data, adam_textbook(start, grads, lr, b1, b2, eps)
            assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(start), np.abs(want)))

    def test_non_contiguous_parameter_rejected(self):
        params = {"w": Tensor(np.ones((3, 4)).T)}
        with pytest.raises(ValueError, match="contiguous"):
            Adam(params, 1e-3)


class TestTrainConfig:
    def test_rejects_negative_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)


class TestModelRegistry:
    def test_params_follow_component_order_and_share_tensors(self):
        m = tiny_model()
        layers = ["w0", "b0", "w1", "b1"]
        want = [f"{part}.{name}" for part in ("enc_z0", "enc_gamma") for name in layers]
        want += [f"hyper.{name}" for name in layers + ["lambda"]] + [f"dec.{name}" for name in layers]
        assert list(m.params) == want
        assert m.params["hyper.lambda"] is m.hyper.params["lambda"]
        assert m.params["enc_gamma.b1"] is m.enc_gamma.params["b1"]

    @staticmethod
    def _with_params(m, part, edit):
        """``m`` with component ``part`` holding an edited copy of its parameter dict."""
        comp = getattr(m, part)
        params = dict(comp.params)
        edit(params)
        return dataclasses.replace(m, **{part: dataclasses.replace(comp, params=params)})

    def test_registry_order_does_not_follow_the_components(self):
        def sort_names(ps):  # the order an archive's sorted header gives
            items = sorted(ps.items())
            ps.clear()
            ps.update(items)

        m = tiny_model()
        for part in ("enc_z0", "enc_gamma", "hyper", "dec"):
            m2 = self._with_params(m, part, sort_names)
            assert list(m2.params) == list(m.params)
            assert all(m2.params[name] is t for name, t in m.params.items())

    # defect -> (component, edit of its parameter dict, words the error names)
    REGISTRY_DEFECTS = {
        "missing": ("dec", lambda ps: ps.pop("w0"), "parameter dec.w0 is missing"),
        "missing lambda": ("hyper", lambda ps: ps.pop("lambda"), "parameter hyper.lambda is missing"),
        "extra layer": ("dec", lambda ps: ps.update(w7=ps["w0"]), "parameter dec.w7 is not one"),
        "extra in encoder": ("enc_z0", lambda ps: ps.update(lambda_=ps["b0"]), "parameter enc_z0.lambda_ is not one"),
        "transposed": ("enc_gamma", lambda ps: ps.update(w0=Tensor(ps["w0"].data.T.copy())), "enc_gamma.w0 has shape"),
        "lambda as vector": ("hyper", lambda ps: ps.update({"lambda": Tensor(np.ones(1))}), "hyper.lambda has shape"),
    }

    @pytest.mark.parametrize("defect", sorted(REGISTRY_DEFECTS))
    def test_registry_refuses_a_parameter_set_unlike_the_specs(self, defect):
        part, edit, words = self.REGISTRY_DEFECTS[defect]
        with pytest.raises(ValueError, match=words):
            self._with_params(tiny_model(), part, edit)

    @pytest.mark.parametrize("obs_scale", [0.0, -1.0, math.nan, math.inf])
    def test_obs_scale_must_be_finite_and_positive(self, obs_scale):
        with pytest.raises(ValueError, match="obs_scale"):
            tiny_model(obs_scale=obs_scale)

    def test_sizes_come_from_the_specs(self):
        m = tiny_model(n_points=5, obs_dim=2)
        assert (m.p, m.d_gamma, m.obs_dim, m.n_points) == (3, 4, 2, 5)

    # tiny_model's encoders read 6 points of (time, value), 12 wide; p is 3 and d_gamma 4
    MISMATCHED = {
        "enc_z0 output": {"enc_z0": (12, 16, 7)},
        "enc_gamma output": {"enc_gamma": (12, 16, 9)},
        "decoder input": {"dec": (4, 8, 1)},
        "enc_gamma input": {"enc_gamma": (10, 16, 8)},
        "multiple of": {"enc_z0": (13, 16, 6), "enc_gamma": (13, 16, 8)},
    }

    @pytest.mark.parametrize("check", sorted(MISMATCHED))
    def test_components_must_agree_on_sizes(self, check):
        rng = np.random.default_rng(0)
        parts = {name: MLP.init(widths, rng) for name, widths in self.MISMATCHED[check].items()}
        with pytest.raises(ValueError, match=check):
            dataclasses.replace(tiny_model(), **parts)
