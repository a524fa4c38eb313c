import numpy as np
import pytest

import autodiff
import fnode.tensorgrad as tg
from fnode.model import make_batch_field
from fnode.nets import (
    MLP,
    Hypernetwork,
    MLPSpec,
    batch_features,
    encode_features,
    hypernet_map,
    init_hypernetwork,
    init_mlp_params,
    mlp_forward,
    trajectory_features,
    weight_count,
)
from fnode.syndata import Trajectory
from fnode.tensorgrad import Tensor


class TestMLPSpec:
    def test_weight_count(self):
        # (4*8 + 8) + (8*2 + 2) = 58
        assert weight_count(MLPSpec((4, 8, 2))) == 58

    def test_large_spec_weight_count(self):
        spec = MLPSpec((9, 100, 100, 8))
        assert weight_count(spec) == (9 * 100 + 100) + (100 * 100 + 100) + (100 * 8 + 8)

    def test_rejects_single_width(self):
        with pytest.raises(ValueError):
            MLPSpec((4,))


class TestMLPForward:
    def test_zero_params_give_zero_output(self):
        spec = MLPSpec((3, 5, 2))
        params = {}
        for i, (n_in, n_out) in enumerate([(3, 5), (5, 2)]):
            params[f"w{i}"] = Tensor(np.zeros((n_out, n_in)))
            params[f"b{i}"] = Tensor(np.zeros(n_out))
        out = mlp_forward(spec, params, Tensor([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_identity_single_layer(self):
        spec = MLPSpec((3, 3))
        params = {"w0": Tensor(np.eye(3)), "b0": Tensor(np.zeros(3))}
        x = np.array([[0.3, -1.2, 2.0]])
        out = mlp_forward(spec, params, Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_two_layer_golden_value(self):
        # hand-computed: tanh(W0 x + b0) then W1 h + b1 on 2x2 weights
        spec = MLPSpec((2, 2, 1))
        w0 = np.array([[1.0, 0.5], [-0.25, 0.75]])
        b0 = np.array([0.1, -0.2])
        w1 = np.array([[2.0, -1.0]])
        b1 = np.array([0.05])
        params = {"w0": Tensor(w0), "b0": Tensor(b0), "w1": Tensor(w1), "b1": Tensor(b1)}
        x = np.array([0.4, -0.6])
        h = np.tanh(w0 @ x + b0)
        expected = w1 @ h + b1
        out = mlp_forward(spec, params, Tensor(x[None, :]))
        np.testing.assert_allclose(out.data, expected[None, :], rtol=0, atol=0)

    def test_width_mismatch(self):
        spec = MLPSpec((3, 2))
        params = init_mlp_params(spec, np.random.default_rng(0))
        with pytest.raises(tg.ShapeMismatch):
            mlp_forward(spec, params, Tensor([[1.0, 2.0]]))
        with pytest.raises(tg.ShapeMismatch):
            mlp_forward(spec, params, Tensor([1.0, 2.0, 3.0]))


def flat_weights(spec, params):
    """Named MLP parameters as one flat vector: per layer, row-major weight then bias."""
    return np.concatenate(
        [np.concatenate([params[f"w{i}"].data.reshape(-1), params[f"b{i}"].data]) for i in range(spec.n_layers)]
    )


def field_input(x):
    """Split an MLP input [B, p + 1] into a vector-field state and its time column."""
    return Tensor(x[:, :-1]), x[:, -1]


class TestFunctionalForward:
    # the transition network's forward pass: make_batch_field reads each row's
    # weights from that row of a flat weight block and feeds it [z, t]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_standard_forward_bit_exactly(self, seed):
        rng = np.random.default_rng(seed)
        spec = MLPSpec((4, 7, 3))
        params = init_mlp_params(spec, rng)
        theta = Tensor(flat_weights(spec, params)[None, :])
        x = rng.standard_normal((1, 4))
        a = mlp_forward(spec, params, Tensor(x))
        b = make_batch_field(spec, theta)(*field_input(x))
        assert (a.data == b.data).all()

    def test_batched_matches_bit_exactly(self):
        # rows with their own weights each match the standard forward of that row
        rng = np.random.default_rng(123)
        spec = MLPSpec((4, 7, 3))
        nets = [init_mlp_params(spec, rng) for _ in range(5)]
        theta = Tensor(np.stack([flat_weights(spec, ps) for ps in nets]))
        x = rng.standard_normal((5, 4))
        out = make_batch_field(spec, theta)(*field_input(x))
        for b, ps in enumerate(nets):
            assert (mlp_forward(spec, ps, Tensor(x[b : b + 1])).data[0] == out.data[b]).all()

    def test_zero_theta_gives_zero_output(self):
        spec = MLPSpec((3, 4, 2))
        theta = Tensor(np.zeros((2, weight_count(spec))))
        out = make_batch_field(spec, theta)(Tensor([[1.0, 2.0], [-1.0, 0.5]]), np.array([3.0, 0.2]))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_length_mismatch_reports_expected_and_actual(self):
        spec = MLPSpec((3, 4, 2))
        with pytest.raises(tg.ShapeMismatch, match=rf"\(1, 7\).*\[B, {weight_count(spec)}\]"):
            make_batch_field(spec, Tensor(np.zeros((1, 7))))

    def test_gradient_wrt_theta(self):
        rng = np.random.default_rng(7)
        spec = MLPSpec((3, 6, 2))
        params = {"theta": Tensor(rng.standard_normal((2, weight_count(spec))) * 0.4)}
        z, t_row = Tensor(rng.standard_normal((2, 2))), rng.standard_normal(2)

        def prog(ps, zin):
            return tg.tensor_sum(tg.square(make_batch_field(spec, ps["theta"])(zin, t_row)))

        assert autodiff.finite_diff_check(prog, params, [z], h=1e-5) <= 1e-4


class TestHypernetwork:
    def test_zero_lambda_gives_zero_weights(self):
        rng = np.random.default_rng(0)
        target = MLPSpec((3, 4, 2))
        h = init_hypernetwork(5, target, (8,), rng, lambda_init=0.0)
        theta = hypernet_map(h, Tensor(rng.standard_normal((1, 5))))
        np.testing.assert_array_equal(theta.data, np.zeros((1, weight_count(target))))

    def test_output_bounded_by_lambda_even_for_huge_codes(self):
        rng = np.random.default_rng(1)
        target = MLPSpec((3, 4, 2))
        h = init_hypernetwork(5, target, (8,), rng, lambda_init=2.0)
        gamma = Tensor(np.full((1, 5), 1e6))
        theta = hypernet_map(h, gamma)
        assert np.all(np.abs(theta.data) <= 2.0)

    def test_is_one_mlp_forward_call_on_the_body(self, monkeypatch):
        # The benchmark's nets.hyper_s probe rebinds nets.mlp_forward and keys
        # it on the body spec; a hypernetwork that went round that call would
        # read 0 there with every other test passing.
        import fnode.nets as nets

        calls, orig = [], nets.mlp_forward

        def spy(spec, params, x):
            calls.append(spec)
            return orig(spec, params, x)

        rng = np.random.default_rng(3)
        h = init_hypernetwork(5, MLPSpec((3, 4, 2)), (8,), rng)
        gamma = Tensor(rng.standard_normal((2, 5)))
        want = hypernet_map(h, gamma).data
        monkeypatch.setattr(nets, "mlp_forward", spy)
        got = hypernet_map(h, gamma).data
        assert len(calls) == 1 and calls[0] is h.body
        assert got.tobytes() == want.tobytes()

    def test_saturation_approaches_lambda(self):
        # a body that passes its (scaled) input straight through tanh
        body = MLPSpec((1, 2), final_activation="tanh")
        params = {
            "w0": Tensor(np.array([[0.0], [30.0]])),
            "b0": Tensor(np.zeros(2)),
            "lambda": Tensor(np.float64(2.0)),
        }
        h = Hypernetwork(body, params)
        theta = hypernet_map(h, Tensor([[1.0]]))
        np.testing.assert_allclose(theta.data, [[0.0, 2.0]], atol=1e-8)


def make_traj(seed=0, n=6, obs_dim=1):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, 1.5, n))
    values = rng.standard_normal((n, obs_dim))
    return Trajectory(times, values)


class TestEncoders:
    def test_feature_layout_interleaves_time_and_values(self):
        feats = trajectory_features([0.5, 1.0], [[2.0], [4.0]], obs_scale=2.0)
        np.testing.assert_array_equal(feats, [0.5, 1.0, 1.0, 2.0])

    def test_zero_encoder_gives_standard_posterior(self):
        traj = make_traj()
        spec = MLPSpec((12, 4, 6))
        params = {}
        for i, (n_in, n_out) in enumerate([(12, 4), (4, 6)]):
            params[f"w{i}"] = Tensor(np.zeros((n_out, n_in)))
            params[f"b{i}"] = Tensor(np.zeros(n_out))
        q = encode_features(MLP(spec, params), batch_features([traj]))
        np.testing.assert_array_equal(q.mean.data, np.zeros((1, 3)))
        np.testing.assert_array_equal(q.log_var.data, np.zeros((1, 3)))

    def test_determinism(self):
        rng = np.random.default_rng(0)
        enc = MLP.init((12, 8, 6), rng)
        traj = make_traj()
        a = encode_features(enc, batch_features([traj]))
        b = encode_features(enc, batch_features([traj]))
        assert (a.mean.data == b.mean.data).all()
        assert (a.log_var.data == b.log_var.data).all()

    def test_batch_encode_matches_single(self):
        rng = np.random.default_rng(3)
        enc = MLP.init((12, 8, 6), rng)
        trajs = [make_traj(seed=s) for s in range(4)]
        q_batch = encode_features(enc, batch_features(trajs))
        # reference: the plain-numpy encoder applied to one trajectory at a time
        w0, b0, w1, b1 = (enc.params[k].data for k in ("w0", "b0", "w1", "b1"))
        for i, t in enumerate(trajs):
            out = w1 @ np.tanh(w0 @ trajectory_features(t.times, t.values) + b0) + b1
            np.testing.assert_allclose(q_batch.mean.data[i], out[:3], rtol=1e-12)
            np.testing.assert_allclose(q_batch.log_var.data[i], out[3:], rtol=1e-12)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            trajectory_features([], [])


class TestEndToEndGradients:
    def test_encode_hypernet_functional_decode_chain(self):
        rng = np.random.default_rng(9)
        p, d_gamma, obs = 2, 3, 1
        n = 4
        traj = make_traj(seed=1, n=n, obs_dim=obs)
        feat = n * (1 + obs)

        enc_g = MLP.init((feat, 6, 2 * d_gamma), rng)
        f_spec = MLPSpec((p + 1, 5, p))
        hyper = init_hypernetwork(d_gamma, f_spec, (6,), rng, lambda_init=0.5)
        dec = MLP.init((p, 5, obs), rng)

        parts = (("g.", enc_g.params), ("h.", hyper.params), ("d.", dec.params))
        params = {prefix + name: t for prefix, ps in parts for name, t in ps.items()}

        feats = Tensor(trajectory_features(traj.times, traj.values)[None, :])
        z = Tensor(rng.standard_normal((1, p)))
        t_row = np.array([0.3])

        def prog(ps, feats_in, zin):
            # each component reads its entries of the perturbed set under their own names
            def part(prefix, own):
                return {name: ps[prefix + name] for name in own}

            enc = MLP(enc_g.spec, part("g.", enc_g.params))
            hy = Hypernetwork(hyper.body, part("h.", hyper.params))
            de = MLP(dec.spec, part("d.", dec.params))
            gamma = tg.cols(enc(feats_in), 0, d_gamma)
            theta = hypernet_map(hy, gamma)
            zdot = make_batch_field(f_spec, theta)(zin, t_row)
            return tg.tensor_sum(tg.square(de(zdot)))

        err = autodiff.finite_diff_check(prog, params, [feats, z], h=1e-5)
        assert err <= 1e-4
