import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autodiff
import fnode.tensorgrad as tg
from fnode import odeint
from fnode.odeint import IntegrationBlowUp, SolverConfig, integrate_batch
from fnode.tensorgrad import Tensor


def const_field(c):
    def fld(z, t):
        return tg.scale(z, 0.0) + c

    return fld


def solve(field, z0, grid, cfg=SolverConfig()):
    """The states of a batch of one: ``z0`` is a [1, p] tensor and ``grid`` its times."""
    return integrate_batch(field, z0, np.asarray(grid, dtype=np.float64)[None, :], cfg)


class TestIntegrate:
    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            solve(const_field(1.0), Tensor([[0.0]]), [0.0, 0.0, 1.0])

    def test_single_time_ok(self):
        z0 = Tensor([[0.5]])
        assert solve(const_field(1.0), z0, [0.5]) == [z0]

    def test_zero_field_is_constant(self):
        states = solve(const_field(0.0), Tensor([[5.0]]), [0.0, 1.0])
        assert [s.item() for s in states] == [5.0, 5.0]

    def test_constant_phase_rate(self):
        # d(psi)/dt = 2*pi is integrated exactly by RK4
        states = solve(const_field(2.0 * math.pi), Tensor([[0.0]]), [0.0, 1.5])
        assert states[-1].item() == pytest.approx(3.0 * math.pi, abs=1e-12)

    def test_exponential_growth(self):
        states = solve(lambda z, t: z, Tensor([[1.0]]), [0.0, 1.0], SolverConfig(step_size=0.1))
        assert states[-1].item() == pytest.approx(math.e, abs=1e-5)

    def test_order_four_convergence(self):
        def err_at(h):
            out = solve(lambda z, t: z, Tensor([[1.0]]), [0.0, 1.0], SolverConfig(step_size=h))
            return abs(out[-1].item() - math.e)

        ratio = err_at(0.1) / err_at(0.05)
        assert 14.0 <= ratio <= 18.0

    def test_time_reversal(self):
        # integrating the negated field from the end state returns to the start
        z0 = Tensor([[0.7, -0.2]])
        fwd = solve(lambda z, t: tg.tanh(z), z0, [0.0, 1.0])[-1]
        back = solve(lambda z, tau: tg.neg(tg.tanh(z)), fwd, [0.0, 1.0])[-1]
        np.testing.assert_allclose(back.data, z0.data, rtol=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_reports_time(self):
        # dz/dt = z^2 from z0 = 2 escapes at t = 1/2
        with pytest.raises(IntegrationBlowUp) as ei:
            solve(lambda z, t: tg.square(z), Tensor([[2.0]]), [0.0, 5.0])
        assert 0.5 <= ei.value.t <= 1.0
        assert ei.value.row == 0

    def test_partial_step_lands_on_grid_times(self):
        # gap of 0.25 with h=0.1 needs two full steps and one 0.05 step
        states = solve(const_field(1.0), Tensor([[0.0]]), [0.0, 0.25, 0.4])
        assert states[1].item() == pytest.approx(0.25, abs=1e-12)
        assert states[2].item() == pytest.approx(0.4, abs=1e-12)

    def test_gradient_of_linear_field_matches_exponential(self):
        a = 0.8
        T = 1.0

        def prog(params):
            out = solve(lambda z, t: tg.scale(z, a), params["z0"], [0.0, T])
            return tg.tensor_sum(out[-1])

        params = {"z0": Tensor([[1.3]])}
        g = autodiff.gradient(prog, params, [])
        assert g["z0"].item() == pytest.approx(math.exp(a * T), rel=1e-5)

    def test_gradient_wrt_field_parameter(self):
        # z(T) = z0 * exp(a*T); d/da = T * z(T), checked by central differences
        def prog(params):
            out = solve(lambda z, t: tg.dense(z, params["a"], Tensor([0.0])), Tensor([[1.0]]), [0.0, 1.0])
            return tg.tensor_sum(out[-1])

        params = {"a": Tensor([[0.5]])}
        assert autodiff.finite_diff_check(prog, params, [], h=1e-5) <= 1e-6


class TestIntegrateBatch:
    def batch_setup(self, seed=0, B=5, T=6):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 1.5, size=(B, T)), axis=1)
        z0 = rng.standard_normal((B, 2))
        a = rng.uniform(-1.0, 1.0, size=(B, 1))
        return times, z0, a

    def test_matches_per_row_integration(self):
        # z' = a_b z is z0 exp(a_b (t - t0)).  RK4's relative error per step of
        # size h is at most (|a| h)^5 / 100, and a row takes at most
        # span / h full steps plus one partial step per segment.
        times, z0, a = self.batch_setup()

        def batch_field(Z, t_row):
            return tg.mul(Z, Tensor(np.broadcast_to(a, Z.data.shape).copy()))

        h = 0.1
        states = integrate_batch(batch_field, Tensor(z0), times, SolverConfig(step_size=h))
        got = np.stack([s.data for s in states], axis=1)
        exact = z0[:, None, :] * np.exp(a[:, None, :] * (times - times[:, :1])[:, :, None])
        n_steps = (times[:, -1] - times[:, 0]) / h + times.shape[1]
        rel = n_steps[:, None, None] * (np.abs(a[:, None, :]) * h) ** 5 / 100 + 1e-14
        assert np.all(np.abs(got - exact) <= rel * np.abs(exact))

    def test_decreasing_rows_match_the_exponential(self):
        # The same oracle on each row's grid reversed: the solve runs backward
        # from the row's last time, so z(t) = z0 exp(a_b (t - t0)) with t < t0.
        times, z0, a = self.batch_setup(seed=1)
        times = times[:, ::-1]

        def batch_field(Z, t_row):
            return tg.mul(Z, Tensor(np.broadcast_to(a, Z.data.shape).copy()))

        h = 0.1
        states = integrate_batch(batch_field, Tensor(z0), times, SolverConfig(step_size=h))
        got = np.stack([s.data for s in states], axis=1)
        exact = z0[:, None, :] * np.exp(a[:, None, :] * (times - times[:, :1])[:, :, None])
        n_steps = (times[:, 0] - times[:, -1]) / h + times.shape[1]
        rel = n_steps[:, None, None] * (np.abs(a[:, None, :]) * h) ** 5 / 100 + 1e-14
        assert np.all(np.abs(got - exact) <= rel * np.abs(exact))
        assert np.max(np.abs(got[:, -1] - z0)) > 0.1  # the states moved

    def test_time_dependent_field_matches(self):
        # z' = a_b cos(2 pi t) z is z0 exp(a_b (sin 2 pi t - sin 2 pi t0) / (2 pi)).
        # Fourth-order convergence on every row needs each row's own stage times.
        times, z0, a = self.batch_setup(seed=3, B=4, T=5)
        w = 2.0 * np.pi

        def batch_field(Z, t_row):
            return tg.mul(Z, Tensor(a * np.cos(w * t_row)[:, None] * np.ones(Z.data.shape)))

        phase = (np.sin(w * times) - np.sin(w * times[:, :1])) / w
        exact = z0[:, None, :] * np.exp(a[:, None, :] * phase[:, :, None])
        errs = []
        for h in (0.05, 0.025):
            states = integrate_batch(batch_field, Tensor(z0), times, SolverConfig(step_size=h))
            errs.append(np.max(np.abs(np.stack([s.data for s in states], axis=1) - exact)))
        assert errs[0] <= 1e-5
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_rejects_row_count_mismatch(self):
        times, z0, _ = self.batch_setup()
        with pytest.raises(ValueError):
            integrate_batch(lambda Z, t: Z, Tensor(z0[:2]), times, SolverConfig())

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            integrate_batch(lambda Z, t: Z, Tensor(np.zeros((1, 2))), np.zeros((1, 0)), SolverConfig())

    def test_rejects_non_increasing_rows(self):
        z0 = np.zeros((2, 1))
        times = np.array([[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            integrate_batch(lambda Z, t: Z, Tensor(z0), times, SolverConfig())

    @pytest.mark.parametrize(
        "row", [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [1.0, 0.5, 0.5], [0.0, 0.5, 0.5], [1.0, np.nan, 0.0]]
    )
    def test_rejects_a_row_that_turns_or_repeats_a_time(self, row):
        times = np.array([[0.0, 0.4, 0.9], row])
        with pytest.raises(ValueError, match="strictly"):
            integrate_batch(lambda Z, t: Z, Tensor(np.zeros((2, 1))), times, SolverConfig())

    @pytest.mark.parametrize(
        "row", [[0.0, 1e12], [0.0, 1e19], [0.0, 1e300], [-1e308, 1e308], [1e308, -1e308], [0.0, 0.5, 1e19]]
    )
    def test_refuses_a_grid_of_too_many_steps(self, row):
        # counted in float64: 1e19 / h overflows the int64 cast, a gap of 2e308 float64 itself
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"steps of size 0\.1, over the limit of 100000"):
                integrate_batch(lambda Z, t: calls.append(t) or Z, Tensor(np.zeros((2, 1))),
                                np.array([np.linspace(0.0, 1.0, len(row)), row]), SolverConfig(step_size=0.1))
        assert not calls

    def test_a_row_of_max_steps_runs(self, monkeypatch):
        # ten full steps, or nine and a partial one, fit a limit of 10; one step more does not
        monkeypatch.setattr(odeint, "MAX_STEPS", 10)
        calls = []
        for end in (1.0, 0.95):
            integrate_batch(lambda Z, t: calls.append(t) or Z, Tensor(np.zeros((1, 1))), np.array([[0.0, end]]),
                            SolverConfig(step_size=0.1))
        assert len(calls) == 2 * 4 * 10
        with pytest.raises(ValueError, match="needs 11 steps"):
            integrate_batch(lambda Z, t: Z, Tensor(np.zeros((1, 1))), np.array([[0.0, 1.05]]), SolverConfig(0.1))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("checks", [True, False])
    @pytest.mark.parametrize("start", [(0.0, 0.0, 0.0), (0.3, 0.0, 0.2)])
    def test_blowup_reports_first_row_and_its_own_time(self, start, checks):
        # dz/dt = z^2 escapes at t0 + 1/z0, so row 1 (z0 = 2) goes first; its
        # reported time is its own, not the batch's largest grid time.  With
        # per-primitive checks off (as in training) the state check catches it.
        z0 = np.array([[0.5], [2.0], [1.0]])
        t0 = np.array(start)
        times = np.stack([t0, t0 + 5.0], axis=1)
        h = 0.01
        with pytest.raises(IntegrationBlowUp) as ei, tg.finite_checks(checks):
            integrate_batch(lambda Z, t: tg.square(Z), Tensor(z0), times, SolverConfig(step_size=h))
        escape = t0[1] + 1.0 / z0[1, 0]
        assert ei.value.row == 1
        assert escape <= ei.value.t <= escape + 5 * h


def ragged_rows(seed, B=6, T=7, h=0.1):
    """Per-row grids whose gaps span zero to eight steps of size h, with tiny
    gaps that take no step and exact multiples of h; and each row's own step
    count S_b, one step per started h of each gap."""
    rng = np.random.default_rng(seed)
    gaps = h * rng.choice([1e-12, 0.3, 1.0, 1.5, 2.0, 3.7, 6.2, 8.0], size=(B, T - 1))
    times = np.concatenate([rng.uniform(-1.0, 1.0, size=(B, 1)), gaps], axis=1).cumsum(axis=1)
    gaps = np.diff(times, axis=1)
    own_steps = np.array([sum(math.ceil(g / h - 1e-9) for g in row) for row in gaps])
    lockstep = sum(max(math.ceil(g / h - 1e-9) for g in col) for col in gaps.T)
    return times, own_steps, lockstep


def mlp_layers(rng, B, widths):
    """Per-row tanh MLP weights for tg.rowwise_mlp, one [B, n_in*n_out] block per layer."""
    return [
        (Tensor(0.5 * rng.standard_normal((B, n_in * n_out))), Tensor(rng.standard_normal((B, n_out))), n_in, n_out, True)
        for n_in, n_out in zip(widths[:-1], widths[1:])
    ]


class TestOwnSchedules:
    @pytest.mark.parametrize("seed", range(4))
    def test_field_calls_follow_the_longest_row(self, seed):
        # Each solver step is four field calls, and the batch steps only as
        # often as its longest row, not as the slowest row of each segment.
        h = 0.1
        times, own_steps, lockstep = ragged_rows(seed, h=h)
        calls = []

        def fld(Z, t_row):
            calls.append(None)
            return tg.tanh(Z)

        integrate_batch(fld, Tensor(np.ones((times.shape[0], 2))), times, SolverConfig(step_size=h))
        assert len(calls) == 4 * own_steps.max()
        assert own_steps.max() < lockstep

    @pytest.mark.parametrize("seed", range(3))
    def test_row_gradient_equals_row_run_alone(self, seed):
        # d(sum of squared states)/d(z0) for one row of a ragged batch is
        # the gradient of that row solved on its own, bit for bit.
        times, _, _ = ragged_rows(seed, B=5)
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal((5, 2))
        layers = mlp_layers(rng, 5, (3, 4, 2))
        cfg = SolverConfig(step_size=0.1)

        def z0_grad(rows):
            z = Tensor(z0[rows])
            sub = [(Tensor(w.data[rows]), Tensor(b.data[rows]), *rest) for w, b, *rest in layers]
            states = integrate_batch(lambda Z, t: tg.rowwise_mlp(Z, t, sub), z, times[rows], cfg)
            tg.backward(tg.tensor_sum(tg.square(tg.concat(states))))
            return z.grad

        together = z0_grad(slice(None))
        for b in range(5):
            np.testing.assert_array_equal(together[b], z0_grad(slice(b, b + 1))[0])


@pytest.mark.parametrize("seed", range(3))
def test_mixed_directions_leave_each_row_as_if_run_alone(seed):
    # A batch of increasing and decreasing rows through a time-dependent
    # field: each row's states, and the gradient that reaches its initial
    # state, are bit-identical to the row solved on its own.
    times, _, _ = ragged_rows(seed, B=5)
    times[1::2] = times[1::2, ::-1]
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((5, 2))
    layers = mlp_layers(rng, 5, (3, 4, 2))
    cfg = SolverConfig(step_size=0.1)

    def solve_rows(rows):
        z = Tensor(z0[rows])
        sub = [(Tensor(w.data[rows]), Tensor(b.data[rows]), *rest) for w, b, *rest in layers]
        states = integrate_batch(lambda Z, t: tg.rowwise_mlp(Z, t, sub), z, times[rows], cfg)
        path = np.stack([s.data for s in states], axis=1)
        tg.backward(tg.tensor_sum(tg.square(tg.concat(states))))
        return path, z.grad

    path, grad = solve_rows(slice(None))
    for b in range(5):
        alone_path, alone_grad = solve_rows(slice(b, b + 1))
        np.testing.assert_array_equal(path[b], alone_path[0])
        np.testing.assert_array_equal(grad[b], alone_grad[0])


# Rows of mixed step counts: a row padded with zero-length steps while others
# still step must match the same row run alone, at every grid time.
@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(-1.0, 1.0),  # t0
            st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),  # gaps between grid times
            st.floats(-2.0, 2.0),  # z0
            st.floats(-1.5, 1.5),  # rate
        ),
        min_size=2,
        max_size=4,
    ),
    h=st.floats(0.02, 0.5),
)
def test_padding_leaves_each_row_as_if_run_alone(rows, h):
    n_gaps = min(len(r[1]) for r in rows)
    times = np.array([t0 + np.concatenate([[0.0], np.cumsum(gaps[:n_gaps])]) for t0, gaps, _, _ in rows])
    z0 = np.array([[r[2]] for r in rows])
    rate = np.array([[r[3]] for r in rows])

    def field_for(rate_rows):
        def fld(Z, t_row):
            return tg.tanh(tg.mul(Z, Tensor(rate_rows))) + Tensor(np.cos(t_row)[:, None])

        return fld

    cfg = SolverConfig(step_size=h)
    batch = integrate_batch(field_for(rate), Tensor(z0), times, cfg)
    for b in range(len(rows)):
        alone = integrate_batch(field_for(rate[b : b + 1]), Tensor(z0[b : b + 1]), times[b : b + 1], cfg)
        for together, single in zip(batch, alone):
            np.testing.assert_array_equal(together.data[b], single.data[0])
