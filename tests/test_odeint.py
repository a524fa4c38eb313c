import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fnode.tensorgrad as tg
from fnode.odeint import (
    IntegrationBlowUp,
    SolverConfig,
    TimeGrid,
    integrate,
    integrate_batch,
)
from fnode.tensorgrad import ParamSet, Tensor


def const_field(c):
    def fld(z, t):
        return tg.scale(z, 0.0) + c

    return fld


class TestTimeGrid:
    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0, 0.0, 1.0])

    def test_single_time_ok(self):
        assert len(TimeGrid([0.5])) == 1


class TestIntegrate:
    def test_zero_field_is_constant(self):
        states = integrate(const_field(0.0), Tensor([5.0]), TimeGrid([0.0, 1.0]), SolverConfig())
        assert [s.item() for s in states] == [5.0, 5.0]

    def test_constant_phase_rate(self):
        # d(psi)/dt = 2*pi is integrated exactly by RK4
        states = integrate(
            const_field(2.0 * math.pi), Tensor([0.0]), TimeGrid([0.0, 1.5]), SolverConfig()
        )
        assert states[-1].item() == pytest.approx(3.0 * math.pi, abs=1e-12)

    def test_exponential_growth(self):
        def fld(z, t):
            return z

        states = integrate(fld, Tensor([1.0]), TimeGrid([0.0, 1.0]), SolverConfig(step_size=0.1))
        assert states[-1].item() == pytest.approx(math.e, abs=1e-5)

    def test_order_four_convergence(self):
        def fld(z, t):
            return z

        def err_at(h):
            out = integrate(fld, Tensor([1.0]), TimeGrid([0.0, 1.0]), SolverConfig(step_size=h))
            return abs(out[-1].item() - math.e)

        ratio = err_at(0.1) / err_at(0.05)
        assert 14.0 <= ratio <= 18.0

    def test_time_reversal(self):
        def fld(z, t):
            return tg.tanh(z) + math.sin(t)

        def neg_fld(z, tau):
            # reversed clock: state at tau runs the original field at 1 - tau
            return tg.neg(fld(z, 1.0 - tau))

        z0 = Tensor([0.7, -0.2])

        def fld2(z, t):
            return tg.tanh(z)

        fwd = integrate(fld2, z0, TimeGrid([0.0, 1.0]), SolverConfig())[-1]

        def rev2(z, tau):
            return tg.neg(tg.tanh(z))

        back = integrate(rev2, fwd, TimeGrid([0.0, 1.0]), SolverConfig())[-1]
        np.testing.assert_allclose(back.data, z0.data, rtol=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_reports_time(self):
        def fld(z, t):
            return tg.square(z)  # dz/dt = z^2 escapes in finite time from z0=2

        with pytest.raises(IntegrationBlowUp) as ei:
            integrate(fld, Tensor([2.0]), TimeGrid([0.0, 5.0]), SolverConfig())
        assert ei.value.t > 0.0

    def test_partial_step_lands_on_grid_times(self):
        # gap of 0.25 with h=0.1 needs two full steps and one 0.05 step
        def fld(z, t):
            return const_field(1.0)(z, t)

        states = integrate(fld, Tensor([0.0]), TimeGrid([0.0, 0.25, 0.4]), SolverConfig())
        assert states[1].item() == pytest.approx(0.25, abs=1e-12)
        assert states[2].item() == pytest.approx(0.4, abs=1e-12)

    def test_gradient_of_linear_field_matches_exponential(self):
        a = 0.8
        T = 1.0

        def prog(params):
            def fld(z, t):
                return tg.scale(z, a)

            out = integrate(fld, params["z0"], TimeGrid([0.0, T]), SolverConfig())
            return tg.tensor_sum(out[-1])

        params = ParamSet([("z0", Tensor([1.3]))])
        g = tg.gradient(prog, params, [])
        assert g["z0"].item() == pytest.approx(math.exp(a * T), rel=1e-5)

    def test_gradient_wrt_field_parameter(self):
        # z(T) = z0 * exp(a*T); d/da = T * z(T), checked by central differences
        def prog(params):
            def fld(z, t):
                return tg.scalar_mul(z, params["a"])

            out = integrate(fld, Tensor([1.0]), TimeGrid([0.0, 1.0]), SolverConfig())
            return tg.tensor_sum(out[-1])

        params = ParamSet([("a", Tensor(0.5))])
        assert tg.finite_diff_check(prog, params, [], h=1e-5) <= 1e-6


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

    def test_rejects_non_increasing_rows(self):
        z0 = np.zeros((2, 1))
        times = np.array([[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            integrate_batch(lambda Z, t: Z, Tensor(z0), times, SolverConfig())

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
