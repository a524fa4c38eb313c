import numpy as np
import pytest

import autodiff
import fnode.tensorgrad as tg
from fnode.tensorgrad import ParamSet, Tensor


def make_params(**arrays):
    ps = ParamSet()
    for name, arr in arrays.items():
        ps.add(name, Tensor(np.asarray(arr, dtype=np.float64)))
    return ps


class TestEvaluate:
    def test_sum_of_product(self):
        def prog(params):
            return tg.tensor_sum(tg.mul(params["a"], params["b"]))

        params = make_params(a=[1.0, 2.0], b=[3.0, 4.0])
        assert autodiff.evaluate(prog, params, []).item() == 11.0

    def test_tanh_at_origin(self):
        def prog(params):
            return tg.tanh(params["x"])

        assert autodiff.evaluate(prog, make_params(x=0.0), []).item() == 0.0

    def test_matmul_identity(self):
        def prog(params, v):
            return tg.matmul(params["I"], v)

        params = make_params(I=np.eye(3))
        v = Tensor([[1.0], [2.0], [3.0]])
        out = autodiff.evaluate(prog, params, [v])
        np.testing.assert_array_equal(out.data, [[1.0], [2.0], [3.0]])

    def test_shape_mismatch_names_primitive(self):
        def prog(params):
            return tg.add(params["a"], params["b"])

        params = make_params(a=[1.0, 2.0], b=[1.0, 2.0, 3.0])
        with pytest.raises(tg.ShapeMismatch, match="add"):
            autodiff.evaluate(prog, params, [])

    def test_matmul_and_add_take_rank_2_only(self):
        m, v = Tensor(np.ones((2, 3))), Tensor(np.ones(3))
        with pytest.raises(tg.ShapeMismatch, match="matmul"):
            tg.matmul(m, v)
        with pytest.raises(tg.ShapeMismatch, match="add"):
            m + v

    def test_nonfinite_intermediate_names_primitive(self):
        def prog(params):
            return tg.exp(params["x"])

        with pytest.raises(tg.NonFiniteValue, match="exp"), np.errstate(over="ignore"):
            autodiff.evaluate(prog, make_params(x=[1000.0]), [])

    def test_leaf_must_be_finite(self):
        with pytest.raises(tg.NonFiniteValue):
            Tensor([1.0, np.nan])

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(5)
        params = make_params(w=rng.standard_normal((4, 4)), b=rng.standard_normal((4, 1)))

        def prog(ps, x):
            return tg.tensor_sum(tg.tanh(tg.matmul(ps["w"], x) + ps["b"]))

        x = Tensor(rng.standard_normal((4, 1)))
        a = autodiff.evaluate(prog, params, [x]).item()
        b = autodiff.evaluate(prog, params, [x]).item()
        assert a == b
        ga = autodiff.gradient(prog, params, [x])
        gb = autodiff.gradient(prog, params, [x])
        for name in params.names():
            np.testing.assert_array_equal(ga[name].data, gb[name].data)


class TestGradient:
    def test_square(self):
        def prog(params):
            return tg.square(params["x"])

        g = autodiff.gradient(prog, make_params(x=3.0), [])
        assert g["x"].item() == 6.0

    def test_tanh_prime_at_zero(self):
        def prog(params):
            return tg.tanh(params["x"])

        g = autodiff.gradient(prog, make_params(x=0.0), [])
        assert g["x"].item() == 1.0

    def test_linear_map_weight_grad(self):
        def prog(params):
            return tg.tensor_sum(tg.matmul(params["W"], params["v"]))

        params = make_params(W=np.zeros((3, 2)), v=[[1.0], [2.0]])
        g = autodiff.gradient(prog, params, [])
        np.testing.assert_array_equal(g["W"].data, np.tile([1.0, 2.0], (3, 1)))

    def test_unused_param_gets_zeros(self):
        def prog(params):
            return tg.tensor_sum(params["a"])

        params = make_params(a=[1.0, 2.0], unused=np.ones((2, 3)))
        g = autodiff.gradient(prog, params, [])
        np.testing.assert_array_equal(g["unused"].data, np.zeros((2, 3)))

    def test_non_scalar_output_rejected(self):
        def prog(params):
            return params["a"]

        with pytest.raises(tg.NonScalarOutput):
            autodiff.gradient(prog, make_params(a=[1.0, 2.0]), [])

    def test_linearity(self):
        # grad(a*f + b*g) == a*grad(f) + b*grad(g) to float accumulation order
        rng = np.random.default_rng(11)
        x = rng.standard_normal(6)
        a, b = 2.5, -1.25

        def f(params):
            return tg.tensor_sum(tg.square(params["x"]))

        def g(params):
            return tg.tensor_sum(tg.tanh(params["x"]))

        def combo(params):
            return tg.scale(f(params), a) + tg.scale(g(params), b)

        params = make_params(x=x)
        gf = autodiff.gradient(f, params, [])["x"].data
        gg = autodiff.gradient(g, params, [])["x"].data
        gc = autodiff.gradient(combo, params, [])["x"].data
        np.testing.assert_allclose(gc, a * gf + b * gg, rtol=1e-12)


def central_diff(fn, x, h=1e-6):
    # independent scalar-derivative oracle used across the gradient tests
    return (fn(x + h) - fn(x - h)) / (2 * h)


class TestFiniteDiffCheck:
    def test_cubic(self):
        def prog(params):
            return tg.mul(tg.square(params["x"]), params["x"])

        err = autodiff.finite_diff_check(prog, make_params(x=2.0), [], h=1e-5)
        assert err <= 1e-6

    def test_constant_program(self):
        def prog(params):
            return tg.scale(tg.tensor_sum(params["x"]), 0.0)

        err = autodiff.finite_diff_check(prog, make_params(x=[1.0, 2.0]), [], h=1e-5)
        assert err == 0.0

    def test_small_mlp_loss(self):
        rng = np.random.default_rng(3)
        params = make_params(
            w0=rng.standard_normal((8, 4)) * 0.5,
            b0=rng.standard_normal((8, 1)) * 0.5,
            w1=rng.standard_normal((1, 8)) * 0.5,
            b1=rng.standard_normal((1, 1)) * 0.5,
        )
        x = Tensor(rng.standard_normal((4, 1)))

        def prog(ps, xin):
            h = tg.tanh(tg.matmul(ps["w0"], xin) + ps["b0"])
            return tg.tensor_sum(tg.matmul(ps["w1"], h) + ps["b1"])

        assert autodiff.finite_diff_check(prog, params, [x], h=1e-5) <= 1e-4

    def test_requires_positive_h(self):
        def prog(params):
            return tg.tensor_sum(params["x"])

        with pytest.raises(ValueError):
            autodiff.finite_diff_check(prog, make_params(x=[1.0]), [], h=0.0)

    def test_wrong_gradient_still_fails(self):
        # doubling with a backward that scales by 1.98: a 1% error on a 1e-3 gradient
        def bad_double(a):
            def bwd(g):
                a.grad = 1.98 * g

            return Tensor(2.0 * a.data, (a,), bwd, "bad_double")

        def prog(params):
            return tg.scale(tg.tensor_sum(bad_double(params["x"])), 5e-4)

        err = autodiff.finite_diff_check(prog, make_params(x=[1.0, -2.0]), [], h=1e-5)
        assert err == pytest.approx(0.01, rel=1e-3)


# Three rows, each with its own weights for a (2 + 1) -> 4 -> 3 -> 2 network.
T3 = np.array([0.3, -0.5, 1.1])
MLP_LAYERS = ((3, 4), (4, 3), (3, 2))


def mlp_layers(ps, final_tanh):
    last = len(MLP_LAYERS) - 1
    return [
        (ps[f"wl{i}"], ps[f"bl{i}"], n_in, n_out, i < last or final_tanh)
        for i, (n_in, n_out) in enumerate(MLP_LAYERS)
    ]


PRIMITIVE_PROGRAMS = {
    "add": lambda ps: tg.tensor_sum(tg.square(tg.add(ps["a"], ps["b"]))),
    "sub": lambda ps: tg.tensor_sum(tg.square(tg.sub(ps["a"], ps["b"]))),
    "mul": lambda ps: tg.tensor_sum(tg.mul(ps["a"], ps["b"])),
    "scalar_mul": lambda ps: tg.tensor_sum(tg.scalar_mul(ps["a"], ps["s"])),
    "matmul_mm": lambda ps: tg.tensor_sum(tg.matmul(ps["m1"], ps["m2"])),
    "broadcast_add": lambda ps: tg.tensor_sum(tg.square(tg.broadcast_add(ps["m1"], ps["b4"]))),
    "tanh": lambda ps: tg.tensor_sum(tg.tanh(ps["a"])),
    "exp": lambda ps: tg.tensor_sum(tg.exp(ps["a"])),
    "square": lambda ps: tg.tensor_sum(tg.square(ps["a"])),
    # blocks of 3, 2 and 3 rows, with m1 twice so its two gradient slices add
    "concat": lambda ps: tg.tensor_sum(tg.square(tg.concat([ps["m1"], tg.transpose(ps["m2"]), ps["m1"]]))),
    "cols": lambda ps: tg.tensor_sum(tg.square(tg.cols(ps["m1"], 1, 3))),
    "transpose": lambda ps: tg.tensor_sum(tg.square(tg.matmul(tg.transpose(ps["m1"]), ps["m1"]))),
    "scale": lambda ps: tg.tensor_sum(tg.scale(ps["a"], 1.7)),
    "shift": lambda ps: tg.tensor_sum(tg.square(tg.shift(ps["a"], 0.3))),
    "neg": lambda ps: tg.tensor_sum(tg.square(tg.neg(ps["a"]))),
    "rowwise_mlp": lambda ps: tg.tensor_sum(tg.square(tg.rowwise_mlp(ps["z3"], T3, mlp_layers(ps, True)))),
    "rowwise_mlp_plain": lambda ps: tg.tensor_sum(tg.square(tg.rowwise_mlp(ps["z3"], T3, mlp_layers(ps, False)))),
    # two evaluations sharing weights, as in a solver step: the weight
    # gradients are stashed twice and the state gradient flows through both
    "rowwise_mlp_chained": lambda ps: tg.tensor_sum(
        tg.square(
            tg.rowwise_mlp(tg.rowwise_mlp(ps["z3"], T3, mlp_layers(ps, False)), T3 + 0.2, mlp_layers(ps, False))
        )
    ),
    "add_scaled_rows": lambda ps: tg.tensor_sum(
        tg.square(tg.add_scaled_rows(ps["m1"], ps["m1b"], np.array([[0.3], [0.0], [1.2]])))
    ),
    # two grid columns over a three-step path: row 1 reaches both columns at
    # step 2 (a zero-step segment), so its two gradient slices add in m1c
    "pick_rows": lambda ps: tg.tensor_sum(
        tg.square(
            tg.concat(
                [
                    tg.pick_rows([ps["m1"], ps["m1b"], ps["m1c"]], np.array([0, 2, 1])),
                    tg.scale(tg.pick_rows([ps["m1"], ps["m1b"], ps["m1c"]], np.array([1, 2, 2])), 1.3),
                ]
            )
        )
    ),
    "rk4_combine": lambda ps: tg.tensor_sum(
        tg.square(
            tg.rk4_combine(
                ps["m1"], ps["m1b"], ps["m1c"], ps["m1d"], ps["m1e"],
                np.array([[0.1], [0.0], [0.07]]),
            )
        )
    ),
}


def primitive_params(seed):
    rng = np.random.default_rng(seed)
    return make_params(
        a=rng.standard_normal(4),
        b=rng.standard_normal(4),
        s=rng.standard_normal(1),
        m1=rng.standard_normal((3, 4)),
        m1b=rng.standard_normal((3, 4)),
        m1c=rng.standard_normal((3, 4)),
        m1d=rng.standard_normal((3, 4)),
        m1e=rng.standard_normal((3, 4)),
        m2=rng.standard_normal((4, 2)),
        b4=rng.standard_normal(4),
        z3=rng.standard_normal((3, 2)),
        # half-scale weights keep the tanh units out of saturation, where a
        # gradient of 1e-7 is below what central differences resolve
        **{f"wl{i}": 0.5 * rng.standard_normal((3, n_in * n_out)) for i, (n_in, n_out) in enumerate(MLP_LAYERS)},
        **{f"bl{i}": rng.standard_normal((3, n_out)) for i, (_, n_out) in enumerate(MLP_LAYERS)},
    )


@pytest.mark.parametrize("name", sorted(PRIMITIVE_PROGRAMS))
def test_primitive_gradients_match_central_differences(name):
    prog = PRIMITIVE_PROGRAMS[name]
    for seed in range(5):
        err = autodiff.finite_diff_check(prog, primitive_params(seed), [], h=1e-5)
        assert err <= 1e-4, f"{name} seed {seed}: {err}"


def test_noise_level_gradient_passes_at_unit_scale_weights():
    # Unit-scale weights saturate tanh units.  At seed 4 one gradient is
    # 1.3e-7, and its analytic and numeric values agree to 3e-11: rounding
    # noise of the difference quotient, which a bare relative error reads as
    # 2.4e-4.
    ps = primitive_params(4)
    for i in range(len(MLP_LAYERS)):
        ps[f"wl{i}"].data[...] *= 2.0
    assert autodiff.finite_diff_check(PRIMITIVE_PROGRAMS["rowwise_mlp"], ps, [], h=1e-5) <= 1e-4


class TestPickRows:
    def test_picks_each_rows_own_step(self):
        path = [Tensor(np.full((3, 2), float(k))) for k in range(4)]
        out = tg.pick_rows(path, np.array([3, 0, 3]))
        np.testing.assert_array_equal(out.data, [[3.0, 3.0], [0.0, 0.0], [3.0, 3.0]])
        assert out._op == "pick_rows" and set(map(id, out._parents)) == {id(path[0]), id(path[3])}

    def test_shared_step_is_the_path_tensor_itself(self):
        path = [Tensor(np.full((3, 2), float(k))) for k in range(4)]
        assert tg.pick_rows(path, np.array([2, 2, 2])) is path[2]

    def test_shared_grid_solve_adds_no_pick_rows_node(self):
        # Rollouts share one grid across rows, so every grid state is a solver
        # step's own output and the tape holds no pick_rows node.
        from fnode.odeint import SolverConfig, integrate_batch

        grid = np.array([0.0, 0.25, 0.3, 0.9])
        z0 = Tensor(np.array([[0.5], [-1.0], [2.0]]))
        states = integrate_batch(
            lambda Z, t: tg.tanh(Z), z0, np.broadcast_to(grid, (3, grid.size)), SolverConfig(step_size=0.1)
        )
        assert states[0] is z0
        assert all(s._op == "rk4_combine" for s in states[1:])
        seen, stack = set(), list(states)
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                assert node._op != "pick_rows"
                stack.extend(node._parents)


class TestRowwiseMLP:
    @pytest.mark.parametrize("final_tanh", [True, False])
    def test_forward_matches_per_row_numpy_network(self, final_tanh):
        ps = primitive_params(7)
        out = tg.rowwise_mlp(ps["z3"], T3, mlp_layers(ps, final_tanh)).data
        for b in range(3):
            h = np.append(ps["z3"].data[b], T3[b])
            for i, (n_in, n_out) in enumerate(MLP_LAYERS):
                W = ps[f"wl{i}"].data[b].reshape(n_out, n_in)
                h = W @ h + ps[f"bl{i}"].data[b]
                if i < len(MLP_LAYERS) - 1 or final_tanh:
                    h = np.tanh(h)
            np.testing.assert_allclose(out[b], h, rtol=1e-13, atol=1e-15)

    def test_one_tape_node_per_call(self):
        ps = primitive_params(0)
        out = tg.rowwise_mlp(ps["z3"], T3, mlp_layers(ps, True))
        assert out._op == "rowwise_mlp"
        assert out._parents[0] is ps["z3"] and len(out._parents) == 1 + 2 * len(MLP_LAYERS)

    def test_width_mismatch_rejected(self):
        ps = primitive_params(0)
        layers = mlp_layers(ps, True)
        with pytest.raises(tg.ShapeMismatch, match="rowwise_mlp"):
            tg.rowwise_mlp(ps["z3"], T3, layers[1:])


class TestNoRecord:
    def _graph(self, ps):
        return tg.tensor_sum(tg.square(tg.rowwise_mlp(tg.tanh(ps["z3"]), T3, mlp_layers(ps, True))))

    def test_results_keep_no_parents_or_closure(self):
        ps = primitive_params(0)
        with tg.no_record():
            outs = [tg.tanh(ps["z3"]), tg.rowwise_mlp(ps["z3"], T3, mlp_layers(ps, True)), self._graph(ps)]
        for out in outs:
            assert out._parents == () and out._bwd is None, out
        recorded = self._graph(ps)
        assert recorded._parents and recorded._bwd is not None

    def test_values_match_a_recorded_evaluation(self):
        ps = primitive_params(1)
        with tg.no_record():
            plain = self._graph(ps).data
        assert plain.tobytes() == self._graph(ps).data.tobytes()

    def test_finiteness_checks_still_run(self):
        with tg.no_record(), np.errstate(over="ignore"), pytest.raises(tg.NonFiniteValue, match="'exp'"):
            tg.exp(Tensor([[1000.0]]))

    def test_flag_restored_on_exit_error_and_nesting(self):
        a = Tensor([[1.0]])

        def records():
            return tg.neg(a)._bwd is not None

        with tg.no_record():
            with tg.no_record():
                assert not records()
            assert not records()
        assert records()
        with pytest.raises(tg.NonFiniteValue), tg.no_record(), np.errstate(over="ignore"):
            tg.exp(Tensor([[1000.0]]))
        assert records()
        with tg.finite_checks(False), tg.no_record():
            assert not records()
        assert records()

    def test_backward_on_a_no_record_result_raises(self):
        ps = primitive_params(2)
        with tg.no_record():
            out = self._graph(ps)
        with pytest.raises(ValueError, match="no_record"):
            tg.backward(out)
        assert all(t.grad is None for t in ps.tensors())

    def test_graph_built_outside_the_block_matches_central_differences(self):
        prog = PRIMITIVE_PROGRAMS["rowwise_mlp_chained"]
        ps = primitive_params(3)
        ref = autodiff.gradient(prog, ps, [])
        ps.zero_grads()
        out = prog(ps)
        with tg.no_record():
            # a no-record evaluation in between leaves the recorded graph whole
            prog(ps)
            tg.backward(out)
        for name, t in ps.items():
            got = np.zeros_like(t.data) if t.grad is None else t.grad
            assert got.tobytes() == ref[name].data.tobytes(), name
        assert autodiff.finite_diff_check(prog, ps, [], h=1e-5) <= 1e-4


class TestParamSet:
    def test_duplicate_name_rejected(self):
        ps = ParamSet()
        ps.add("a", Tensor(1.0))
        with pytest.raises(ValueError):
            ps.add("a", Tensor(2.0))

    def test_iteration_order_is_insertion_order(self):
        ps = ParamSet()
        for name in ("z", "a", "m"):
            ps.add(name, Tensor(0.0))
        assert ps.names() == ["z", "a", "m"]
