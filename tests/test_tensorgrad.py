import contextlib

import numpy as np
import pytest

import autodiff
import fnode.tensorgrad as tg
from fnode.tensorgrad import Tensor


def make_params(**arrays):
    return {name: Tensor(np.asarray(arr, dtype=np.float64)) for name, arr in arrays.items()}


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

    def test_shape_mismatch_names_primitive(self):
        def prog(params):
            return tg.add(params["a"], params["b"])

        params = make_params(a=[1.0, 2.0], b=[1.0, 2.0, 3.0])
        with pytest.raises(tg.ShapeMismatch, match="add"):
            autodiff.evaluate(prog, params, [])

    def test_add_does_not_broadcast(self):
        m, v = Tensor(np.ones((2, 3))), Tensor(np.ones(3))
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
        params = make_params(w=rng.standard_normal((4, 4)), b=rng.standard_normal(4))

        def prog(ps, x):
            return tg.tensor_sum(tg.dense(x, ps["w"], ps["b"], True))

        x = Tensor(rng.standard_normal((1, 4)))
        a = autodiff.evaluate(prog, params, [x]).item()
        b = autodiff.evaluate(prog, params, [x]).item()
        assert a == b
        ga = autodiff.gradient(prog, params, [x])
        gb = autodiff.gradient(prog, params, [x])
        for name in params:
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
            b0=rng.standard_normal(8) * 0.5,
            w1=rng.standard_normal((1, 8)) * 0.5,
            b1=rng.standard_normal(1) * 0.5,
        )
        x = Tensor(rng.standard_normal((1, 4)))

        def prog(ps, xin):
            h = tg.dense(xin, ps["w0"], ps["b0"], True)
            return tg.tensor_sum(tg.dense(h, ps["w1"], ps["b1"]))

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
    "dense": lambda ps: tg.tensor_sum(tg.square(tg.dense(ps["m1"], ps["m1b"], ps["b3"]))),
    "dense_tanh": lambda ps: tg.tensor_sum(tg.square(tg.dense(ps["m1"], ps["m1b"], ps["b3"], True))),
    # the scale is a parameter, so its gradient is checked too
    "dense_tanh_scale": lambda ps: tg.tensor_sum(tg.square(tg.dense(ps["m1"], ps["m1b"], ps["b3"], True, ps["s"]))),
    "tanh": lambda ps: tg.tensor_sum(tg.tanh(ps["a"])),
    "exp": lambda ps: tg.tensor_sum(tg.exp(ps["a"])),
    "square": lambda ps: tg.tensor_sum(tg.square(ps["a"])),
    # blocks of 3, 2 and 3 rows, with m1 twice so its two gradient slices add;
    # the middle block is m2.T + b4, a dense layer on the 2 x 2 identity
    "concat": lambda ps: tg.tensor_sum(
        tg.square(tg.concat([ps["m1"], tg.dense(Tensor(np.eye(2)), ps["m2"], ps["b4"]), ps["m1"]]))
    ),
    "cols": lambda ps: tg.tensor_sum(tg.square(tg.cols(ps["m1"], 1, 3))),
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
        b3=rng.standard_normal(3),
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


class TestDense:
    @pytest.mark.parametrize("tanh_out, scaled", [(False, False), (True, False), (True, True)])
    def test_forward_matches_a_numpy_layer_bit_for_bit(self, tanh_out, scaled):
        ps = primitive_params(5)
        x, w, b, s = (ps[k].data for k in ("m1", "m1b", "b3", "s"))
        want = x @ w.T + b
        if tanh_out:
            want = np.tanh(want)
        if scaled:
            want = want * s[0]
        args = (ps["m1"], ps["m1b"], ps["b3"], tanh_out, ps["s"] if scaled else None)
        with tg.no_record():
            plain = tg.dense(*args).data
        assert tg.dense(*args).data.tobytes() == want.tobytes()
        assert plain.tobytes() == want.tobytes()

    def test_mlp_forward_adds_one_node_per_layer(self):
        from fnode.nets import MLPSpec, init_mlp_params, mlp_forward

        spec = MLPSpec((4, 6, 5, 3), final_activation="tanh")
        params = init_mlp_params(spec, np.random.default_rng(0))
        params["lambda"] = Tensor(np.float64(0.5))
        out = mlp_forward(spec, params, Tensor(np.ones((2, 4))))
        seen, stack, ops = set(), [out], []
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops.append(node._op)
                stack.extend(node._parents)
        assert sorted(op for op in ops if op != "leaf") == ["dense"] * spec.n_layers

    @pytest.mark.parametrize("record", [True, False])
    def test_overflowing_pre_activation_names_the_primitive(self, record):
        # tanh would map the overflow to 1, so the check must see the pre-activation
        x, w, b = Tensor(np.full((2, 3), 10.0)), Tensor(np.full((4, 3), 1e308)), Tensor(np.zeros(4))
        with contextlib.nullcontext() if record else tg.no_record(), np.errstate(over="ignore"):
            with pytest.raises(tg.NonFiniteValue, match="'dense'"):
                tg.dense(x, w, b, True, Tensor(np.float64(0.1)))

    def test_shapes_are_checked(self):
        ps = primitive_params(0)
        with pytest.raises(tg.ShapeMismatch, match="dense"):
            tg.dense(ps["m1"], ps["m2"], ps["b3"])
        with pytest.raises(tg.ShapeMismatch, match="dense"):
            tg.dense(ps["m1"], ps["m1b"], ps["b3"], True, ps["a"])


class TestNoRecord:
    def _graph(self, ps):
        return tg.tensor_sum(tg.square(tg.rowwise_mlp(tg.tanh(ps["z3"]), T3, mlp_layers(ps, True))))

    def test_results_keep_no_parents_or_closure(self):
        ps = primitive_params(0)
        with tg.no_record():
            outs = [
                tg.tanh(ps["z3"]),
                tg.rowwise_mlp(ps["z3"], T3, mlp_layers(ps, True)),
                tg.dense(ps["m1"], ps["m1b"], ps["b3"], True, ps["s"]),
                self._graph(ps),
            ]
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
        assert all(t.grad is None for t in ps.values())

    def test_graph_built_outside_the_block_matches_central_differences(self):
        prog = PRIMITIVE_PROGRAMS["rowwise_mlp_chained"]
        ps = primitive_params(3)
        ref = autodiff.gradient(prog, ps, [])
        tg.zero_grads(ps.values())
        out = prog(ps)
        with tg.no_record():
            # a no-record evaluation in between leaves the recorded graph whole
            prog(ps)
            tg.backward(out)
        for name, t in ps.items():
            got = np.zeros_like(t.data) if t.grad is None else t.grad
            assert got.tobytes() == ref[name].data.tobytes(), name
        assert autodiff.finite_diff_check(prog, ps, [], h=1e-5) <= 1e-4


class TestZeroGrads:
    def test_clears_gradients_and_deferred_weight_contributions(self):
        ps = primitive_params(2)
        out = tg.rowwise_mlp(ps["z3"], T3, mlp_layers(ps, True))
        # a backward step that never reaches the weight nodes leaves their stash unflushed
        out._bwd(np.ones_like(out.data))
        assert all(ps[f"wl{i}"]._pending is not None for i in range(len(MLP_LAYERS)))
        assert ps["z3"].grad is not None and ps["bl0"].grad is not None
        tg.zero_grads(ps.values())
        assert all(t.grad is None and t._pending is None for t in ps.values())
        # the next pass sees nothing of the cleared one
        prog = PRIMITIVE_PROGRAMS["rowwise_mlp"]
        tg.backward(prog(ps))
        ref = primitive_params(2)
        tg.backward(prog(ref))
        for name, t in ps.items():
            assert (t.grad is None) == (ref[name].grad is None), name
            if t.grad is not None:
                assert t.grad.tobytes() == ref[name].grad.tobytes(), name


def grad_bytes(ps):
    return {name: None if t.grad is None else t.grad.tobytes() for name, t in ps.items()}


class TestConsumedGraph:
    """backward frees the graph it walks, and a second walk over any of it fails before a gradient moves."""

    def _chained(self, ps, interior):
        # the rowwise_mlp_chained program, keeping its interior nodes
        a = tg.tanh(ps["z3"])
        h1 = tg.rowwise_mlp(a, T3, mlp_layers(ps, False))
        h2 = tg.rowwise_mlp(h1, T3 + 0.2, mlp_layers(ps, True))
        sq = tg.square(h2)
        out = tg.tensor_sum(sq)
        interior += [a, h1, h2, sq, out]
        return out

    def test_interior_nodes_are_freed_and_leaves_keep_gradients(self):
        ps = primitive_params(0)
        interior = []
        tg.backward(self._chained(ps, interior))
        for t in interior:
            assert t.grad is None and t._parents == (), t
            with pytest.raises(ValueError, match="consumed by backward"):
                t._bwd(np.ones_like(t.data))
        assert all(ps[name].grad is not None and ps[name]._pending is None for name in ("z3", "wl0", "bl2"))
        assert autodiff.finite_diff_check(lambda p: self._chained(p, []), ps, [], h=1e-5) <= 1e-4

    def test_second_backward_on_one_output_raises(self):
        ps = primitive_params(1)
        out = PRIMITIVE_PROGRAMS["rowwise_mlp_chained"](ps)
        tg.backward(out)
        before = grad_bytes(ps)
        with pytest.raises(ValueError, match="consumed by backward"):
            tg.backward(out)
        assert grad_bytes(ps) == before

    def test_second_loss_through_a_consumed_subgraph_raises(self):
        ps = primitive_params(2)
        y = Tensor(np.random.default_rng(2).standard_normal((3, 2)))
        shared = tg.rowwise_mlp(tg.tanh(ps["z3"]), T3, mlp_layers(ps, True))
        first = tg.tensor_sum(tg.square(shared))
        second = tg.tensor_sum(tg.mul(shared, y))
        tg.backward(first)
        before = grad_bytes(ps)
        with pytest.raises(ValueError, match="consumed by backward"):
            tg.backward(second)
        # nothing of the second loss moved: not its own leaf, not the shared leaves
        assert y.grad is None
        assert grad_bytes(ps) == before
