import numpy as np
import pytest

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
        assert tg.evaluate(prog, params, []).item() == 11.0

    def test_tanh_at_origin(self):
        def prog(params):
            return tg.tanh(params["x"])

        assert tg.evaluate(prog, make_params(x=0.0), []).item() == 0.0

    def test_matmul_identity(self):
        def prog(params, v):
            return tg.matmul(params["I"], v)

        params = make_params(I=np.eye(3))
        v = Tensor([1.0, 2.0, 3.0])
        out = tg.evaluate(prog, params, [v])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_shape_mismatch_names_primitive(self):
        def prog(params):
            return tg.add(params["a"], params["b"])

        params = make_params(a=[1.0, 2.0], b=[1.0, 2.0, 3.0])
        with pytest.raises(tg.ShapeMismatch, match="add"):
            tg.evaluate(prog, params, [])

    def test_nonfinite_intermediate_names_primitive(self):
        def prog(params):
            return tg.log(params["x"])

        with pytest.raises(tg.NonFiniteValue, match="log"):
            tg.evaluate(prog, make_params(x=[-1.0]), [])

    def test_leaf_must_be_finite(self):
        with pytest.raises(tg.NonFiniteValue):
            Tensor([1.0, np.nan])

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(5)
        params = make_params(w=rng.standard_normal((4, 4)), b=rng.standard_normal(4))

        def prog(ps, x):
            return tg.tensor_sum(tg.tanh(tg.matmul(ps["w"], x) + ps["b"]))

        x = Tensor(rng.standard_normal(4))
        a = tg.evaluate(prog, params, [x]).item()
        b = tg.evaluate(prog, params, [x]).item()
        assert a == b
        ga = tg.gradient(prog, params, [x])
        gb = tg.gradient(prog, params, [x])
        for name in params.names():
            np.testing.assert_array_equal(ga[name].data, gb[name].data)


class TestGradient:
    def test_square(self):
        def prog(params):
            return tg.square(params["x"])

        g = tg.gradient(prog, make_params(x=3.0), [])
        assert g["x"].item() == 6.0

    def test_tanh_prime_at_zero(self):
        def prog(params):
            return tg.tanh(params["x"])

        g = tg.gradient(prog, make_params(x=0.0), [])
        assert g["x"].item() == 1.0

    def test_linear_map_weight_grad(self):
        def prog(params):
            return tg.tensor_sum(tg.matmul(params["W"], params["v"]))

        params = make_params(W=np.zeros((3, 2)), v=[1.0, 2.0])
        g = tg.gradient(prog, params, [])
        np.testing.assert_array_equal(g["W"].data, np.tile([1.0, 2.0], (3, 1)))

    def test_unused_param_gets_zeros(self):
        def prog(params):
            return tg.tensor_sum(params["a"])

        params = make_params(a=[1.0, 2.0], unused=np.ones((2, 3)))
        g = tg.gradient(prog, params, [])
        np.testing.assert_array_equal(g["unused"].data, np.zeros((2, 3)))

    def test_non_scalar_output_rejected(self):
        def prog(params):
            return params["a"]

        with pytest.raises(tg.NonScalarOutput):
            tg.gradient(prog, make_params(a=[1.0, 2.0]), [])

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
        gf = tg.gradient(f, params, [])["x"].data
        gg = tg.gradient(g, params, [])["x"].data
        gc = tg.gradient(combo, params, [])["x"].data
        np.testing.assert_allclose(gc, a * gf + b * gg, rtol=1e-12)


def central_diff(fn, x, h=1e-6):
    # independent scalar-derivative oracle used across the gradient tests
    return (fn(x + h) - fn(x - h)) / (2 * h)


class TestFiniteDiffCheck:
    def test_cubic(self):
        def prog(params):
            return tg.mul(tg.square(params["x"]), params["x"])

        err = tg.finite_diff_check(prog, make_params(x=2.0), [], h=1e-5)
        assert err <= 1e-6

    def test_constant_program(self):
        def prog(params):
            return tg.scale(tg.tensor_sum(params["x"]), 0.0)

        err = tg.finite_diff_check(prog, make_params(x=[1.0, 2.0]), [], h=1e-5)
        assert err == 0.0

    def test_small_mlp_loss(self):
        rng = np.random.default_rng(3)
        params = make_params(
            w0=rng.standard_normal((8, 4)) * 0.5,
            b0=rng.standard_normal(8) * 0.5,
            w1=rng.standard_normal((1, 8)) * 0.5,
            b1=rng.standard_normal(1) * 0.5,
        )
        x = Tensor(rng.standard_normal(4))

        def prog(ps, xin):
            h = tg.tanh(tg.matmul(ps["w0"], xin) + ps["b0"])
            return tg.tensor_sum(tg.matmul(ps["w1"], h) + ps["b1"])

        assert tg.finite_diff_check(prog, params, [x], h=1e-5) <= 1e-4

    def test_requires_positive_h(self):
        def prog(params):
            return tg.tensor_sum(params["x"])

        with pytest.raises(ValueError):
            tg.finite_diff_check(prog, make_params(x=[1.0]), [], h=0.0)


PRIMITIVE_PROGRAMS = {
    "add": lambda ps: tg.tensor_sum(tg.square(tg.add(ps["a"], ps["b"]))),
    "sub": lambda ps: tg.tensor_sum(tg.square(tg.sub(ps["a"], ps["b"]))),
    "mul": lambda ps: tg.tensor_sum(tg.mul(ps["a"], ps["b"])),
    "scalar_mul": lambda ps: tg.tensor_sum(tg.scalar_mul(ps["a"], ps["s"])),
    "matmul_mm": lambda ps: tg.tensor_sum(tg.matmul(ps["m1"], ps["m2"])),
    "matmul_vm": lambda ps: tg.tensor_sum(tg.matmul(ps["a"], ps["m3"])),
    "matmul_mv": lambda ps: tg.tensor_sum(tg.matmul(ps["m1"], ps["b4"])),
    "broadcast_add": lambda ps: tg.tensor_sum(tg.square(tg.broadcast_add(ps["m1"], ps["b4"]))),
    "tanh": lambda ps: tg.tensor_sum(tg.tanh(ps["a"])),
    "exp": lambda ps: tg.tensor_sum(tg.exp(ps["a"])),
    "log": lambda ps: tg.tensor_sum(tg.log(tg.exp(ps["a"]))),
    "square": lambda ps: tg.tensor_sum(tg.square(ps["a"])),
    "mean": lambda ps: tg.tensor_mean(tg.square(ps["m1"])),
    "sum_axis0": lambda ps: tg.tensor_sum(tg.square(tg.tensor_sum(ps["m1"], axis=0))),
    "sum_axis1": lambda ps: tg.tensor_sum(tg.square(tg.tensor_sum(ps["m1"], axis=1))),
    "concat": lambda ps: tg.tensor_sum(tg.square(tg.concat([ps["a"], ps["b"]]))),
    "row": lambda ps: tg.tensor_sum(tg.square(tg.row(ps["m1"], 1))),
    "cols": lambda ps: tg.tensor_sum(tg.square(tg.cols(ps["m1"], 1, 3))),
    "reshape": lambda ps: tg.tensor_sum(tg.square(tg.reshape(ps["m1"], (4, 3)))),
    "transpose": lambda ps: tg.tensor_sum(tg.square(tg.matmul(tg.transpose(ps["m1"]), ps["m1"]))),
    "scale": lambda ps: tg.tensor_sum(tg.scale(ps["a"], 1.7)),
    "shift": lambda ps: tg.tensor_sum(tg.square(tg.shift(ps["a"], 0.3))),
    "neg": lambda ps: tg.tensor_sum(tg.square(tg.neg(ps["a"]))),
    "rowwise_linear": lambda ps: tg.tensor_sum(
        tg.square(tg.rowwise_linear(ps["m1"], ps["wflat"], ps["brows"], 4, 2, True))
    ),
    "rowwise_linear_plain": lambda ps: tg.tensor_sum(
        tg.square(tg.rowwise_linear(ps["m1"], ps["wflat"], ps["brows"], 4, 2, False))
    ),
    "add_scaled_rows": lambda ps: tg.tensor_sum(
        tg.square(tg.add_scaled_rows(ps["m1"], ps["m1b"], np.array([[0.3], [0.0], [1.2]])))
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
        m3=rng.standard_normal((4, 5)),
        b4=rng.standard_normal(4),
        wflat=rng.standard_normal((3, 8)),
        brows=rng.standard_normal((3, 2)),
    )


@pytest.mark.parametrize("name", sorted(PRIMITIVE_PROGRAMS))
def test_primitive_gradients_match_central_differences(name):
    prog = PRIMITIVE_PROGRAMS[name]
    for seed in range(5):
        err = tg.finite_diff_check(prog, primitive_params(seed), [], h=1e-5)
        assert err <= 1e-4, f"{name} seed {seed}: {err}"


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

    def test_subset_shares_tensors(self):
        ps = ParamSet()
        t = Tensor([1.0])
        ps.add("enc.w0", t)
        ps.add("dec.w0", Tensor([2.0]))
        sub = ps.subset("enc.")
        assert sub["w0"] is t
