import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cpacontract.errors import DomainError, ExpressionSyntaxError
from cpacontract.expressions import (
    Add,
    Const,
    Div,
    ExpressionParser,
    Fun,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    compile_exprs,
    interval_bound_abs,
)
from cpacontract.systems import SystemDefinition, parse_system


def parse1(text):
    return ExpressionParser(1).parse(text)


def evaluate(trees, vals):
    out = np.empty(len(trees))
    compile_exprs(trees)(vals, out)
    return out


class TestParser:
    def test_number_forms(self):
        for text, val in (("1", 1.0), ("1.5", 1.5), (".5", 0.5),
                          ("2e-3", 2e-3), ("1E+2", 100.0)):
            node = parse1(text)
            assert isinstance(node, Const) and node.value == val

    def test_precedence(self):
        assert parse1("1 + 2 * 3").value == 7.0
        assert parse1("(1 + 2) * 3").value == 9.0
        assert parse1("2 ^ 3 ^ 2").value == 512.0  # right associative
        assert parse1("-2^2").value == -4.0

    def test_double_star(self):
        assert parse1("2 ** 3").value == 8.0

    def test_error_positions(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse1("x1 + ")
        assert exc.value.position == 5
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse1("x1 + (1")
        assert exc.value.position == 7

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse1("x1 ^ 0.5")

    def test_constants(self):
        assert parse1("pi").value == np.pi
        assert parse1("cos(pi)").value == pytest.approx(-1.0)


class TestDerivatives:
    def test_chain_and_product(self):
        f = parse1("x1^2 * sin(t)")
        dt = f.diff(0)
        dx = f.diff(1)
        vals = np.array([0.7, 1.3])
        dt_val, dx_val = evaluate([dt, dx], vals)
        assert dt_val == pytest.approx(1.3**2 * np.cos(0.7))
        assert dx_val == pytest.approx(2 * 1.3 * np.sin(0.7))

    def test_quotient(self):
        f = parse1("sin(t) / x1")
        d = f.diff(1)
        vals = np.array([0.5, 2.0])
        assert evaluate([d], vals)[0] == pytest.approx(-np.sin(0.5) / 4.0)

    def test_constant_folding_keeps_trees_small(self):
        f = parse1("0*x1 + 1*sin(t) + x1^1 + t^0")
        # folded to sin(t) + x1 + 1: three-node spine
        text = str(f)
        assert "0" not in text.replace("1.0", "")


class TestIntervals:
    def test_folded_zero_stays_zero(self):
        # second derivatives of affine terms fold to the constant zero,
        # which the relative inflation leaves untouched
        f = parse1("3*x1 + t").diff(1).diff(1)
        assert isinstance(f, Const) and f.value == 0.0
        assert interval_bound_abs(f, [0.0, -5.0], [1.0, 5.0]) == 0.0

    def test_dependency_widening_is_sound(self):
        # interval arithmetic does not cancel x - x; the enclosure is wide
        # but must still be sound
        f = parse1("x1 - x1")
        lo, hi = f.iv(np.array([0.0, -5.0]), np.array([1.0, 5.0]))
        assert lo <= 0.0 <= hi
        assert hi == pytest.approx(10.0)

    def test_division_by_straddling_interval(self):
        f = parse1("1 / x1")
        with pytest.raises(DomainError):
            f.iv(np.array([0.0, -1.0]), np.array([1.0, 1.0]))

    def test_negative_power(self):
        f = parse1("x1 ^ -2")
        lo, hi = f.iv(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert lo == pytest.approx(0.25)
        assert hi == pytest.approx(1.0)

    def test_even_power_through_zero(self):
        # the relative inflation widens [0, 4] to [-4e-12, 4 + 4e-12]
        f = parse1("x1 ^ 2")
        lo, hi = f.iv(np.array([0.0, -2.0]), np.array([1.0, 1.0]))
        assert -1e-11 <= lo <= 0.0
        assert hi == pytest.approx(4.0)

    @settings(max_examples=120, deadline=None)
    @given(a=st.floats(-12.0, 12.0), w=st.floats(0.0, 9.0),
           fun=st.sampled_from(["sin", "cos"]))
    def test_trig_envelope_sound_and_tight(self, a, w, fun):
        f = ExpressionParser(1).parse(f"{fun}(t)")
        lo, hi = f.iv(np.array([a, 0.0]), np.array([a + w, 0.0]))
        ts = np.linspace(a, a + w, 400)
        vals = np.sin(ts) if fun == "sin" else np.cos(ts)
        assert lo <= vals.min() + 1e-12
        assert hi >= vals.max() - 1e-12
        # stays within the crude envelope and is reasonably tight
        assert -1.0 <= lo <= hi <= 1.0
        assert hi - vals.max() <= 0.35
        assert vals.min() - lo <= 0.35

    @settings(max_examples=80, deadline=None)
    @given(lo1=st.floats(-3.0, 3.0), w1=st.floats(0.0, 2.0),
           lo2=st.floats(-3.0, 3.0), w2=st.floats(0.0, 2.0))
    def test_product_enclosure(self, lo1, w1, lo2, w2):
        f = ExpressionParser(2).parse("x1 * x2")
        lo = np.array([0.0, lo1, lo2])
        hi = np.array([1.0, lo1 + w1, lo2 + w2])
        blo, bhi = f.iv(lo, hi)
        rng = np.random.default_rng(0)
        xs = rng.uniform(lo[1:], hi[1:], size=(200, 2))
        prods = xs[:, 0] * xs[:, 1]
        assert blo <= prods.min() + 1e-12
        assert bhi >= prods.max() - 1e-12

    def test_exp_monotone(self):
        f = parse1("exp(x1)")
        lo, hi = f.iv(np.array([0.0, -1.0]), np.array([1.0, 2.0]))
        assert lo == pytest.approx(np.exp(-1.0))
        assert hi == pytest.approx(np.exp(2.0))


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
           Div: operator.truediv}
_UFUNC = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def _power_by_squaring(x, p):
    """x ** p from products, the squares taken from the top bit of |p|
    down, then one reciprocal for p < 0."""
    out = x ** 0
    for bit in bin(abs(p))[2:]:
        out = out * out
        if bit == "1":
            out = out * x
    return 1.0 / out if p < 0 else out


def reference_eval(e, v):
    """Recursive tree walk: the oracle for the compiled code. Constants are
    float64, as in the compiled code, so that 1/0 gives inf."""
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Var):
        return v[e.index]
    if isinstance(e, Neg):
        return -reference_eval(e.a, v)
    if isinstance(e, Pow):
        return _power_by_squaring(reference_eval(e.a, v), e.p)
    if isinstance(e, Fun):
        return _UFUNC[e.name](reference_eval(e.a, v))
    return _BINARY[type(e)](reference_eval(e.a, v), reference_eval(e.b, v))


def _unary(child):
    return st.one_of(
        child.map(Neg),
        st.builds(Pow, child, st.integers(-3, 4)),
        st.builds(Fun, st.sampled_from(sorted(_UFUNC)), child))


_TREES = st.recursive(
    st.one_of(st.integers(0, 2).map(Var),
              st.floats(-3.0, 3.0, width=64).map(Const)),
    lambda child: st.one_of(
        _unary(child),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from(sorted(
            _BINARY, key=lambda c: c.__name__)), child, child)),
    max_leaves=10)


class TestCompiledEvaluation:
    @staticmethod
    def _check(method, trees, values, shape):
        """`method` on points values.T against the reference walk: the same
        bits, or DomainError where the reference is not finite."""
        with np.errstate(all="ignore"):
            ref = np.stack([np.broadcast_to(reference_eval(e, values),
                                            values.shape[1:])
                            for e in trees], axis=-1)
        ref = ref.reshape(values.shape[1:] + shape)
        if np.isfinite(ref).all():
            out = method(values.T)
            assert out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()
        else:
            with pytest.raises(DomainError):
                method(values.T)

    @settings(max_examples=200, deadline=None)
    @given(f1=_TREES, f2=_TREES,
           points=hnp.arrays(np.float64, (5, 3),
                             elements=st.floats(-2.0, 2.0, width=64)))
    def test_matches_reference_walk(self, f1, f2, points):
        sys = SystemDefinition(2, 1.0, [f1, f2])
        jac = [f.diff(j) for f in (f1, f2) for j in (1, 2)]
        self._check(sys.f, [f1, f2], points[0], (2,))
        self._check(sys.jacobian, jac, points[0], (2, 2))
        self._check(sys.f_many, [f1, f2], points.T, (2,))
        self._check(sys.jacobian_many, jac, points.T, (2, 2))

    def test_long_chain(self):
        # nesting in the generated source is capped, so a long sum compiles
        sys = parse_system("dim=1; period=1; f1 = " + " + ".join(["x1"] * 300))
        assert sys.f([0.0, 0.5])[0] == 150.0
        assert sys.jacobian([0.0, 0.5])[0, 0] == 300.0

    @pytest.mark.parametrize("text, jacobian_finite", [
        ("1e400*0 + x1", True),     # folds to the constant nan
        ("exp(800)*x1", False),     # folds to the constant inf
        ("x1 + 1/0", True),
    ])
    def test_non_finite_constants(self, text, jacobian_finite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # folding leaks no warning
            sys = parse_system(f"dim=1; period=1; f1 = {text}")
        point = np.array([0.3, 0.5])
        with pytest.raises(DomainError):
            sys.f(point)
        with pytest.raises(DomainError):
            sys.f_many(point[None])
        with pytest.raises(DomainError):
            sys.f_tilde_many(point[None])
        if jacobian_finite:
            assert sys.jacobian(point)[0, 0] == 1.0
        else:
            with pytest.raises(DomainError):
                sys.jacobian_many(point[None])


class TestUfuncBatchBits:
    """numpy's sin, cos and exp give the bits of one point, a Python float
    or a float64, on a batch. The RK4 loop's time tables rest on this: they
    evaluate each subtree that reads t alone on the whole step grid."""

    @pytest.mark.parametrize("t0, h, steps", [
        (0.0, 6.283185307179586 / 2000, 2000),
        (0.0, 6.283185307179586 / 8192, 8192),
        (-3.7, 1e-3, 4096),
        (12345.678, 0.37, 3000),
    ])
    @pytest.mark.parametrize("name", ["sin", "cos", "exp"])
    def test_stage_time_grids(self, name, t0, h, steps):
        grid = t0 + np.arange(steps) * h
        t = [t0 + i * h for i in range(steps)]
        # the loop's t, t + h/2 and t + h, bit for bit
        for shift in (0.0, 0.5 * h, h):
            times = grid + shift
            assert times.tobytes() == np.array([v + shift
                                                for v in t]).tobytes()
            if name == "exp":   # into exp's finite range
                times *= 700.0 / max(700.0, np.abs(times).max())
            self._check(getattr(np, name), times)

    @pytest.mark.parametrize("half_width", [10.0, 700.0, 1e6])
    @pytest.mark.parametrize("name", ["sin", "cos", "exp"])
    def test_random_arguments(self, name, half_width):
        args = np.random.default_rng(17).uniform(-half_width, half_width,
                                                 3000)
        if name == "exp":
            args = np.clip(args, -745.0, 709.0)
        self._check(getattr(np, name), args)

    @staticmethod
    def _check(fn, args):
        with np.errstate(all="ignore"):
            batch = fn(args)
            floats = [fn(v) for v in args.tolist()]
            scalars = [fn(v) for v in args]
        assert batch.tobytes() == np.array(floats).tobytes()
        assert batch.tobytes() == np.array(scalars).tobytes()
