import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpacontract.errors import (
    DimensionMismatchError,
    DomainError,
    ExpressionSyntaxError,
    UnknownSymbolError,
    UnsupportedExpressionError,
)
from cpacontract.systems import (DerivativeBounds, SystemDefinition,
                                 parse_system)

TWO_PI = 2.0 * np.pi


def central_jacobian(sys, point, step=1e-6):
    """Finite-difference oracle for the spatial Jacobian."""
    point = np.asarray(point, dtype=float)
    out = np.zeros((sys.n, sys.n))
    for j in range(sys.n):
        hp = point.copy()
        hm = point.copy()
        hp[j + 1] += step
        hm[j + 1] -= step
        out[:, j] = (sys.f(hp) - sys.f(hm)) / (2.0 * step)
    return out


def sampled_second_partial_max(sys, lo, hi, npts, step=1e-4, seed=0):
    """Dense-sampling oracle for the order-2 bound via finite differences."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pts = rng.uniform(lo + 2 * step, hi - 2 * step, size=(npts, sys.n + 1))
    worst = 0.0
    for i in range(sys.n + 1):
        for j in range(sys.n + 1):
            pp = pts.copy(); pp[:, i] += step; pp[:, j] += step
            pm = pts.copy(); pm[:, i] += step; pm[:, j] -= step
            mp = pts.copy(); mp[:, i] -= step; mp[:, j] += step
            mm = pts.copy(); mm[:, i] -= step; mm[:, j] -= step
            d2 = (sys.f_many(pp) - sys.f_many(pm) - sys.f_many(mp)
                  + sys.f_many(mm)) / (4.0 * step * step)
            worst = max(worst, float(np.max(np.abs(d2))))
    return worst


class TestParse:
    def test_linear_1d(self):
        sys = parse_system("dim=1; period=6.283185307; f1 = -x1 + sin(t)")
        assert sys.n == 1
        assert sys.T == pytest.approx(TWO_PI, abs=1e-8)

    def test_linear_2d(self):
        sys = parse_system(
            "dim=2; period=6.283185307; f1 = x2; f2 = -x1 - 2*x2 + sin(t)")
        assert sys.n == 2
        assert sys.smoothness == "C2"

    def test_syntax_error_at_end(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_system("dim=1; period=1; f1 = -x1 +")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse_system("dim=1; period=1; f1 = -x1 + tanh(t)")

    def test_variable_out_of_range(self):
        with pytest.raises(UnknownSymbolError):
            parse_system("dim=1; period=1; f1 = x2")

    def test_missing_rhs(self):
        with pytest.raises(DimensionMismatchError):
            parse_system("dim=2; period=1; f1 = x2")

    def test_smoothness_and_powers(self):
        sys = parse_system(
            "dim=1; period=1; smoothness=c3; f1 = x1^3 - 2*x1")
        assert sys.smoothness == "C3"
        assert sys.f([0.0, 2.0])[0] == pytest.approx(4.0)

    def test_non_periodic_is_named(self, recwarn):
        # parsing neither warns nor refuses; the defect is named for the
        # commands, which refuse it
        sys = parse_system("dim=1; period=1; f1 = t * x1")
        assert not recwarn.list
        assert str(sys.periodicity_defect()) == "t"


class TestPeriodicity:
    """t only inside sin and cos arguments of rate a, a·T/(2π) an
    integer."""

    @pytest.mark.parametrize("period, rhs", [
        ("6.283185307179586", "-x1"),
        ("6.283185307179586", "-x1 + sin(t)"),
        ("1", "-x1 + sin(6.283185307179586*t)"),
        ("3.141592653589793", "cos(2*t) * x1"),
        ("6.283185307179586", "sin(3*t - 1 + x1) - exp(-x1^2)*cos(t)"),
        ("6.283185307179586", "sin(t)*cos(t) + sin(t - t)"),
        ("2", "x1 / (2 + sin(3.141592653589793*t))"),
    ])
    def test_periodic_forms(self, period, rhs):
        sys = parse_system(f"dim=1; period={period}; f1 = {rhs}")
        assert sys.periodicity_defect() is None

    @pytest.mark.parametrize("period, rhs, defect", [
        ("6.283185307179586", "-x1 + 0.1*t", "t"),
        ("3", "-x1 + sin(t)", "sin(t)"),
        ("6.283185307179586", "-x1 + sin(t^2)", "sin((t ^ 2))"),
        ("6.283185307179586", "-x1 + t*sin(t)", "t"),
        ("6.283185307179586", "-x1 + exp(cos(t) - t)", "t"),
        ("6.283185307179586", "sin(x1*t)", "sin((x1 * t))"),
        # a rate 1e-8 away from an integer number of turns
        ("6.283185307179586", "sin(1.00000001*t)", "sin((1.00000001 * t))"),
    ])
    def test_defects(self, period, rhs, defect):
        sys = parse_system(f"dim=1; period={period}; f1 = {rhs}")
        assert str(sys.periodicity_defect()) == defect

    def test_tolerance(self):
        sys = parse_system("dim=1; period=6.283185307179586; "
                           "f1 = sin(1.0000000001*t)")
        assert sys.periodicity_defect() is None
        assert sys.periodicity_defect(tol=1e-11) is not None


class TestEval:
    def test_sin_zero(self, linear_1d):
        assert linear_1d.f([0.0, 2.0])[0] == pytest.approx(-2.0)

    def test_rotation(self):
        sys = parse_system("dim=2; period=1; f1 = x2; f2 = -x1")
        assert np.allclose(sys.f([0.0, 1.0, 0.0]), [0.0, -1.0])

    def test_sin_quarter(self, linear_1d):
        assert linear_1d.f([np.pi / 2, 0.0])[0] == pytest.approx(1.0)

    def test_nonfinite_raises(self):
        sys = parse_system("dim=1; period=1; f1 = 1 / x1")
        with pytest.raises(DomainError):
            sys.f([0.0, 0.0])

    def test_batched_matches_single(self, osc_2d):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        batch = osc_2d.f_many(pts)
        for i in range(40):
            assert np.allclose(batch[i], osc_2d.f(pts[i]))


class TestOnePointIsABatchOfOne:
    @pytest.mark.parametrize("p", range(-3, 8))
    def test_powers_bit_identical(self, p, monkeypatch):
        # one point, a batch of one, a batch of 10,000 and the first stage
        # evaluation of the oracle's compiled RK4 step give the same bits
        sys = parse_system(f"dim=1; period=1; f1 = x1^{p}")
        rng = np.random.default_rng(100 + p)
        pts = np.column_stack([np.zeros(10000),
                               rng.uniform(0.1, 3.0, 10000)
                               * rng.choice([-1.0, 1.0], 10000)])
        f, J = sys.f_many(pts), sys.jacobian_many(pts)
        # told that the new state is non-finite, the stepper's finiteness
        # check reads back its stage evaluations, f and D_x f at the point
        # itself first
        rk4, seen = sys.stepper(variational=True), []
        monkeypatch.setitem(rk4.__globals__, "isfinite",
                            lambda v: seen.append(v) or len(seen) > 1)
        for i, pt in enumerate(pts):
            one_f, one_J = sys.f(pt), sys.jacobian(pt)
            assert one_f.tobytes() == sys.f_many(pt[None])[0].tobytes()
            assert one_J.tobytes() == sys.jacobian_many(pt[None])[0].tobytes()
            assert one_f.tobytes() == f[i].tobytes()
            assert one_J.tobytes() == J[i].tobytes()
            seen.clear()
            with np.errstate(all="ignore"):
                assert rk4(pt[0], 1.0, 1, (pt[1], 1.0), None)[0] == 0
            assert (np.array(seen[1:3]).tobytes()
                    == np.append(f[i], J[i]).tobytes())

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,)])
    def test_batch_shape_checked(self, osc_2d, shape):
        for method in (osc_2d.f_many, osc_2d.jacobian_many):
            with pytest.raises(DimensionMismatchError):
                method(np.zeros(shape))

    def test_point_shape_checked(self, osc_2d):
        for method in (osc_2d.f, osc_2d.jacobian):
            for point in (np.zeros(2), np.zeros(4), np.zeros((1, 3))):
                with pytest.raises(DimensionMismatchError):
                    method(point)


class TestJacobian:
    def test_linear_1d_constant(self, linear_1d):
        for point in ([0.0, 0.3], [1.0, -2.0]):
            assert linear_1d.jacobian(point)[0, 0] == pytest.approx(-1.0)

    def test_linear_2d_constant(self, osc_2d):
        J = osc_2d.jacobian([0.7, 0.1, -0.4])
        assert np.allclose(J, [[0.0, 1.0], [-1.0, -2.0]])

    def test_vdp_at_origin(self, vdp):
        J = vdp.jacobian([0.0, 0.0, 0.0])
        ref = central_jacobian(vdp, [0.0, 0.0, 0.0])
        assert np.allclose(J, [[0.0, 1.0], [-1.0, 1.0]], atol=1e-12)
        assert np.allclose(J, ref, atol=1e-6)

    def test_against_central_differences(self, linear_1d, osc_2d, vdp):
        rng = np.random.default_rng(11)
        for sys in (linear_1d, osc_2d, vdp):
            for _ in range(100):
                point = rng.uniform(-2.0, 2.0, size=sys.n + 1)
                J = sys.jacobian(point)
                ref = central_jacobian(sys, point)
                assert np.max(np.abs(J - ref)) <= 1e-6 * (1 + np.max(np.abs(J)))


def derivative_bound(sys, box, order):
    """The bound over one box given as (n+1, 2) [lo, hi] rows."""
    box = np.asarray(box, dtype=float)
    return float(sys.derivative_bound_boxes(box[:, :1], box[:, 1:], order)[0])


class TestDerivativeBound:
    def test_sin_bound_dominates_sampling(self, linear_1d):
        lo, hi = [0.0, -2.0], [TWO_PI, 1.0]
        bound = derivative_bound(linear_1d, np.column_stack([lo, hi]), 2)
        sampled = sampled_second_partial_max(linear_1d, lo, hi, 10000)
        assert bound >= sampled
        assert 1.0 <= bound <= 1.0 + 1e-9

    def test_affine_is_zero(self):
        box = np.array([[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
        sys = parse_system("dim=2; period=1; f1 = x2; f2 = -x1 - 2*x2")
        assert derivative_bound(sys, box, 2) == 0.0

    def test_square_is_two(self):
        sys = parse_system("dim=1; period=1; f1 = x1^2")
        bound = derivative_bound(sys, [[0.0, 1.0], [0.0, 2.0]], 2)
        assert bound == pytest.approx(2.0, rel=1e-9)

    def test_order3_needs_smoothness(self, linear_1d):
        with pytest.raises(UnsupportedExpressionError):
            derivative_bound(linear_1d, [[0.0, 1.0], [0.0, 1.0]], 3)

    def test_user_bounds_short_circuit(self):
        sys = parse_system("dim=1; period=1; f1 = -x1; bound2=7; bound3=9")
        assert derivative_bound(sys, [[0.0, 1.0], [0.0, 1.0]], 2) == 7.0
        assert derivative_bound(sys, [[0.0, 1.0], [0.0, 1.0]], 3) == 9.0

    def test_division_through_zero(self):
        sys = parse_system("dim=1; period=1; f1 = 1/(x1 - 1)")
        with pytest.raises(DomainError):
            derivative_bound(sys, [[0.0, 1.0], [0.0, 2.0]], 2)

    @settings(max_examples=40, deadline=None)
    @given(t0=st.floats(0.0, 5.0), w=st.floats(0.01, 2.0),
           x0=st.floats(-3.0, 3.0), wx=st.floats(0.01, 2.0))
    def test_soundness_on_samples(self, t0, w, x0, wx):
        sys = parse_system("dim=1; period=6.283185307179586; "
                           "f1 = -x1 + sin(t)*cos(t) + x1^3")
        lo = [t0, x0]
        hi = [t0 + w, x0 + wx]
        bound = derivative_bound(sys, np.column_stack([lo, hi]), 2)
        sampled = sampled_second_partial_max(sys, lo, hi, 200, step=1e-4)
        assert bound >= sampled - 1e-5

    @settings(max_examples=30, deadline=None)
    @given(shrink=st.floats(0.05, 0.45))
    def test_monotone_in_box(self, shrink):
        sys = parse_system("dim=1; period=6.283185307179586; f1 = sin(t)*x1")
        big = np.array([[0.0, 6.0], [-2.0, 2.0]])
        small = big.copy()
        small[:, 0] += shrink * (big[:, 1] - big[:, 0])
        small[:, 1] -= shrink * (big[:, 1] - big[:, 0])
        assert (derivative_bound(sys, small, 2)
                <= derivative_bound(sys, big, 2) + 1e-12)


class TestTypes:
    def test_derivative_bounds_validation(self):
        with pytest.raises(ValueError):
            DerivativeBounds(B=-1.0)
        assert DerivativeBounds(B=1.0, B3=2.0).B3 == 2.0

    def test_system_definition_validation(self):
        with pytest.raises(ValueError):
            SystemDefinition(1, -1.0, [None])
