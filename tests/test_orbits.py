import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cpacontract import expressions, orbits
from cpacontract.cpa import CPAMetric
from cpacontract.errors import (
    DomainError,
    LeftDomainError,
    NoConvergenceError,
    NonFiniteStateError,
)
from cpacontract.orbits import (
    FloquetResult,
    contraction_probe,
    find_periodic_orbit,
    integrate,
    monodromy,
)
from cpacontract.systems import SystemDefinition, parse_system
from cpacontract.triangulation import build_complex

from reference import constant_metric, pack_symmetric, unpack_symmetric
from test_expressions import _TREES

TWO_PI = 2.0 * np.pi


class TestIntegrate:
    def test_zero_field(self):
        sys = parse_system("dim=1; period=1; f1 = 0*x1")
        traj = integrate(sys, 0.0, [3.0], 1.0, 100)
        assert traj.x[-1, 0] == 3.0

    def test_exponential_decay(self):
        sys = parse_system("dim=1; period=1; f1 = -x1")
        traj = integrate(sys, 0.0, [1.0], 1.0, 1000)
        assert traj.x[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_periodic_return(self, linear_1d):
        # closed form x(t) = (sin t - cos t)/2 has x(0) = -1/2
        traj = integrate(linear_1d, 0.0, [-0.5], TWO_PI, 10000)
        assert traj.x[-1, 0] == pytest.approx(-0.5, abs=1e-8)

    def test_order_four(self):
        # halving the step shrinks the error by roughly 2^4
        sys = parse_system("dim=1; period=1; f1 = -x1")
        exact = np.exp(-1.0)
        errs = []
        for steps in (25, 50, 100, 200):
            traj = integrate(sys, 0.0, [1.0], 1.0, steps)
            errs.append(abs(traj.x[-1, 0] - exact))
        for a, b in zip(errs, errs[1:]):
            assert 12.0 <= a / b <= 20.0

    def test_statistics(self, linear_1d):
        traj = integrate(linear_1d, 0.0, [0.0], 1.0, 64)
        assert traj.steps == 64
        assert traj.max_local_error < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_negative_control(self):
        # the stage sums and the step-doubling estimate overflow; the
        # finiteness check classifies the step without leaking a warning
        sys = parse_system("dim=1; period=1; f1 = 1e308")
        with pytest.raises(NonFiniteStateError, match="at t=1.0$"):
            integrate(sys, 0.0, [1.7e308], 1.0, 1)

    @pytest.mark.parametrize("text, x0", [
        # only a half step of the error estimate meets the pole
        ("f1 = 1/(t - 0.25)", 0.0),
        # and the full step's weighted sum overflows as well
        ("f1 = 1e308*(t - 0.25)/(t - 0.25)", 1.7e308),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_estimate_domain_error_negative_control(self, text, x0):
        sys = parse_system("dim=1; period=1; " + text)
        with pytest.raises(DomainError):
            integrate(sys, 0.0, [x0], 1.0, 1)


class TestPeriodicOrbit:
    def test_linear_1d(self, linear_1d):
        res = find_periodic_orbit(linear_1d, [0.0], steps=4096)
        assert res.x_star[0] == pytest.approx(-0.5, abs=1e-8)
        assert res.residual <= 1e-10

    def test_fixed_point(self):
        sys = parse_system("dim=1; period=1; f1 = -x1")
        res = find_periodic_orbit(sys, [0.7])
        assert res.x_star[0] == pytest.approx(0.0, abs=1e-10)

    def test_divergence_guard(self):
        # finite basin: beyond |x| = 1 solutions blow up in finite time
        sys = parse_system("dim=1; period=1; f1 = -x1 + x1^3")
        with pytest.raises(NoConvergenceError):
            find_periodic_orbit(sys, [5.0], steps=512)

    def test_oscillator(self, osc_2d):
        res = find_periodic_orbit(osc_2d, [0.0, 0.0], steps=4096)
        assert np.allclose(res.x_star, [-0.5, 0.0], atol=1e-8)


class TestMonodromy:
    def test_linear_1d(self, linear_1d):
        res = monodromy(linear_1d, find_periodic_orbit(linear_1d, [0.0]))
        assert res.monodromy[0, 0] == pytest.approx(np.exp(-TWO_PI), rel=1e-6)
        assert res.exponents[0] == pytest.approx(-1.0, abs=1e-6)

    def test_oscillator_double_exponent(self, osc_2d):
        res = monodromy(osc_2d, find_periodic_orbit(osc_2d, [0.0, 0.0]))
        assert np.allclose(res.exponents, [-1.0, -1.0], atol=1e-5)

    def test_zero_field_identity(self):
        sys = parse_system("dim=2; period=1; f1 = 0*x1; f2 = 0*x2")
        res = monodromy(sys, find_periodic_orbit(sys, [0.3, -0.2]))
        assert np.allclose(res.monodromy, np.eye(2), atol=1e-12)
        assert np.allclose(res.exponents, 0.0, atol=1e-12)

    def test_against_matrix_exponential(self, osc_2d):
        # constant-Jacobian system: monodromy equals expm(T A)
        res = monodromy(osc_2d, find_periodic_orbit(osc_2d, [0.0, 0.0]),
                        steps=8192)
        A = osc_2d.jacobian([0.0, 0.0, 0.0])
        ref = scipy.linalg.expm(TWO_PI * A)
        assert np.max(np.abs(res.monodromy - ref)) <= 1e-6


class TestContractionProbe:
    def test_verified_metric_decreasing(self, solved_linear):
        cpa, sys = solved_linear["cpa"], solved_linear["sys"]
        d = contraction_probe(cpa, sys, [-0.5], [1e-3], TWO_PI, 2000)
        assert np.all(np.diff(d) <= 1e-9 * d[0])

    def test_zero_offset(self, solved_linear):
        cpa, sys = solved_linear["cpa"], solved_linear["sys"]
        d = contraction_probe(cpa, sys, [-0.3], [0.0], 1.0, 100)
        assert np.all(d == 0.0)

    def test_expanding_negative_control(self):
        sys = parse_system("dim=1; period=1; f1 = x1")
        cx = build_complex([[[-1.0, 1.0]]], 1.0, 1)
        cpa = constant_metric(cx, np.eye(1))
        d = contraction_probe(cpa, sys, [0.1], [1e-3], 1.0, 100)
        assert d[-1] > d[0]

    @pytest.mark.parametrize("text, x0, region, steps, t_exit", [
        ("dim=1; period=1; f1 = x1", [0.5], [[-1.0, 1.0]], 100,
         0.7000000000000001),
        # leaves the domain at t = 0.12, blows up in finite time later
        ("dim=1; period=1; f1 = x1^3", [0.9], [[-1.0, 1.0]], 100, 0.12),
        ("dim=2; period=1; f1 = x1; f2 = -x2", [0.5, 0.5],
         [[-1.0, 1.0], [-1.0, 1.0]], 64, 0.703125),
    ])
    def test_left_domain_negative_control(self, text, x0, region, steps,
                                          t_exit):
        sys = parse_system(text)
        cpa = constant_metric(build_complex([region], 1.0, 1),
                                 np.eye(sys.n))
        with pytest.raises(LeftDomainError,
                           match=re.escape(f"at t={t_exit!r}") + "$"):
            contraction_probe(cpa, sys, x0, [1e-3] * sys.n, 1.0, steps)

    @pytest.mark.parametrize("text, steps, error", [
        # a stage evaluation of f overflows
        ("dim=1; period=1; f1 = exp(1000*x1)", 100, DomainError),
        # every stage is finite, their weighted sum is not
        ("dim=1; period=1; f1 = 1e308 + 0*x1", 10, NonFiniteStateError),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_one_step_negative_control(self, text, steps, error):
        sys = parse_system(text)
        cpa = constant_metric(build_complex([[[-1.0, 1.0]]], 1.0, 1),
                                 np.eye(1))
        with pytest.raises(error) as exc:
            contraction_probe(cpa, sys, [0.0], [1e-3], 1.0, steps)
        assert type(exc.value) is error


class TestStepperCache:
    def test_built_on_first_oracle_use(self, monkeypatch):
        builds = []
        build = expressions.compile_rk4
        monkeypatch.setattr(expressions, "compile_rk4",
                            lambda *args: builds.append(args) or build(*args))
        sys = parse_system("dim=1; period=6.283185307179586; "
                           "f1 = -x1 + sin(t)")
        sys.f([0.0, 0.5]), sys.jacobian([0.0, 0.5])
        assert builds == []
        first = integrate(sys, 0.0, [0.1], 1.0, 10)
        second = integrate(sys, 0.0, [0.1], 1.0, 10)
        assert len(builds) == 1
        assert np.array_equal(first.x, second.x)
        monodromy(sys, FloquetResult(np.zeros(1), 0.0), steps=10)
        assert len(builds) == 2 and builds[1][1] is not None


class TestMidpointTimeShared:
    """Each subtree that reads t alone is tabulated before the generated
    RK4 loop, once per stage time t, t + h/2 and t + h, so stages 2 and 3
    share it and the loop body never evaluates it."""

    @staticmethod
    def _source(monkeypatch, text, variational):
        sources = []
        build = compile
        monkeypatch.setattr(expressions, "compile",
                            lambda src, *args: sources.append(src)
                            or build(src, *args), raising=False)
        parse_system(text).stepper(variational)
        src = sources[-1]
        return src, src[src.index("    for i in range(steps):"):]

    def test_criterion_1_sin_calls_per_step(self, monkeypatch):
        src, loop = self._source(monkeypatch,
                                 "dim=1; period=6.283185307179586; "
                                 "f1 = -x1 + sin(t)", False)
        assert src.count("sin(") == 3
        assert "sin(" not in loop

    def test_shared_by_f_and_jacobian(self, monkeypatch):
        # d f2 / d x1 reads sin(t) too, and reads the same three tables
        src, loop = self._source(monkeypatch,
                                 "dim=2; period=6.283185307179586; "
                                 "f1 = -x1 + x2/(2 + x1^2); "
                                 "f2 = -2*x2 + exp(-x1^2)*sin(t)", True)
        assert src.count("sin(") == 3
        assert "sin(" not in loop
        assert src.count("exp(") == 8   # reads x1: once per stage and tree


class TestScalarLayoutNegativeControls:
    """The compiled RK4 loop runs on Python floats, and still a singular
    or overflowing f is a DomainError, never a Python ZeroDivisionError or
    OverflowError."""

    @pytest.mark.parametrize("text, steps", [
        ("f1 = x1 + t/t", 1), ("f1 = x1 + t/t", 100),
        ("f1 = x1 + 1/t", 1), ("f1 = x1 + 1/t", 100),
        # exp(1000) overflows at the last stage of the only step
        ("f1 = x1 + exp(1000*t)", 1),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_entry_point(self, text, steps):
        sys = parse_system("dim=1; period=1; " + text)
        cpa = constant_metric(build_complex([[[-1.0, 1.0]]], 1.0, 1),
                                 np.eye(1))
        calls = [
            lambda: integrate(sys, 0.0, [0.0], 1.0, steps),
            lambda: monodromy(sys, FloquetResult(np.zeros(1), 0.0),
                              steps=steps),
            lambda: contraction_probe(cpa, sys, [0.0], [1e-3], 1.0, steps),
        ]
        for call in calls:
            with pytest.raises(DomainError) as exc:
                call()
            assert type(exc.value) is DomainError


class TestProbeTrajectoriesDiverge:
    """The base and offset trajectories are two runs; the earlier failure
    wins, and any exit of the base from the domain before it."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_only_offset_fails(self):
        # the offset starts on the pole; the base moves away from it
        sys = parse_system("dim=1; period=1; f1 = 1/(x1 - 0.001)")
        integrate(sys, 0.0, [0.0], 1.0, 100)
        cpa = constant_metric(build_complex([[[-1.0, 1.0]]], 1.0, 1),
                                 np.eye(1))
        with pytest.raises(DomainError,
                           match=r"before t=0\.01$") as exc:
            contraction_probe(cpa, sys, [0.0], [1e-3], 1.0, 100)
        assert type(exc.value) is DomainError

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_base_leaves_before_offset_overflows(self):
        # x' = x^3 blows up at t = 1/(2 x0^2): 0.22 for the offset, 0.62
        # for the base, which leaves [-1, 1] at t = 0.12
        sys = parse_system("dim=1; period=1; f1 = x1^3")
        with pytest.raises((DomainError, NonFiniteStateError)):
            integrate(sys, 0.0, [1.5], 0.5, 50)
        cpa = constant_metric(build_complex([[[-1.0, 1.0]]], 1.0, 1),
                                 np.eye(1))
        with pytest.raises(LeftDomainError, match=r"at t=0\.12$"):
            contraction_probe(cpa, sys, [0.9], [0.6], 0.5, 50)


class TestStepsValidated:
    @pytest.mark.parametrize("steps", [0, -3])
    def test_every_entry_point(self, linear_1d, steps):
        cpa = constant_metric(build_complex([[[-2.0, 1.0]]], linear_1d.T, 1),
                                 np.eye(1))
        calls = [
            lambda: integrate(linear_1d, 0.0, [0.0], 1.0, steps),
            lambda: find_periodic_orbit(linear_1d, [0.0], steps=steps),
            lambda: monodromy(linear_1d, FloquetResult(np.zeros(1), 0.0),
                              steps=steps),
            lambda: contraction_probe(cpa, linear_1d, [0.0], [1e-3], 1.0,
                                      steps),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="steps must be at least 1"):
                call()


class TestVariationalFlowErrors:
    @pytest.mark.parametrize("text, steps, error", [
        # a stage evaluation of f overflows
        ("dim=1; period=1; f1 = exp(1000*x1)", 100, DomainError),
        # every stage is finite, their weighted sum is not
        ("dim=1; period=1; f1 = 1e308 + 0*x1", 10, NonFiniteStateError),
        # the fundamental matrix overflows; x and every evaluation stay
        # finite
        ("dim=1; period=1; f1 = 1e30*x1", 10, NonFiniteStateError),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_negative_control(self, text, steps, error):
        sys = parse_system(text)
        with pytest.raises(error) as exc:
            monodromy(sys, FloquetResult(np.zeros(1), 0.0), steps=steps)
        assert type(exc.value) is error
        with pytest.raises(NoConvergenceError) as exc:
            find_periodic_orbit(sys, [0.0], steps=steps)
        assert type(exc.value.__cause__) is error

    @pytest.mark.parametrize("text, guess", [
        ("dim=1; period=6.283185307179586; f1 = -x1 + sin(t)", [0.0]),
        ("dim=2; period=6.283185307179586; f1 = x2; "
         "f2 = -x1 - x2 - x1^3 + 0.5*cos(t)", [0.0, 0.0]),
    ])
    def test_orbit_carries_the_monodromy(self, text, guess):
        sys = parse_system(text)
        res = find_periodic_orbit(sys, guess, steps=512)
        mono = monodromy(sys, res, steps=512)
        assert np.array_equal(res.monodromy, mono.monodromy)
        assert np.array_equal(res.exponents, mono.exponents)
        assert res.residual == mono.residual


def _rk4_reference_step(fun, t, x, h):
    k1 = fun(t, x)
    k2 = fun(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = fun(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = fun(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_reference(fun, x, h, steps):
    states = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            states.append(_rk4_reference_step(fun, i * h, states[-1], h))
    return np.array(states)


def _rk4_reference_run(fun, evals, x, h, steps):
    """`_rk4_reference` up to the first non-finite state, as the compiled
    loop returns it: (done, domain, states), domain telling whether one of
    that step's stage evaluations `evals(t, x)` was non-finite."""
    states = [x]
    with np.errstate(all="ignore"):
        for i in range(steps):
            seen = []
            new = _rk4_reference_step(
                lambda t, y: seen.append(evals(t, y)) or fun(t, y),
                i * h, states[-1], h)
            if not np.isfinite(new).all():
                return i, not np.isfinite(seen).all(), np.array(states)
            states.append(new)
    return steps, False, np.array(states)


def _check_stepper(sys, x0, h, steps, variational):
    """The compiled loop from (0, x0), and with `variational` Phi = I,
    against `_rk4_reference_run` with every stage evaluated by the numpy
    code of `compile_exprs` as a batch of one: the same (done, domain),
    recorded states and exception class. Returns the reference's run."""
    n = sys.n
    y0 = np.concatenate([x0, np.eye(n).ravel()]) if variational else x0

    def evals(t, y):
        pt = [np.concatenate(([t], y[:n]))]
        fx = sys._batch(sys._f_code, pt, (n,))[0]
        return (np.append(fx, sys._batch(sys._jac_code, pt, (n, n))[0])
                if variational else fx)

    def fun(t, y):
        e = evals(t, y)
        return np.concatenate([e[:n], (e[n:].reshape(n, n)
                                       @ y[n:].reshape(n, n)).ravel()])

    ref = _rk4_reference_run(fun if variational else evals, evals, y0, h,
                             steps)
    rows = []
    with np.errstate(all="ignore"):
        got = sys.stepper(variational)(0.0, h, steps, y0, rows.extend)
    assert got[:2] == ref[:2]
    assert np.array([*y0, *rows]).tobytes() == ref[2].tobytes()
    error = orbits._run(sys, 0.0, h * steps, steps, y0, variational)[1]
    assert type(error) is (type(None) if ref[0] == steps else
                           DomainError if ref[1] else NonFiniteStateError)
    return ref


class TestZeroDivisorsMatchReference:
    """The compiled loop runs on Python floats, yet a zero divisor divides
    as numpy does: against RK4 with every stage evaluated by the numpy
    code, the same step count, domain flag, exception class and recorded
    states. With h = 1/8 and x1 = t, the poles at 0.5 are hit exactly."""

    STEPS = 8

    @pytest.mark.parametrize("text, done, domain", [
        # -1/0 = -inf and exp(-inf) = 0: finite through the pole
        ("f1 = 1; f2 = exp(-1/(x1 - 0.5)^2)", 8, False),
        ("f1 = 1; f2 = exp(-(x1 - 0.5)^-2)", 8, False),
        # x2 divided by the table of t - 0.5 at its zero, at step 3's last
        # stage
        ("f1 = x2/(t - 0.5); f2 = 1", 3, True),
        # exp overflows: of the state at step 5, of the table at step 7
        ("f1 = 1; f2 = exp(1000*x1)", 5, True),
        ("f1 = x2; f2 = -x1 + exp(800*t)", 7, True),
        # every stage is finite, their weighted sum is not
        ("f1 = 0.5; f2 = 1e308*cos(t) + x1", 0, False),
    ])
    @pytest.mark.parametrize("variational", [False, True])
    def test_against_reference(self, text, done, domain, variational):
        sys = parse_system("dim=2; period=1; " + text)
        ref = _check_stepper(sys, np.zeros(2), 1.0 / self.STEPS, self.STEPS,
                             variational)
        if not variational:
            assert ref[:2] == (done, domain)


class TestRandomTreesMatchReference:
    """Random trees over t, x1 and x2: the compiled loop, with its time
    tables, zero guards and written-out powers, against RK4 over the numpy
    code of `compile_exprs`, non-finite values included."""

    @settings(max_examples=150, deadline=None)
    @given(f1=_TREES, f2=_TREES, variational=st.booleans(),
           x0=hnp.arrays(np.float64, 2,
                         elements=st.floats(-2.0, 2.0, width=64)))
    def test_three_steps(self, f1, f2, x0, variational):
        _check_stepper(SystemDefinition(2, 1.0, [f1, f2]), x0, 0.25, 3,
                       variational)


class TestDriverMatchesPerStageReference:
    """The oracle's RK4 driver against RK4 with every stage evaluated
    through `f` and `jacobian`, or `f_many`, bit for bit."""

    STEPS = 300

    @pytest.fixture(params=[
        "dim=1; period=6.283185307179586; f1 = -x1 - x1^3 + sin(t)",
        "dim=2; period=6.283185307179586; f1 = x2; "
        "f2 = -x1 - x2 - x1^3 + 0.5*cos(t)",
        "dim=2; period=6.283185307179586; f1 = -x1 + x2/(2 + x1^2); "
        "f2 = -2*x2 + exp(-x1^2)*sin(t)",
        "dim=3; period=1; f1 = -x1 + 1.5*x2 + 0.2*x2*x3; "
        "f2 = -x2 + 1.5*x3 - 0.2*x1*x3; f3 = -x3 + 0.2*x1*x2",
    ])
    def system(self, request):
        sys = parse_system(request.param)
        x0 = 0.1 * np.arange(1, sys.n + 1)
        return sys, x0, sys.T / self.STEPS

    def test_integrate(self, system):
        sys, x0, h = system
        ref = _rk4_reference(
            lambda t, x: sys.f(np.concatenate(([t], x))), x0, h, self.STEPS)
        traj = integrate(sys, 0.0, x0, sys.T, self.STEPS)
        assert np.array_equal(traj.x, ref)

    def test_variational_flow(self, system):
        sys, x0, h = system
        n = sys.n

        def fun(t, state):
            point = np.concatenate(([t], state[:n]))
            fx, J = sys.f(point), sys.jacobian(point)
            return np.concatenate([fx, (J @ state[n:].reshape(n, n)).ravel()])

        ref = _rk4_reference(fun, np.concatenate([x0, np.eye(n).ravel()]),
                             h, self.STEPS)[-1]
        res = monodromy(sys, FloquetResult(x0, 0.0), steps=self.STEPS)
        assert np.array_equal(res.monodromy, ref[n:].reshape(n, n))
        assert res.residual == float(np.max(np.abs(ref[:n] - x0)))

    def test_contraction_probe(self, system):
        sys, x0, h = system
        n = sys.n
        cx = build_complex([[[-2.0, 2.0]] * n], sys.T, 1)
        xyz = cx.slot_coordinates()
        diag = 1.0 + 0.3 * np.sin(xyz[:, :1]) + 0.1 * xyz[:, 1:] ** 2
        cpa = CPAMetric(cx, pack_symmetric(diag[:, :, None] * np.eye(n)))
        off = np.full(n, 1e-3)
        points = np.empty((2, n + 1))

        def fun(t, X):
            points[:, 0] = t
            points[:, 1:] = X.T
            return sys.f_many(points).T

        states = _rk4_reference(fun, np.column_stack([x0, x0 + off]), h,
                                self.STEPS)
        ts = np.concatenate(([0.0], np.arange(self.STEPS) * h + h))
        sids, lam = cx.locate_many(np.column_stack([ts, states[:, :, 0]]))
        M = unpack_symmetric(cpa.interpolate_batch(sids, lam), n)
        delta = states[:, :, 1] - states[:, :, 0]
        # delta^T M delta over the lower triangle, an off-diagonal term
        # twice, in the probe's order (a stacked matmul rounds otherwise)
        q = sum((1.0 if i == j else 2.0) * delta[:, i] * M[:, i, j]
                * delta[:, j] for j in range(n) for i in range(j, n))
        d = contraction_probe(cpa, sys, x0, off, sys.T, self.STEPS)
        assert np.array_equal(d, np.sqrt(np.maximum(q, 0.0)))


class TestRecordedValues:
    """Oracle values recorded with the per-point tree-walking evaluator and
    the neighbour-loop point location; the compiled right-hand sides and
    batched location must reproduce them."""

    def test_criterion_1_probe_series(self, linear_1d):
        # a closed-form positive CPA metric on the criterion-1 mesh keeps
        # the series independent of the SDP solver
        cx = build_complex([[[-2.0, 1.0]]], linear_1d.T, 5)
        xyz = cx.slot_coordinates()
        cpa = CPAMetric(cx, (1.0 + 0.3 * np.sin(xyz[:, 0])
                             + 0.2 * xyz[:, 1] ** 2)[:, None])
        recorded = {
            (-1.2, 1e-3): [
                0.0011352374963147496, 0.0005065451134519672,
                0.00023940836949336186, 0.00010788899102004474,
                4.419606127044805e-05, 1.7494659861807528e-05,
                7.796056380296861e-06, 3.865088872297576e-06,
                1.915533576118861e-06],
            (0.4, -1e-3): [
                0.0010160098649666944, 0.0005090277487633464,
                0.0002456452914857116, 0.00010963331145940804,
                4.4481955138366005e-05, 1.7496376669552157e-05,
                7.781435997858424e-06, 3.861177471523977e-06,
                1.914999464383305e-06],
        }
        for (x0, off), series in recorded.items():
            d = contraction_probe(cpa, linear_1d, [x0], [off], TWO_PI, 2000)
            np.testing.assert_allclose(d[::250], series, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("text, x_star, exponents", [
        ("f1 = -x1 - x1^3 + sin(t)", [-0.38012642983012696],
         [-1.5661365620703875]),
        ("f1 = x2; f2 = -x1 - x2 - x1^3 + 0.5*cos(t)",
         [0.08540097725817376, 0.4770496063267436],
         [-0.43114150003556245, -0.5688584999192078]),
        ("f1 = -x1 + x2/(2 + x1^2); f2 = -2*x2 + exp(-x1^2)*sin(t)",
         [-0.1472237779468453, -0.1965395156392293],
         [-1.0383625037804116, -1.9736969712753203]),
    ])
    def test_floquet(self, text, x_star, exponents):
        sys = parse_system(f"dim={len(x_star)}; period=6.283185307179586; "
                           + text)
        res = find_periodic_orbit(sys, np.zeros(sys.n), steps=1024)
        mono = monodromy(sys, res, steps=1024)
        np.testing.assert_allclose(res.x_star, x_star, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mono.exponents, exponents, rtol=1e-12,
                                   atol=0)
