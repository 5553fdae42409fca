"""System definitions: parse the textual right-hand side, evaluate it and
its spatial Jacobian, and produce rigorous per-box bounds on second and
third partial derivatives (t counts as coordinate 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import (
    DimensionMismatchError,
    DomainError,
    ExpressionSyntaxError,
    UnsupportedExpressionError,
)


# a·T/(2π) of a sin or cos argument's rate a counts as an integer within
# this absolute tolerance (`SystemDefinition.periodicity_defect`)
PERIOD_TOL = 1e-9


@dataclass(frozen=True)
class DerivativeBounds:
    """User-supplied global bounds: B for order 2, B3 for order 3."""

    B: float
    B3: float | None = None

    def __post_init__(self):
        if self.B < 0 or (self.B3 is not None and self.B3 < 0):
            raise ValueError("derivative bounds must be nonnegative")


class SystemDefinition:
    """Parsed time-periodic system ẋ = f(t, x) with period T.

    Immutable after construction; all evaluations are pure. Expression
    trees for the spatial Jacobian and for all second (and, for C3
    systems, third) partial derivatives are prepared eagerly. The RK4
    steppers of the dynamics oracle are compiled on first use and cached;
    the build is pure and idempotent, so concurrent use needs no locking.
    """

    def __init__(self, n, period, rhs, smoothness="C2", user_bounds=None):
        if n < 1:
            raise DimensionMismatchError("dimension must be at least 1")
        if period <= 0:
            raise ValueError("period must be positive")
        if len(rhs) != n:
            raise DimensionMismatchError(f"expected {n} right-hand sides, got {len(rhs)}")
        if smoothness not in ("C2", "C3"):
            raise ValueError("smoothness must be 'C2' or 'C3'")
        self.n = n
        self.T = float(period)
        self.rhs = tuple(rhs)
        self.smoothness = smoothness
        self.user_bounds = user_bounds

        # first derivatives d f_l / d x_k for k = 0..n (k=0 is t)
        self._d1 = [[f.diff(k) for k in range(n + 1)] for f in self.rhs]
        # second partials, unordered pairs i <= j over 0..n
        self._d2 = [
            [(i, j, self._d1[l][i].diff(j)) for i in range(n + 1) for j in range(i, n + 1)]
            for l in range(n)
        ]
        # third partials, i <= j <= k, for C3 systems only
        self._d3 = [
            [(i, j, k, d.diff(k)) for (i, j, d) in table for k in range(j, n + 1)]
            for table in self._d2
        ] if smoothness == "C3" else None
        self._jac = [d[j] for d in self._d1 for j in range(1, n + 1)]
        self._f_code = ex.compile_exprs(self.rhs)
        self._jac_code = ex.compile_exprs(self._jac)
        self._steppers = {}

    # -- evaluation -------------------------------------------------------

    def _batch(self, code, points, shape):
        """The compiled code at points of shape (N, n+1): (N,) + shape."""
        vals = np.asarray(points, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.n + 1:
            raise DimensionMismatchError(
                f"points must have shape (N, {self.n + 1})")
        out = np.empty((len(vals),) + shape)
        with np.errstate(all="ignore"):
            code(vals.T, out.reshape(len(out), math.prod(shape)))
        return out

    @staticmethod
    def _finite(out, what):
        if not np.isfinite(out).all():
            raise DomainError(f"non-finite value in {what} evaluation")
        return out

    def f(self, point):
        """f(t, x) at a single point (t, x1..xn), as a batch of one;
        returns shape (n,)."""
        return self._finite(self._batch(self._f_code, [point], (self.n,))[0],
                            "f")

    def f_many(self, points):
        """Vectorized f over points of shape (N, n+1); returns (N, n)."""
        return self._finite(self._batch(self._f_code, points, (self.n,)), "f")

    def f_tilde_many(self, points):
        """(1, f(t,x)) rows for a batch of points; returns (N, n+1)."""
        N = np.asarray(points).shape[0]
        out = np.empty((N, self.n + 1))
        out[:, 0] = 1.0
        out[:, 1:] = self.f_many(points)
        return out

    def jacobian(self, point):
        """Spatial Jacobian D_x f at a single point, as a batch of one;
        returns (n, n)."""
        out = self._batch(self._jac_code, [point], (self.n, self.n))[0]
        return self._finite(out, "Jacobian")

    def jacobian_many(self, points):
        """Vectorized spatial Jacobian; returns (N, n, n)."""
        out = self._batch(self._jac_code, points, (self.n, self.n))
        return self._finite(out, "Jacobian")

    def stepper(self, variational=False):
        """The flow's compiled RK4 loop, with `variational` also of its
        fundamental matrix (`compile_rk4`); synthesis never builds it."""
        if variational not in self._steppers:
            self._steppers[variational] = ex.compile_rk4(
                self.rhs, self._jac if variational else None)
        return self._steppers[variational]

    # -- derivative bounds ------------------------------------------------

    def derivative_bound_boxes(self, lo, hi, order):
        """Upper bounds (N,) on the max-norm of all order-k partials over
        boxes given as (n+1, N) lower/upper arrays.

        Interval-arithmetic over-approximation; a user-supplied global
        bound short-circuits the computation. Over-approximation is
        safe: it only enlarges the interpolation-error margin.
        """
        if order not in (2, 3):
            raise ValueError("order must be 2 or 3")
        if self.user_bounds is not None:
            val = self.user_bounds.B if order == 2 else self.user_bounds.B3
            if val is not None:
                return np.full(np.asarray(lo).shape[1], float(val))
        if order == 3:
            if self._d3 is None:
                raise UnsupportedExpressionError(
                    "order-3 bounds need smoothness C3 or user-supplied bounds")
            tables = self._d3
        else:
            tables = self._d2
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out = np.zeros(lo.shape[1])
        for table in tables:
            for entry in table:
                expr = entry[-1]
                if isinstance(expr, ex.Const) and expr.value == 0.0:
                    continue
                out = np.maximum(out, ex.interval_bound_abs(expr, lo, hi))
        return out

    def periodicity_defect(self, tol=PERIOD_TOL):
        """None when the right-hand side is T-periodic in t by its form,
        else the first subexpression that keeps it from being so. t may
        occur only inside the argument u of a `sin` or `cos` whose
        derivative in t, `u.diff(0)`, folds to a constant a with a·T/(2π)
        within `tol` of an integer j, so that u(t + T) = u(t) + 2πj. A
        bare t, t in any other function or a non-constant rate in t is a
        defect, even where the whole happens to be periodic."""
        for f in self.rhs:
            bad = _periodicity_defect(f, self.T, tol)
            if bad is not None:
                return bad
        return None

    def __repr__(self):
        rhs = "; ".join(f"f{l + 1} = {f}" for l, f in enumerate(self.rhs))
        return f"SystemDefinition(n={self.n}, T={self.T}, {rhs})"


def _periodicity_defect(e, T, tol):
    """The first subexpression of e that breaks `periodicity_defect`'s
    rule, or None."""
    if isinstance(e, ex.Fun) and e.name in ("sin", "cos"):
        rate = e.a.diff(0)
        if isinstance(rate, ex.Const):
            turns = rate.value * T / (2.0 * math.pi)
            if abs(turns - round(turns)) <= tol:
                return None
        return e
    if isinstance(e, ex.Var):
        return e if e.index == 0 else None
    for child in (getattr(e, name, None) for name in ("a", "b")):
        if isinstance(child, ex.Expr):
            bad = _periodicity_defect(child, T, tol)
            if bad is not None:
                return bad
    return None


def parse_system(text):
    """Parse a system definition from configuration text.

    The text is a sequence of `key = value` statements separated by
    semicolons or newlines. Required keys: `dim`, `period`, and `f1`..`fn`.
    Optional: `smoothness` (c2 or c3), `bound2`, `bound3` (global
    derivative bounds). Periodicity in t is not checked here; the commands
    check it where a certificate is made or read (`Config.build_system`),
    and the dynamics oracle also integrates systems that are not periodic.
    """
    statements = []
    offset = 0
    for chunk in text.replace("\n", ";").split(";"):
        stripped = chunk.strip()
        if stripped:
            statements.append((stripped, offset + chunk.index(stripped[0])))
        offset += len(chunk) + 1

    decls = {}
    for stmt, pos in statements:
        if "=" not in stmt:
            raise ExpressionSyntaxError("statement is not of the form key = value", pos)
        key, value = stmt.split("=", 1)
        key = key.strip().lower()
        if key in decls:
            raise ExpressionSyntaxError(f"duplicate declaration of {key!r}", pos)
        decls[key] = (value.strip(), pos + stmt.index("=") + 1)

    def take(key):
        if key not in decls:
            raise DimensionMismatchError(f"missing declaration {key!r}")
        return decls.pop(key)

    dim_text, dim_pos = take("dim")
    try:
        n = int(dim_text)
    except ValueError:
        raise ExpressionSyntaxError("dim must be an integer", dim_pos) from None
    if n < 1:
        raise DimensionMismatchError("dim must be at least 1")

    period_text, period_pos = take("period")
    try:
        period = float(period_text)
    except ValueError:
        raise ExpressionSyntaxError("period must be a number", period_pos) from None

    sm_text, sm_pos = decls.pop("smoothness", ("C2", 0))
    smoothness = sm_text.upper()
    if smoothness not in ("C2", "C3"):
        raise ExpressionSyntaxError("smoothness must be c2 or c3", sm_pos)

    user_bounds = None
    if "bound2" in decls or "bound3" in decls:
        b2 = float(decls.pop("bound2")[0]) if "bound2" in decls else None
        b3 = float(decls.pop("bound3")[0]) if "bound3" in decls else None
        if b2 is None:
            raise DimensionMismatchError("bound3 given without bound2")
        user_bounds = DerivativeBounds(B=b2, B3=b3)

    parser = ex.ExpressionParser(n)
    rhs = []
    for l in range(1, n + 1):
        expr_text, expr_pos = take(f"f{l}")
        rhs.append(parser.parse(expr_text, expr_pos))
    if decls:
        extra = ", ".join(sorted(decls))
        raise DimensionMismatchError(f"unexpected declarations: {extra}")

    return SystemDefinition(n, period, rhs, smoothness=smoothness,
                            user_bounds=user_bounds)
