"""Independent dynamics oracle: fixed-step RK4 integration, Newton
shooting for the periodic orbit, the monodromy matrix with Floquet
exponents, and contraction probes of nearby trajectories in a synthesized
metric.

Every trajectory is one run of the system's compiled RK4 loop
(`SystemDefinition.stepper`), straight-line code over Python floats that
gives the bits of the numpy evaluation of f and D_x f, and tells a
non-finite evaluation (DomainError) from an overflowing step
(NonFiniteStateError); a probe is two runs. The Newton shooting ends
with the monodromy matrix at its converged point, so a Floquet check
integrates the variational flow once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpa import unpack_symmetric
from .errors import (
    DomainError,
    LeftDomainError,
    NoConvergenceError,
    NonFiniteStateError,
)

_DIVERGENCE_GUARD = 1e8


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    steps: int
    max_local_error: float

    def write_csv(self, path):
        """Dump (t, x..) rows for external plotting."""
        n = self.x.shape[1]
        header = "t," + ",".join(f"x{j}" for j in range(1, n + 1))
        np.savetxt(path, np.column_stack([self.t, self.x]), delimiter=",",
                   header=header, comments="")


@dataclass
class FloquetResult:
    x_star: np.ndarray
    residual: float
    monodromy: np.ndarray | None = None
    exponents: np.ndarray | None = None


def _run(sys, t0, t1, steps, y, variational=False, record=False):
    """The system's compiled RK4 loop from (t0, y) to t1 (`compile_rk4`);
    returns (done, error, y), error that of step `done` or None and y the
    last state, or with `record` the (done + 1, n) finite states."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    h, rows = (t1 - t0) / steps, list(y) if record else None
    with np.errstate(all="ignore"):
        done, domain, y = sys.stepper(variational)(
            t0, h, steps, y, rows.extend if record else None)
    t = t0 + (done + 1) * h
    y = np.array(rows).reshape(-1, sys.n) if record else y
    if done == steps:
        return done, None, y
    if domain:
        return done, DomainError(f"non-finite value in f evaluation before t={t}"), y
    return done, NonFiniteStateError(f"state became non-finite at t={t}"), y


def integrate(sys, t0, x0, t1, steps):
    """Classical RK4 with fixed step; records a step-doubling error
    estimate on a sparse subset of steps."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    done, error, xs = _run(sys, t0, t1, steps, x0, record=True)
    h = (t1 - t0) / steps
    ts = t0 + np.arange(steps + 1) * h
    max_err, half_step = 0.0, sys.stepper()
    # the estimates up to a failed step come first: a non-finite
    # evaluation in any of them is a DomainError
    with np.errstate(all="ignore"):
        for i in range(0, min(done + 1, steps), max(1, steps // 16)):
            half = xs[i]
            for sub in range(2):
                _, bad, half = half_step(ts[i] + sub * 0.5 * h, 0.5 * h, 1,
                                         half, None)
                if bad:
                    raise DomainError("non-finite value in f evaluation "
                                      f"before t={t0 + (i + 1) * h}")
            if i < done:
                max_err = max(max_err, float(np.max(np.abs(xs[i + 1] - half))) / 15.0)
    if error is not None:
        raise error
    return Trajectory(t=ts, x=xs, steps=steps, max_local_error=max_err)


def _flow(sys, x0, steps, variational=False):
    """S_T^x(0, x0) alone, or with `variational` also the fundamental
    matrix of dy = D_x f(t, x(t)) y."""
    n = sys.n
    y = np.atleast_1d(np.asarray(x0, dtype=float))
    y = np.concatenate([y, np.eye(n).ravel()]) if variational else y
    _, error, y = _run(sys, 0.0, sys.T, steps, y, variational)
    if error is not None:
        raise error
    y = np.array(y)
    return (y[:n], y[n:].reshape(n, n)) if variational else y


def _floquet(sys, x_star, residual, Phi):
    """The result for the monodromy matrix Phi with the real parts of the
    Floquet exponents, log|eig| / T."""
    eigs = np.linalg.eigvals(Phi)
    exponents = np.sort(np.log(np.maximum(np.abs(eigs), 1e-300)) / sys.T)[::-1]
    return FloquetResult(x_star=x_star, residual=residual, monodromy=Phi,
                         exponents=exponents)


def find_periodic_orbit(sys, guess, tol=1e-10, max_newton=50, steps=4096):
    """Damped Newton on x -> S_T^x(0, x) - x with the exact period-map
    Jacobian from the variational equation. At convergence that Jacobian
    is the monodromy matrix, returned with the Floquet exponents."""
    x = np.atleast_1d(np.asarray(guess, dtype=float)).copy()
    n = sys.n
    for _ in range(max_newton):
        if np.max(np.abs(x)) > _DIVERGENCE_GUARD:
            raise NoConvergenceError("iterate diverged")
        try:
            xT, Phi = _flow(sys, x, steps, variational=True)
        except (NonFiniteStateError, DomainError) as exc:
            raise NoConvergenceError(
                f"flow from the current iterate blew up: {exc}") from exc
        g = xT - x
        res = float(np.max(np.abs(g)))
        if res <= tol:
            return _floquet(sys, x, res, Phi)
        try:
            dx = np.linalg.solve(Phi - np.eye(n), -g)
        except np.linalg.LinAlgError:
            raise NoConvergenceError("singular period-map Jacobian") from None
        alpha = 1.0
        while alpha >= 2.0**-30:
            x_try = x + alpha * dx
            try:
                g_try = _flow(sys, x_try, steps) - x_try
            except (NonFiniteStateError, DomainError):
                alpha *= 0.5
                continue
            if np.max(np.abs(g_try)) <= (1.0 - 0.5 * alpha) * res + tol:
                break
            alpha *= 0.5
        else:
            raise NoConvergenceError("line search stalled")
        x = x + alpha * dx
    raise NoConvergenceError(f"no convergence in {max_newton} Newton steps")


def monodromy(sys, result, steps=4096):
    """Monodromy matrix along the located orbit and the real parts of the
    Floquet exponents, log|eig| / T, at a step count of the caller's."""
    xT, Phi = _flow(sys, result.x_star, steps, variational=True)
    return _floquet(sys, result.x_star,
                    float(np.max(np.abs(xT - result.x_star))), Phi)


def contraction_probe(cpa, sys, x0, offset, horizon, steps):
    """Riemannian distance d(theta) between the trajectories from x0 and
    x0 + offset, measured in the CPA metric along the base trajectory.

    For a verified metric and small offsets the series is nonincreasing up
    to integration error. Each trajectory is one compiled RK4 run; the
    metric is then located and interpolated for all steps at once.
    Raises LeftDomainError at the first step where the base trajectory is
    outside the triangulated domain, unless integration failed earlier.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    runs = [_run(sys, 0.0, horizon, steps, start, record=True)
            for start in (x0, x0 + np.asarray(offset, dtype=float))]
    # the earlier failure wins, and at a shared step a DomainError
    done, error, _ = min(runs, key=lambda run: (
        run[0], not isinstance(run[1], DomainError)))
    base, other = (states[:done + 1] for _, _, states in runs)
    # distances are due before the step that follows them, so a failed
    # step reports first any earlier exit from the domain
    h = horizon / steps
    ts = np.concatenate(([0.0], np.arange(done) * h + h))
    sids, lam = cpa.complex.locate_many(np.column_stack([ts, base]))
    if np.any(sids < 0):
        t = float(ts[np.argmax(sids < 0)])
        raise LeftDomainError(f"probe left the domain at t={t}")
    if error is not None:
        raise error
    M = unpack_symmetric(cpa.interpolate_batch(sids, lam), sys.n)
    delta = other - base
    q = (delta[:, None, :] @ M @ delta[:, :, None])[:, 0, 0]
    return np.sqrt(np.maximum(q, 0.0))
