"""Independent dynamics oracle: fixed-step RK4 integration, Newton
shooting for the periodic orbit, the monodromy matrix with Floquet
exponents, and contraction probes of nearby trajectories in a synthesized
metric.
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


def _rk4_step(fun, t, x, h):
    # callers loop over steps with overflow warnings off: their finiteness
    # checks report an overflowing step, which must not also warn
    k1 = fun(t, x)
    k2 = fun(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = fun(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = fun(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(sys, t0, x0, t1, steps):
    """Classical RK4 with fixed step; records a step-doubling error
    estimate on a sparse subset of steps."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    h = (t1 - t0) / steps

    def fun(t, x):
        return sys.f(np.concatenate(([t], x)))

    ts = np.empty(steps + 1)
    xs = np.empty((steps + 1, sys.n))
    ts[0] = t0
    xs[0] = x0
    x = x0
    max_err = 0.0
    probe_every = max(1, steps // 16)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            t = t0 + i * h
            x_new = _rk4_step(fun, t, x, h)
            if i % probe_every == 0:
                half = _rk4_step(fun, t, x, 0.5 * h)
                half = _rk4_step(fun, t + 0.5 * h, half, 0.5 * h)
                max_err = max(max_err, float(np.max(np.abs(x_new - half))) / 15.0)
            x = x_new
            ts[i + 1] = t0 + (i + 1) * h
            xs[i + 1] = x
            if not np.all(np.isfinite(x)):
                raise NonFiniteStateError(f"state became non-finite at t={ts[i + 1]}")
    return Trajectory(t=ts, x=xs, steps=steps, max_local_error=max_err)


def _flow_with_variational(sys, x0, steps):
    """S_T^x(0, x0) and the fundamental matrix of dy = D_x f(t, x(t)) y."""
    n = sys.n
    h = sys.T / steps

    def fun(t, state):
        fx, J = sys.f_and_jacobian(np.concatenate(([t], state[:n])))
        return np.concatenate([fx, (J @ state[n:].reshape(n, n)).ravel()])

    state = np.concatenate([np.atleast_1d(np.asarray(x0, dtype=float)),
                            np.eye(n).ravel()])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            state = _rk4_step(fun, i * h, state, h)
            if not np.all(np.isfinite(state)):
                raise NonFiniteStateError("variational flow became non-finite")
    return state[:n], state[n:].reshape(n, n)


def find_periodic_orbit(sys, guess, tol=1e-10, max_newton=50, steps=4096):
    """Damped Newton on x -> S_T^x(0, x) - x with the exact period-map
    Jacobian from the variational equation."""
    x = np.atleast_1d(np.asarray(guess, dtype=float)).copy()
    n = sys.n
    for _ in range(max_newton):
        if np.max(np.abs(x)) > _DIVERGENCE_GUARD:
            raise NoConvergenceError("iterate diverged")
        try:
            xT, Phi = _flow_with_variational(sys, x, steps)
        except (NonFiniteStateError, DomainError) as exc:
            raise NoConvergenceError(
                f"flow from the current iterate blew up: {exc}") from exc
        g = xT - x
        res = float(np.max(np.abs(g)))
        if res <= tol:
            return FloquetResult(x_star=x, residual=res)
        try:
            dx = np.linalg.solve(Phi - np.eye(n), -g)
        except np.linalg.LinAlgError:
            raise NoConvergenceError("singular period-map Jacobian") from None
        alpha = 1.0
        while alpha >= 2.0**-30:
            x_try = x + alpha * dx
            try:
                g_try = _flow_with_variational(sys, x_try, steps)[0] - x_try
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
    Floquet exponents, log|eig| / T."""
    xT, Phi = _flow_with_variational(sys, result.x_star, steps)
    eigs = np.linalg.eigvals(Phi)
    exponents = np.sort(np.log(np.maximum(np.abs(eigs), 1e-300)) / sys.T)[::-1]
    return FloquetResult(x_star=result.x_star,
                         residual=float(np.max(np.abs(xT - result.x_star))),
                         monodromy=Phi, exponents=exponents)


def contraction_probe(cpa, sys, x0, offset, horizon, steps):
    """Riemannian distance d(theta) between the trajectories from x0 and
    x0 + offset, measured in the CPA metric along the base trajectory.

    For a verified metric and small offsets the series is nonincreasing up
    to integration error. Both trajectories advance as one (n, 2) state;
    the metric is then located and interpolated for all steps at once.
    Raises LeftDomainError at the first step where the base trajectory is
    outside the triangulated domain, unless integration failed earlier.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    off = np.atleast_1d(np.asarray(offset, dtype=float))
    n = sys.n
    h = horizon / steps

    points = np.empty((2, n + 1))

    def fun(t, X):
        points[:, 0] = t
        points[:, 1:] = X.T
        return sys.f_many(points).T

    X = np.column_stack([x0, x0 + off])
    states = np.empty((steps + 1, n, 2))
    states[0] = X
    failure = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            try:
                X = _rk4_step(fun, i * h, X, h)
                if not np.all(np.isfinite(X)):
                    raise NonFiniteStateError("probe state became non-finite")
            except (DomainError, NonFiniteStateError) as exc:
                states, failure = states[:i + 1], exc
                break
            states[i + 1] = X
    # distances are due before the step that follows them, so a failed
    # step reports first any earlier exit from the domain
    ts = np.concatenate(([0.0], np.arange(len(states) - 1) * h + h))
    sids, lam = cpa.complex.locate_many(np.column_stack([ts, states[:, :, 0]]))
    if np.any(sids < 0):
        t = float(ts[np.argmax(sids < 0)])
        raise LeftDomainError(f"probe left the domain at t={t}")
    if failure is not None:
        raise failure
    M = unpack_symmetric(cpa.interpolate_batch(sids, lam), n)
    delta = states[:, :, 1] - states[:, :, 0]
    q = (delta[:, None, :] @ M @ delta[:, :, None])[:, 0, 0]
    return np.sqrt(np.maximum(q, 0.0))
