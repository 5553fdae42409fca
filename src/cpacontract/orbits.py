"""Independent dynamics oracle: fixed-step RK4 integration, Newton
shooting for the periodic orbit, the monodromy matrix with Floquet
exponents, and contraction probes of nearby trajectories in a synthesized
metric.

One RK4 driver, `_RK4`, steps every trajectory here. It evaluates the
compiled right-hand side into preallocated stage buffers, checks
finiteness once per step and tells a non-finite evaluation (DomainError)
from an overflowing step (NonFiniteStateError) by the stage buffers. The
Newton shooting ends with the monodromy matrix at its converged point, so
a Floquet check integrates the variational flow once.
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


class _RK4:
    """Classical fixed-step RK4 from t0 to t1, the one integrator of the
    oracle. The state has shape (n,), or (m, n) for m trajectories; with
    `variational`, the row-major fundamental matrix of Phi' = D_x f Phi
    follows x. Stages evaluate the system's compiled kernel into
    preallocated buffers in the kernel's own layout, each coordinate a
    numpy scalar for one trajectory and a row for m; powers are products
    in either (`compile_exprs`), so the results are those of `f_many` and
    `jacobian_many` bit for bit.
    """

    def __init__(self, sys, shape, t0, t1, steps, variational=False):
        if steps < 1:
            raise ValueError("steps must be at least 1")
        n = sys.n
        size = n + n * n if variational else n
        self.t0, self.h, self.steps = t0, (t1 - t0) / steps, steps
        self.kernel = sys.kernel(jacobian=variational)
        w = np.empty(shape + (1 + size,))          # rows (t, stage input)
        self.v, self.ys = w.T, w[..., 1:]
        self.k = np.empty((4,) + shape + (size,))  # stage derivatives
        self.e = np.empty((4, size)) if variational else self.k  # evaluations
        self.acc, self.tmp = np.empty((2,) + shape + (size,))
        self.phi = self.ys[n:].reshape(n, n) if variational else None
        if variational:
            self.jac, self.kphi = (a[:, n:].reshape(4, n, n) for a in (self.e, self.k))

    def step(self, t, h, y, out):
        """One step of size h from (t, y) into `out`, which may be y.
        Unchecked: the caller owns the errstate and the finiteness check."""
        mul, add = np.multiply, np.add
        v, ys, k, e, acc, tmp = self.v, self.ys, self.k, self.e, self.acc, self.tmp
        hh = 0.5 * h
        ys[...] = y
        for s, c in enumerate((0.0, hh, hh, h)):
            if s:
                mul(k[s - 1], c, tmp)
                add(y, tmp, ys)
            v[:1].fill(t + c if s else t)
            self.kernel(v, e[s])
            if self.phi is not None:    # k = (f, D_x f Phi)
                k[s] = e[s]
                np.matmul(self.jac[s], self.phi, self.kphi[s])
        mul(k[1], 2.0, acc)
        add(k[0], acc, acc)
        mul(k[2], 2.0, tmp)
        add(acc, tmp, acc)
        add(acc, k[3], acc)
        mul(acc, h / 6.0, acc)
        add(y, acc, out)

    def run(self, y=None, states=None):
        """Advance y in place, or states[i] into states[i + 1], step by
        step; returns the index of the first step whose new state is
        non-finite (see `failure`), or `steps`."""
        with np.errstate(all="ignore"):
            for i in range(self.steps):
                x, out = (y, y) if states is None else (states[i], states[i + 1])
                self.step(self.t0 + i * self.h, self.h, x, out)
                if not np.isfinite(out).all():
                    return i
        return self.steps

    def failure(self, i):
        """The error of step i, whose new state is non-finite. A non-finite
        stage evaluation always makes the weighted sum non-finite, so the
        stage buffers tell the two causes apart exactly."""
        t = self.t0 + (i + 1) * self.h
        if not np.isfinite(self.e).all():
            return DomainError(f"non-finite value in f evaluation before t={t}")
        return NonFiniteStateError(f"state became non-finite at t={t}")


def integrate(sys, t0, x0, t1, steps):
    """Classical RK4 with fixed step; records a step-doubling error
    estimate on a sparse subset of steps."""
    rk = _RK4(sys, (), t0, t1, steps)
    h = rk.h
    ts = t0 + np.arange(steps + 1) * h
    xs = np.empty((steps + 1, sys.n))
    xs[0] = np.atleast_1d(np.asarray(x0, dtype=float))
    done = rk.run(states=xs)
    failure = rk.failure(done) if done < steps else None
    max_err = 0.0
    # the estimates up to a failed step come first: a non-finite
    # evaluation in any of them is a DomainError
    with np.errstate(all="ignore"):
        for i in range(0, min(done + 1, steps), max(1, steps // 16)):
            half = xs[i].copy()
            for sub in range(2):
                rk.step(ts[i] + sub * 0.5 * h, 0.5 * h, half, half)
                if not np.isfinite(half).all() and isinstance(
                        exc := rk.failure(i), DomainError):
                    raise exc
            max_err = max(max_err, float(np.max(np.abs(xs[i + 1] - half))) / 15.0)
    if failure is not None:
        raise failure
    return Trajectory(t=ts, x=xs, steps=steps, max_local_error=max_err)


def _flow(sys, x0, steps, variational=False):
    """S_T^x(0, x0) alone, or with `variational` also the fundamental
    matrix of dy = D_x f(t, x(t)) y."""
    n = sys.n
    rk = _RK4(sys, (), 0.0, sys.T, steps, variational)
    y = np.atleast_1d(np.asarray(x0, dtype=float))
    y = np.concatenate([y, np.eye(n).ravel()]) if variational else y.copy()
    if (done := rk.run(y)) < steps:
        raise rk.failure(done)
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
    to integration error. Both trajectories advance as one (2, n) state;
    the metric is then located and interpolated for all steps at once.
    Raises LeftDomainError at the first step where the base trajectory is
    outside the triangulated domain, unless integration failed earlier.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    off = np.atleast_1d(np.asarray(offset, dtype=float))
    n = sys.n
    rk = _RK4(sys, (2,), 0.0, horizon, steps)
    states = np.empty((steps + 1, 2, n))
    states[0] = x0, x0 + off
    done = rk.run(states=states)
    failure = rk.failure(done) if done < steps else None
    states = states[:done + 1]
    # distances are due before the step that follows them, so a failed
    # step reports first any earlier exit from the domain
    ts = np.concatenate(([0.0], np.arange(len(states) - 1) * rk.h + rk.h))
    sids, lam = cpa.complex.locate_many(np.column_stack([ts, states[:, 0]]))
    if np.any(sids < 0):
        t = float(ts[np.argmax(sids < 0)])
        raise LeftDomainError(f"probe left the domain at t={t}")
    if failure is not None:
        raise failure
    M = unpack_symmetric(cpa.interpolate_batch(sids, lam), n)
    delta = states[:, 1] - states[:, 0]
    q = (delta[:, None, :] @ M @ delta[:, :, None])[:, 0, 0]
    return np.sqrt(np.maximum(q, 0.0))
