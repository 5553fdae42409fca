"""Pipeline orchestration: synthesize (with refinement of the mesh level
until the feasibility problem admits a solution), verify certificates,
compare against the Floquet oracle, export the SDP, and validate meshes.

Exit codes: 0 success/verified, 1 infeasible at the maximum level,
2 verification failed, 3 input error or unwritable output, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys as _sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .assembly import assemble, export_sdpa
from .cpa import CPAMetric
from .errors import (
    CpaError,
    InputError,
    NoConvergenceError,
    NonFiniteStateError,
)
from .orbits import find_periodic_orbit, integrate
from .solver import SolverSettings, certify, solve
from .systems import SystemDefinition, parse_system
from .triangulation import (
    ScalingMatrix,
    build_complex,
    check_complex,
    normalize_region,
)
from .verify import verify_contraction_sampled

CERT_FORMAT = "cpa-contraction-certificate/1"


def _fmt(x):
    return format(float(x), ".17g")


@dataclass
class Config:
    system_text: str
    region: list
    scaling: list
    epsilon0: float
    smoothness: str | None
    solver: SolverSettings
    k_min: int
    k_max: int
    uniform_cd: bool
    objective: str
    verify_samples: int
    verify_seed: int
    verify_tol: float
    orbit_guess: list | None
    raw: dict

    def __post_init__(self):
        if self.k_min > self.k_max or self.k_min < 0:
            raise InputError("need 0 <= k_min <= k_max")

    @classmethod
    def from_dict(cls, raw):
        try:
            system_text = raw["system"]
            region = raw["region"]
            epsilon0 = float(raw.get("epsilon0", 0.01))
            k_min = int(raw.get("k_min", 0))
            k_max = int(raw.get("k_max", 6))
            scaling = raw.get("scaling")
            if scaling is not None:
                if not isinstance(scaling, list):
                    raise TypeError("scaling must be a list of numbers")
                scaling = [float(s) for s in scaling]
                ScalingMatrix.from_spatial(scaling)  # its entries' check
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad configuration: {exc}") from exc
        if not isinstance(system_text, str):
            raise InputError("system must be a string")
        if not 0.0 < epsilon0 < math.inf:  # NaN fails too
            raise InputError("epsilon0 must be positive and finite")
        if not isinstance(region, list) or not region:
            raise InputError("region must be a non-empty list of boxes")
        mode = raw.get("mode", {})
        solver_raw = raw.get("solver", {})
        verify_raw = raw.get("verify", {})
        for name, part in (("mode", mode), ("solver", solver_raw),
                           ("verify", verify_raw)):
            if not isinstance(part, dict):
                raise InputError(f"{name} must be an object")
        try:
            settings = SolverSettings(
                feas_tol=float(solver_raw.get("feas_tol", 1e-8)),
                gap_tol=float(solver_raw.get("gap_tol", 1e-8)),
                max_iterations=int(solver_raw.get("max_iterations", 200)),
            )
            verify_samples = int(verify_raw.get("samples", 100000))
            verify_seed = int(verify_raw.get("seed", 12345))
            verify_tol = float(verify_raw.get("tol", 1e-6))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad solver or verify settings: {exc}") from exc
        if not math.isfinite(verify_tol):
            raise InputError("verify.tol must be finite")
        objective = mode.get("objective", "min_c")
        if objective not in ("none", "min_c"):
            raise InputError("mode.objective must be 'none' or 'min_c'")
        smoothness = raw.get("smoothness")
        if smoothness is not None:
            smoothness = str(smoothness).upper()
            if smoothness not in ("C2", "C3"):
                raise InputError("smoothness must be C2 or C3")
        return cls(
            system_text=system_text, region=region, scaling=scaling,
            epsilon0=epsilon0, smoothness=smoothness, solver=settings,
            k_min=k_min, k_max=k_max,
            uniform_cd=bool(mode.get("uniform_cd", True)),
            objective=objective,
            verify_samples=verify_samples, verify_seed=verify_seed,
            verify_tol=verify_tol,
            orbit_guess=raw.get("orbit_guess"), raw=raw)

    def build_system(self):
        """The configured system; an InputError when its text does not
        parse or is not T-periodic in t by its form
        (`SystemDefinition.periodicity_defect`), which the paper's theorem
        assumes."""
        try:
            sys0 = parse_system(self.system_text)
        except CpaError as exc:
            raise InputError(f"bad system text: {exc}") from exc
        bad = sys0.periodicity_defect()
        if bad is not None:
            raise InputError(f"the system is not periodic in t with period "
                             f"{sys0.T!r}: {bad}")
        declared = "smoothness" in self.system_text.lower()
        if self.smoothness is not None:
            if declared and sys0.smoothness != self.smoothness:
                raise InputError(
                    "config smoothness conflicts with the system text")
            if sys0.smoothness != self.smoothness:
                sys0 = SystemDefinition(sys0.n, sys0.T, sys0.rhs,
                                        smoothness=self.smoothness,
                                        user_bounds=sys0.user_bounds)
        return sys0

    def scaling_matrix(self, n):
        if self.scaling is None:
            return ScalingMatrix.identity(n)
        if len(self.scaling) != n:
            raise InputError(f"scaling must have {n} entries")
        return ScalingMatrix.from_spatial(self.scaling)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read configuration {path}: {exc}") from exc
    return Config.from_dict(raw)


# ---------------------------------------------------------------------------
# certificates


def build_certificate(config, cx, vmap, sol, report):
    C, D = vmap.bound_constants(sol.y)
    metric = vmap.metric_values(sol.y)
    return {
        "format": CERT_FORMAT,
        "config": config.raw,
        "n": cx.n,
        "k": cx.K,
        "t_period": _fmt(cx.T),
        "rho": _fmt(cx.rho),
        "scaling": [_fmt(s) for s in cx.scaling.diag],
        "n_slots": cx.n_slots,
        "n_simplices": cx.n_simplices,
        "slot_keys": [[int(v) for v in row] for row in cx.slot_keys],
        "slot_coordinates": [[_fmt(v) for v in row]
                             for row in cx.slot_coordinates()],
        "metric_upper": [[_fmt(v) for v in row] for row in metric],
        "constants": {"C": _fmt(C), "D": _fmt(D),
                      "epsilon0": _fmt(config.epsilon0)},
        "solver": {"status": sol.status, "iterations": int(sol.iterations),
                   "duality_gap": _fmt(sol.duality_gap),
                   "objective": _fmt(sol.objective),
                   "min_block_eig": _fmt(float(sol.block_min_eigs.min()))},
        "verification": report.to_dict(),
        "floquet_bound": _fmt(report.bound_from_C),
    }


def certificate_bytes(cert):
    return (json.dumps(cert, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def write_certificate(cert, path):
    with open(path, "wb") as fh:
        fh.write(certificate_bytes(cert))


def load_certificate(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read certificate {path}: {exc}") from exc
    if not isinstance(cert, dict) or cert.get("format") != CERT_FORMAT:
        raise InputError("not a recognized certificate file")
    return cert


def rebuild_from_certificate(cert):
    """Reconstruct the system, complex, and CPA metric of a certificate;
    it must name every rebuilt slot exactly once, with P metric entries."""
    config = Config.from_dict(cert["config"])
    sys0 = config.build_system()
    scaling = config.scaling_matrix(sys0.n)
    cx = build_complex(config.region, sys0.T, int(cert["k"]), scaling)
    if cx.n_slots != int(cert["n_slots"]):
        raise InputError("certificate slot count does not match the rebuilt "
                         "complex")
    P = cx.n * (cx.n + 1) // 2
    keys, rows = cert["slot_keys"], cert["metric_upper"]
    coords = cert.get("slot_coordinates")
    if (len(keys) != cx.n_slots or len(rows) != cx.n_slots
            or any(len(row) != P for row in rows)
            or coords is not None and len(coords) != cx.n_slots):
        raise InputError(f"certificate must list {cx.n_slots} slots with "
                         f"{P} metric entries each")
    key_to_idx = {tuple(int(v) for v in row): i
                  for i, row in enumerate(cx.slot_keys)}
    idx = [key_to_idx.get(tuple(int(v) for v in key)) for key in keys]
    if None in idx:
        raise InputError("certificate vertex keys do not match the "
                         "rebuilt complex")
    if len(set(idx)) != cx.n_slots:
        raise InputError("certificate lists a vertex key more than once")
    values = np.empty((cx.n_slots, P))
    values[idx] = [[float(v) for v in row] for row in rows]
    if coords is not None:
        stored = np.array([[float(v) for v in row] for row in coords])
        if not np.array_equal(stored, cx.slot_coordinates()[idx]):
            raise InputError("certificate vertex coordinates do not "
                             "match the rebuilt complex")
    cpa = CPAMetric(cx, values)
    return config, sys0, cx, cpa


# ---------------------------------------------------------------------------
# commands


def cmd_synthesize(config, out_path=None, progress=print):
    """Refinement loop; returns (exit code, certificate dict or None)."""
    try:
        sys0 = config.build_system()
        scaling = config.scaling_matrix(sys0.n)
    except (CpaError, ValueError) as exc:
        progress(f"input error: {exc}")
        return 3, None
    if out_path:  # an unwritable path fails here, before the first level
        existed = os.path.exists(out_path)
        if not existed or not stat.S_ISFIFO(os.stat(out_path).st_mode):
            open(out_path, "ab").close()  # a named pipe is left unopened
        if not existed:  # remove only the file this check made
            os.remove(os.path.realpath(out_path))
    last_ray = None
    for K in range(config.k_min, config.k_max + 1):
        t0 = time.time()
        try:
            cx = build_complex(config.region, sys0.T, K, scaling)
            problem, vmap = assemble(cx, sys0, config.epsilon0,
                                     uniform_cd=config.uniform_cd,
                                     objective=config.objective)
        except (CpaError, ValueError) as exc:
            progress(f"input error at K={K}: {exc}")
            return 3, None
        progress(f"K={K}: {cx.n_simplices} simplices, {cx.n_slots} slots, "
                 f"{problem.m} variables")
        sol = solve(problem, config.solver)
        plan = ", ".join(f"{k} {v}" for k, v in sol.schur.items())
        progress(f"K={K}: solver {sol.status} after {sol.iterations} "
                 f"iterations ({time.time() - t0:.1f}s; Schur plan {plan})")
        if sol.status in ("Feasible", "Optimal"):
            C, D = vmap.bound_constants(sol.y)
            cpa = CPAMetric.from_solution(cx, sol.y, vmap)
            report = verify_contraction_sampled(
                cpa, sys0, C, D,
                samples=config.verify_samples, seed=config.verify_seed,
                tol=config.verify_tol, eps0=config.epsilon0)
            report.attach_interpolation_check(cpa, sys0,
                                              seed=config.verify_seed)
            report.attach_boundary_check(cx, sys0, seed=config.verify_seed)
            cert = build_certificate(config, cx, vmap, sol, report)
            if out_path:
                write_certificate(cert, out_path)
                progress(f"certificate written to {out_path}")
            progress(f"verification {'PASS' if report.passed else 'FAIL'}: "
                     f"max lambda_max = {report.max_lambda_max:.6e}, "
                     f"Floquet bound {report.bound_from_C:.6f}")
            return (0 if report.passed else 2), cert
        if sol.status == "NumericalFailure":
            progress(f"numerical failure at K={K}: {sol.notes}")
            return 4, None
        if sol.status == "Infeasible":
            last_ray = sol.dual_ray
            if last_ray is not None:
                progress(
                    f"K={K} infeasible: dual ray with <F0,Z>="
                    f"{last_ray['objective']:.3e}, eq residual "
                    f"{last_ray['eq_residual']:.2e}; refining")
        else:
            progress(f"K={K}: {sol.status}; refining")
    progress(f"no feasible level up to K={config.k_max}; the region may be "
             "too large, outside the basin, or the mesh still too coarse")
    return 1, None


def cmd_verify(cert_path, samples=None, seed=None, tol=None, progress=print,
               csv_path=None, report_path=None):
    try:
        cert = load_certificate(cert_path)
        config, sys0, _, cpa = rebuild_from_certificate(cert)
        constants = cert["constants"]
        C, D = float(constants["C"]), float(constants["D"])
        if not (np.isfinite(C) and np.isfinite(D) and C > 0.0):
            raise InputError("constants C and D must be finite, C positive")
        # eps0 is the configuration's, which from_dict checked is positive
        if float(constants["epsilon0"]) != config.epsilon0:
            raise InputError("constants.epsilon0 differs from the "
                             "configuration's epsilon0")
        bound = float(cert["floquet_bound"])
    except (CpaError, KeyError, TypeError, ValueError) as exc:
        progress(f"bad certificate: {exc}")
        return 3
    try:
        report = verify_contraction_sampled(
            cpa, sys0, C, D,
            samples=samples if samples is not None else config.verify_samples,
            seed=seed if seed is not None else config.verify_seed,
            tol=tol if tol is not None else config.verify_tol,
            eps0=config.epsilon0, csv_path=csv_path)
    except (np.linalg.LinAlgError, NonFiniteStateError, FloatingPointError):
        progress("numerical failure during verification")
        return 4
    except CpaError as exc:
        progress(f"input error: {exc}")
        return 3
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
    progress(f"max lambda_max = {report.max_lambda_max:.6e} "
             f"(pass requires <= -1 + {report.tol:g})")
    progress(f"max L_M = {report.max_lm:.6e} vs bound {report.bound_from_C:.6e}")
    # the bound must be the -1/(2C) that C proves, as `build_certificate`
    # writes it; a NaN bound differs too
    if bound != report.bound_from_C:
        progress(f"BOUND MISMATCH: floquet_bound {bound!r} is not "
                 f"-1/(2C) = {report.bound_from_C!r}")
    passed = report.passed and bound == report.bound_from_C
    progress(f"verification {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


def cmd_floquet(config, cert_path=None, tol=1e-6, steps=8192, progress=print,
                csv_path=None):
    try:
        sys0 = config.build_system()
        if config.orbit_guess is not None:
            guess = np.asarray(config.orbit_guess, dtype=float).reshape(-1)
            if guess.shape != (sys0.n,):
                raise InputError(f"orbit_guess must have {sys0.n} entries")
        else:
            boxes = normalize_region(config.region)
            lo = np.min([b[:, 0] for b in boxes], axis=0)
            hi = np.max([b[:, 1] for b in boxes], axis=0)
            guess = 0.5 * (lo + hi)
    except (CpaError, TypeError, ValueError) as exc:
        progress(f"input error: {exc}")
        return 3
    try:
        result = find_periodic_orbit(sys0, guess, steps=steps)
    except NoConvergenceError as exc:
        progress(f"oracle failure: {exc}")
        return 4
    if csv_path is not None:
        integrate(sys0, 0.0, result.x_star, sys0.T, steps).write_csv(csv_path)
    progress(f"periodic point x* = {np.array2string(result.x_star, precision=10)}"
             f" (residual {result.residual:.2e})")
    progress("floquet exponents (real parts): "
             + " ".join(f"{e:.8f}" for e in result.exponents))
    if cert_path is None:
        return 0
    try:
        cert = load_certificate(cert_path)
        bound = float(cert["floquet_bound"])
    except (InputError, KeyError, TypeError, ValueError) as exc:
        progress(f"bad certificate: {exc}")
        return 3
    worst = float(result.exponents.max())
    progress(f"certificate bound: {bound:.8f} (must be >= {worst:.8f} - tol)")
    if not bound >= worst - tol:  # a NaN bound fails too
        progress("BOUND VIOLATION: certificate bound below the true exponent")
        return 2
    progress("bound consistent with the oracle")
    return 0


def cmd_export_sdpa(config, K, out_path, import_y=None, tol=1e-6,
                    progress=print):
    try:
        sys0 = config.build_system()
        scaling = config.scaling_matrix(sys0.n)
        cx = build_complex(config.region, sys0.T, K, scaling)
        problem, _ = assemble(cx, sys0, config.epsilon0,
                              uniform_cd=config.uniform_cd,
                              objective=config.objective)
    except (CpaError, ValueError) as exc:
        progress(f"input error: {exc}")
        return 3
    text = export_sdpa(problem)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    progress(f"wrote {out_path}: m={problem.m}, {problem.n_blocks} blocks")
    if import_y is None:
        return 0
    try:
        y = np.loadtxt(import_y, dtype=float).reshape(-1)
    except (OSError, ValueError) as exc:
        progress(f"cannot read y vector: {exc}")
        return 3
    if y.shape != (problem.m,):
        progress(f"imported y has {y.size} entries, expected {problem.m}")
        return 3
    rep = certify(problem, y, tol)
    progress(f"certify: min block eigenvalue {rep.min_eigs.min():.3e}, "
             f"{len(rep.flagged)} flagged at tol {tol:g}")
    return 0 if rep.clean else 2


def cmd_check_complex(config, K, progress=print):
    try:
        sys0 = config.build_system()
        scaling = config.scaling_matrix(sys0.n)
        cx = build_complex(config.region, sys0.T, K, scaling)
    except (CpaError, ValueError) as exc:
        progress(f"input error: {exc}")
        return 3
    report = check_complex(cx)
    progress(f"{cx.n_simplices} simplices, {cx.n_vertices} vertices, "
             f"{cx.n_slots} slots; {report.pairs_checked} pairs checked")
    progress(f"face violations: {len(report.face_violations)}; duplicates: "
             f"{len(report.duplicate_simplices)}; unpaired: "
             f"{len(report.unpaired_vertices)}; cover "
             f"{'ok' if report.cover_ok else 'FAILED'}")
    return 0 if report.ok else 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cpacontract",
        description="CPA contraction metrics for time-periodic ODEs via "
                    "semidefinite optimization")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="run the refinement loop and "
                           "emit a certificate")
    p_syn.add_argument("--config", required=True)
    p_syn.add_argument("--out", default=None)
    p_syn.add_argument("--max-k", type=int, default=None)

    p_ver = sub.add_parser("verify", help="re-verify a certificate")
    p_ver.add_argument("certificate")
    p_ver.add_argument("--samples", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--csv", default=None,
                       help="dump sampled (t, x.., lambda_max, L_M) rows")
    p_ver.add_argument("--out", default=None,
                       help="write the verification report as JSON")

    p_flo = sub.add_parser("floquet", help="compare against the monodromy "
                           "oracle")
    p_flo.add_argument("--config", required=True)
    p_flo.add_argument("--cert", default=None)
    p_flo.add_argument("--tol", type=float, default=1e-6)
    p_flo.add_argument("--csv", default=None,
                       help="dump the located orbit as (t, x..) rows")

    p_exp = sub.add_parser("export-sdpa", help="export the SDP in sparse "
                           "SDPA format")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--k", type=int, required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--import-y", default=None)
    p_exp.add_argument("--tol", type=float, default=1e-6)

    p_chk = sub.add_parser("check-complex", help="validate the triangulation")
    p_chk.add_argument("--config", required=True)
    p_chk.add_argument("--k", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "synthesize":
            config = load_config(args.config)
            if args.max_k is not None:
                config = Config.from_dict(dict(config.raw, k_max=args.max_k))
            return cmd_synthesize(config, out_path=args.out)[0]
        if args.command == "verify":
            return cmd_verify(args.certificate, args.samples, args.seed,
                              args.tol, csv_path=args.csv,
                              report_path=args.out)
        if args.command == "floquet":
            return cmd_floquet(load_config(args.config), args.cert, args.tol,
                               csv_path=args.csv)
        if args.command == "export-sdpa":
            return cmd_export_sdpa(load_config(args.config), args.k, args.out,
                                   import_y=args.import_y, tol=args.tol)
        if args.command == "check-complex":
            return cmd_check_complex(load_config(args.config), args.k)
    except InputError as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write output: {exc}", file=_sys.stderr)
        return 3
    return 3


if __name__ == "__main__":
    _sys.exit(main())
