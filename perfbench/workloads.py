"""The benchmark's workloads: inputs made from a seed, one operation each,
and the check of every operation's answer.

Every workload calls the package only through its public entry points
(`cli.cmd_synthesize`, `cli.cmd_verify`, `cli.cmd_floquet`,
`orbits.contraction_probe`), looked up on the module at call time so that
the tracer's wrappers are seen.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, replace

import numpy as np

from cpacontract import assembly, cli, orbits, triangulation

# The largest Floquet exponent of all three systems is -1 analytically, so
# a certified upper bound below this is wrong.
BOUND_FLOOR = -1.0 - 1e-6
GROWTH_TOL = 1e-6
PROBES = 20
PROBE_STEPS = 2000

# Criterion-1 configuration of tests/test_acceptance.py.
SYNTH_1D = {
    "system": "dim=1; period=6.283185307179586; f1 = -x1 + sin(t)",
    "region": [[[-2.0, 1.0]]],
    "epsilon0": 0.01,
    "smoothness": "C2",
    "k_min": 0,
    "k_max": 8,
    "mode": {"uniform_cd": True, "objective": "min_c"},
    "verify": {"samples": 100000, "seed": 12345, "tol": 1e-6},
}

# Criterion-2 configuration of tests/test_acceptance.py on half the side
# length: the same system, scaling and level (K=6, so the same mesh width),
# on a quarter of the area. The full region takes ~100 s and 3.3 GB per
# operation, more than one benchmark run may spend; this one still takes
# the banded Schur path (m = 9,410, RCM bandwidth 569).
SYNTH_2D = {
    "system": ("dim=2; period=6.283185307179586; smoothness=c3; "
               "f1 = x2; f2 = -x1 - 2*x2 + sin(t)"),
    "region": [[[-0.2502, 0.2502], [-0.2502, 0.2502]]],
    "scaling": [0.853, 0.853],
    "epsilon0": 0.01,
    "k_min": 6,
    "k_max": 7,
    "mode": {"uniform_cd": True, "objective": "none"},
    "verify": {"samples": 120000, "seed": 12345, "tol": 1e-6},
}

SYNTH_3D = {
    "system": ("dim=3; period=1; smoothness=c3; "
               "f1 = -x1 + 1.5*x2 + 0.2*x2*x3; "
               "f2 = -x2 + 1.5*x3 - 0.2*x1*x3; "
               "f3 = -x3 + 0.2*x1*x2"),
    "region": [[[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]]],
    "epsilon0": 0.01,
    "k_min": 0,
    "k_max": 2,
    "mode": {"uniform_cd": True, "objective": "min_c"},
    "verify": {"samples": 100000, "seed": 12345, "tol": 1e-6},
}


def _quiet(*args, **kwargs):
    pass


def seeded_config(config, seed):
    """The workload's configuration with its sampling seed set to `seed`."""
    out = copy.deepcopy(config)
    out["verify"]["seed"] = int(seed)
    return out


def certificate_answer(code, cert):
    """The answer fields of a synthesis: exit code plus the certificate's
    status, level, iterations, strict margin, C, D, bound and verdict."""
    rec = {"exit_code": int(code)}
    if cert is not None:
        rec.update(
            status=cert["solver"]["status"],
            k=int(cert["k"]),
            iterations=int(cert["solver"]["iterations"]),
            margin=float(cert["solver"]["min_block_eig"]),
            C=float(cert["constants"]["C"]),
            D=float(cert["constants"]["D"]),
            floquet_bound=float(cert["floquet_bound"]),
            passed=bool(cert["verification"]["passed"]),
            max_lambda_max=float(cert["verification"]["max_lambda_max"]),
        )
    return rec


def synthesis_failures(rec, expected_k):
    """Reasons why a synthesis answer is wrong; empty when it is right."""
    out = []
    if rec["exit_code"] != 0:
        out.append(f"exit code {rec['exit_code']}")
    if "k" not in rec:
        return out + ["no certificate"]
    if rec["k"] != expected_k:
        out.append(f"level {rec['k']} != {expected_k}")
    if not rec["passed"]:
        out.append("verification failed")
    if not rec["floquet_bound"] >= BOUND_FLOOR:
        out.append(f"bound {rec['floquet_bound']} below the exponent -1")
    return out


def recheck_failures(rec):
    """Reasons why a certificate re-check is wrong; empty when it is right."""
    out = []
    if rec["verify_code"] != 0:
        out.append(f"verify exit code {rec['verify_code']}")
    if rec["floquet_code"] != 0:
        out.append(f"floquet exit code {rec['floquet_code']}")
    if not rec["max_growth"] <= GROWTH_TOL:
        out.append(f"probe growth {rec['max_growth']:.3e} > {GROWTH_TOL}")
    return out


def perturbed_certificate(src, dst, factor=1.1):
    """Copy the certificate at `src` to `dst` with the metric value of its
    middle vertex slot scaled by `factor`."""
    cert = cli.load_certificate(src)
    row = cert["metric_upper"][len(cert["metric_upper"]) // 2]
    row[0] = format(float(row[0]) * factor, ".17g")
    cli.write_certificate(cert, dst)


@dataclass(frozen=True)
class Synthesis:
    """cmd_synthesize on one configuration; the answer must certify at
    `expected_k`."""
    name: str
    config: dict
    expected_k: int

    def setup(self, seed, workdir):
        path = os.path.join(workdir, f"{self.name}-s{seed}.cert.json")
        return {"config": cli.Config.from_dict(seeded_config(self.config,
                                                             seed)),
                "path": path}

    def run(self, state):
        code, cert = cli.cmd_synthesize(state["config"],
                                        out_path=state["path"],
                                        progress=_quiet)
        return certificate_answer(code, cert)

    def failures(self, rec):
        return synthesis_failures(rec, self.expected_k)

    def negative_controls(self, state, rec):
        """The check must reject a correct answer against a level that is
        off by one."""
        wrong = replace(self, expected_k=self.expected_k + 1)
        return {"level_off_by_one": bool(wrong.failures(rec))}


@dataclass(frozen=True)
class Recheck:
    """The certificate consumer's side: verify a criterion-1 certificate,
    compare its bound with the Floquet oracle, and probe contraction of
    nearby trajectories in its metric."""
    name: str
    expected_k: int = 5

    def setup(self, seed, workdir):
        config = seeded_config(SYNTH_1D, seed)
        path = os.path.join(workdir, f"{self.name}-s{seed}.cert.json")
        code, cert = cli.cmd_synthesize(cli.Config.from_dict(config),
                                        out_path=path, progress=_quiet)
        answer = certificate_answer(code, cert)
        rng = np.random.default_rng(seed)
        probes = [(float(rng.uniform(-1.5, 0.6)),
                   float(rng.choice([-1e-3, 1e-3]))) for _ in range(PROBES)]
        return {"config": config, "path": path, "answer": answer,
                "probes": probes}

    def run(self, state):
        path = state["path"]
        verify_code = cli.cmd_verify(path, progress=_quiet)
        floquet_code = cli.cmd_floquet(cli.Config.from_dict(state["config"]),
                                       path, progress=_quiet)
        _, sys0, _, cpa = cli.rebuild_from_certificate(
            cli.load_certificate(path))
        growth = -np.inf
        for x0, off in state["probes"]:
            d = orbits.contraction_probe(cpa, sys0, [x0], [off], sys0.T,
                                         PROBE_STEPS)
            growth = max(growth, float((np.diff(d) / d[0]).max()))
        return dict(state["answer"], passed=verify_code == 0,
                    verify_code=int(verify_code),
                    floquet_code=int(floquet_code), max_growth=growth)

    def failures(self, rec):
        return (synthesis_failures(rec, self.expected_k)
                + recheck_failures(rec))

    def negative_controls(self, state, rec):
        """The check must reject a correct answer against a level that is
        off by one, and a re-check of the certificate with one metric value
        perturbed by 10%."""
        wrong = replace(self, expected_k=self.expected_k + 1)
        bad = state["path"].replace(".cert.json", ".perturbed.cert.json")
        perturbed_certificate(state["path"], bad)
        rechecked = dict(rec, verify_code=int(cli.cmd_verify(
            bad, progress=_quiet)))
        return {"level_off_by_one": bool(wrong.failures(rec)),
                "perturbed_metric": bool(self.failures(rechecked))}


WORKLOADS = {w.name: w for w in (
    Synthesis("synth-1d", SYNTH_1D, expected_k=5),
    Synthesis("synth-2d", SYNTH_2D, expected_k=6),
    Synthesis("synth-3d", SYNTH_3D, expected_k=0),
    Recheck("recheck-1d"),
)}


def mesh_size(cert_path):
    """Mesh and SDP size at a certificate's level: simplices, slots, m and
    blocks."""
    cert = cli.load_certificate(cert_path)
    config = cli.Config.from_dict(cert["config"])
    sys0 = config.build_system()
    cx = triangulation.build_complex(config.region, sys0.T, int(cert["k"]),
                                     config.scaling_matrix(sys0.n))
    problem, _ = assembly.assemble(cx, sys0, config.epsilon0,
                                   uniform_cd=config.uniform_cd,
                                   objective=config.objective)
    return {"k": int(cert["k"]), "simplices": cx.n_simplices,
            "slots": cx.n_slots, "m": problem.m, "blocks": problem.n_blocks}
