"""Span tracing of cpacontract from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
`TARGETS` with wrappers that record one span per call: name, start, end,
parent span and operation id. The package itself is not modified; every
module attribute that refers to a wrapped function (including names
imported with ``from .x import y``) is swapped, and `uninstall()` puts the
originals back. Spans stay in memory until `write()` saves them.

A span's layer is the part of its name before the first dot. The layers
are the package's modules, with two choices made here: the operation's
root span ("cli.op") belongs to the cli layer, and rebuilding a metric
from a certificate counts as verify work, because it is the certificate
consumer's first step.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "triangulation", "assembly", "solver", "verify", "orbits",
          "systems")


def _tally_build(counts, args, kwargs, result, seconds):
    counts["simplices"] = max(counts["simplices"], result.n_simplices)


def _tally_assemble(counts, args, kwargs, result, seconds):
    problem = result[0]
    counts["m"] = max(counts["m"], problem.m)
    counts["blocks"] = max(counts["blocks"], problem.n_blocks)


def _tally_solve(counts, args, kwargs, result, seconds):
    counts["iterations"] += result.iterations
    if result.status == "Infeasible":
        counts["infeasible_s"] += seconds


def _tally_sampled(counts, args, kwargs, result, seconds):
    counts["samples"] += result.samples


def _tally_f_many(counts, args, kwargs, result, seconds):
    counts["f_many_points"] += len(result)


def _tally_jacobian_many(counts, args, kwargs, result, seconds):
    counts["jacobian_many_points"] += len(result)


# (module, attribute path, span name, tally or None)
TARGETS = (
    ("cli", "cmd_synthesize", "cli.synthesize", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_floquet", "cli.floquet", None),
    ("cli", "build_certificate", "cli.certificate", None),
    ("cli", "write_certificate", "cli.certificate", None),
    ("cli", "rebuild_from_certificate", "verify.rebuild", None),
    ("triangulation", "build_complex", "triangulation.build", _tally_build),
    ("triangulation", "SimplicialComplex.containing", "triangulation.locate",
     None),
    ("assembly", "assemble", "assembly.assemble", _tally_assemble),
    ("assembly", "ensure_derivative_bounds", "assembly.bounds", None),
    ("solver", "solve", "solver.solve", _tally_solve),
    ("verify", "verify_contraction_sampled", "verify.sampled",
     _tally_sampled),
    ("verify", "VerificationReport.attach_interpolation_check",
     "verify.interp", None),
    ("verify", "VerificationReport.attach_boundary_check", "verify.boundary",
     None),
    ("orbits", "find_periodic_orbit", "orbits.find_orbit", None),
    ("orbits", "monodromy", "orbits.monodromy", None),
    ("orbits", "contraction_probe", "orbits.probe", None),
    ("systems", "SystemDefinition.f", "systems.f", None),
    ("systems", "SystemDefinition.f_many", "systems.f_many", _tally_f_many),
    ("systems", "SystemDefinition.jacobian", "systems.jacobian", None),
    ("systems", "SystemDefinition.jacobian_many", "systems.jacobian_many",
     _tally_jacobian_many),
)

ROOT = "cli.op"


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.names = [ROOT]
        self.spans = []            # (name id, start, end, parent, op id)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack = [-1]
        self._patched = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name, tally=None):
        """Return `fn` wrapped so that each call records a span."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op)
            if tally is not None:
                tally(self.counts[self.op], args, kwargs, result, t1 - t0)
            return result

        return traced

    def run_op(self, op_id, fn):
        """Run one operation under a root span and return its result."""
        self.op = op_id
        try:
            return self.wrap(fn, ROOT)()
        finally:
            self.op = -1

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cpacontract" or name.startswith("cpacontract.")]
        for mod_name, path, span_name, tally in TARGETS:
            owner = importlib.import_module(f"cpacontract.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(original, span_name, tally)
            holders = [owner] if outer else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def arrays(self):
        """Spans as columns: name id, start, end, parent index, op id."""
        nid, t0, t1, parent, op = zip(*self.spans)
        return (np.array(nid), np.array(t0), np.array(t1), np.array(parent),
                np.array(op))

    def write(self, path):
        nid, t0, t1, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            start=t0, end=t1, parent=parent, op=op)

    def op_metrics(self):
        """Per-layer metrics for each traced operation, keyed by op id."""
        nid, t0, t1, parent, op = self.arrays()
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        span_name = np.array(self.names)[nid]
        span_layer = np.array([n.split(".")[0] for n in self.names])[nid]
        parent_layer = np.where(has_parent,
                                span_layer[np.maximum(parent, 0)], "")
        out = {}
        for o in sorted(set(op.tolist())):
            sel = op == o

            def total(name, sel=sel):
                return float(dur[sel & (span_name == name)].sum())

            def calls(name, sel=sel):
                return float(np.count_nonzero(sel & (span_name == name)))

            c = self.counts[o]
            iterations = c["iterations"]
            solve_s = total("solver.solve")
            sampled_s = total("verify.sampled")
            outer_systems = sel & (span_layer == "systems") & (
                parent_layer != "systems")
            m = {
                "triangulation.build_s": total("triangulation.build"),
                "triangulation.simplices": c["simplices"],
                "triangulation.locate_calls": calls("triangulation.locate"),
                "triangulation.locate_s": total("triangulation.locate"),
                "assembly.assemble_s": total("assembly.assemble"),
                "assembly.bounds_s": total("assembly.bounds"),
                "assembly.m": c["m"],
                "assembly.blocks": c["blocks"],
                "solver.solve_s": solve_s,
                "solver.s_per_iter": (solve_s / iterations if iterations
                                      else 0.0),
                "solver.iterations": iterations,
                "solver.infeasible_s": c["infeasible_s"],
                "solver.levels": calls("solver.solve"),
                "verify.sampled_s": sampled_s,
                "verify.samples_per_s": (c["samples"] / sampled_s
                                         if sampled_s else 0.0),
                "verify.boundary_s": total("verify.boundary"),
                "verify.interp_s": total("verify.interp"),
                "verify.rebuild_s": total("verify.rebuild"),
                "orbits.find_orbit_s": total("orbits.find_orbit"),
                "orbits.monodromy_s": total("orbits.monodromy"),
                "orbits.probe_s": total("orbits.probe"),
                "systems.f_calls": (calls("systems.f")
                                    + calls("systems.f_many")),
                "systems.f_points": calls("systems.f") + c["f_many_points"],
                "systems.jacobian_calls": (calls("systems.jacobian")
                                           + calls("systems.jacobian_many")),
                "systems.jacobian_points": (calls("systems.jacobian")
                                            + c["jacobian_many_points"]),
                "systems.eval_s": float(dur[outer_systems].sum()),
                "cli.certificate_s": total("cli.certificate"),
                "trace.wall_s": total(ROOT),
                "trace.spans": float(np.count_nonzero(sel)),
            }
            for layer in LAYERS:
                m[f"{layer}.self_s"] = float(own[sel & (span_layer == layer)]
                                             .sum())
            out[o] = m
        return out
