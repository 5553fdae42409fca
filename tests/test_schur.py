"""The Schur complement of the interior-point solver: the fixed-pattern
assembly against a sparse reference, the mesh-derived variable order, the
ridge and its retry, and the answers of the banded path on the 1-D and
2-D meshes."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from cpacontract import solver
from cpacontract.assembly import assemble
from cpacontract.cli import Config, cmd_synthesize
from cpacontract.solver import (
    SolverSettings,
    _SchurPlan,
    _Segments,
    _svec_congruence,
    solve,
)
from cpacontract.triangulation import build_complex

from reference import svec, unsvec
from test_solver import random_feasible_problem

# The criterion-1 system and region, and a 3-D field, as the benchmark's
# synth-1d (at K=5) and synth-3d (at K=0) workloads run them.
SYNTH_1D_CONFIG = {
    "system": "dim=1; period=6.283185307179586; f1 = -x1 + sin(t)",
    "region": [[[-2.0, 1.0]]],
    "epsilon0": 0.01,
    "smoothness": "C2",
}
SYNTH_3D_CONFIG = {
    "system": ("dim=3; period=1; smoothness=c3; "
               "f1 = -x1 + 1.5*x2 + 0.2*x2*x3; "
               "f2 = -x2 + 1.5*x3 - 0.2*x1*x3; "
               "f3 = -x3 + 0.2*x1*x2"),
    "region": [[[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]]],
    "epsilon0": 0.01,
}

# The 2-D oscillator of criterion 2 at K=6 on a quarter of its region.
OSC_2D_CONFIG = {
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


def _mesh_problem(sys, region, K, uniform, objective, scaling=None):
    cx = build_complex(region, sys.T, K, scaling)
    return assemble(cx, sys, 0.01, uniform_cd=uniform, objective=objective)


def _random_scalings(segs, rng):
    """Scalings per cone: d > 0 of the linear cone and a random,
    non-symmetric, nonsingular factor F of each matrix cone."""
    out = []
    for _, k, cnt, _ in segs.seg_slices():
        if k == 1:
            out.append(rng.uniform(0.2, 3.0, cnt))
        else:
            out.append(rng.normal(size=(cnt, k, k)) + 2.0 * np.eye(k))
    return out


def _plan_weights(scalings):
    """The plan's weights: d of the linear cone, the svec map P of each
    matrix cone's F."""
    return [w if w.ndim == 1 else _svec_congruence(
        np.moveaxis(w, 0, -1)).transpose(2, 0, 1) for w in scalings]


def _dense_inverse_scalings(weights):
    """W^-1 per block, dense: sqrt(d) of a scalar block, so that W^-1 x
    W^-1 = d x, and F^T F of a matrix block."""
    return [np.sqrt(w)[:, None, None] if w.ndim == 1
            else np.swapaxes(w, 1, 2) @ w for w in weights]


def _reference_gram(segs, Wi, A_aug):
    """A^T blockdiag(P) A with P_pq = tr(E_p W^-1 E_q W^-1) for the svec
    basis E, block by block."""
    ops = []
    for (_, k, _, _), w in zip(segs.seg_slices(), Wi):
        E = unsvec(np.eye(k * (k + 1) // 2), k)
        ops.extend(np.einsum("pij,njk,qkl,nli->npq", E, w, E, w))
    P = sp.block_diag(ops, format="csr")
    return (A_aug.T @ P @ A_aug).toarray()


def _stored_to_dense(plan, buf, tau):
    """The full symmetric G, in variable order, from the plan's storage."""
    m1 = plan.m + 1
    low = np.zeros((m1, m1))
    ab = plan.band(buf)
    for d in range(plan.bandwidth + 1):
        j = np.arange(plan.ns - d)
        low[j + d, j] = ab[d, j]
    rows = buf[plan.row0:].reshape(plan.nb, m1)
    for r in range(plan.nb):
        low[plan.ns + r, :plan.ns + r + 1] = rows[r, :plan.ns + r + 1]
    full = low + np.tril(low, -1).T
    full = full[np.ix_(plan.pos, plan.pos)]
    return full if tau else full[:plan.m, :plan.m]


def _plan(problem, kind):
    """The dense plan (no order), or the banded plan in the mesh's order,
    the identity for a problem without one."""
    segs = _Segments(problem)
    if kind == "dense":
        return segs, _SchurPlan(segs)
    order = problem.schur_order
    return segs, _SchurPlan(segs, np.arange(problem.m) if order is None
                            else order, problem.schur_border)


def _tau_column(segs):
    """The phase-1 tau column svec(I) of every block, as a sparse column."""
    return sp.csc_matrix(np.concatenate([
        np.tile(svec(np.eye(k)), cnt) for _, k, cnt, _ in segs.seg_slices()
    ])[:, None])


def _augmented(segs):
    """A with the phase-1 tau column stacked on."""
    return sp.hstack([segs.A, _tau_column(segs)], format="csr")


def _check_against_reference(problem, seed, kind):
    rng = np.random.default_rng(seed)
    segs, plan = _plan(problem, kind)
    assert plan.info["kind"] == kind
    # frames hold the blocks of one matrix cone; scalar blocks keep no rows
    for cls in plan.classes:
        assert cls["svdim"] > 1
        assert cls["C"].shape[1] == cls["cnt"] * cls["svdim"]
    scalings = _random_scalings(segs, rng)
    weights = _plan_weights(scalings)
    Wi = _dense_inverse_scalings(scalings)
    A_aug = _augmented(segs)
    ref = _reference_gram(segs, Wi, A_aug)
    scale = np.abs(ref).max()
    tau_col = A_aug.T @ np.concatenate([svec(w @ w).ravel() for w in Wi])
    G1 = _stored_to_dense(plan, plan.form(weights, tau_col), tau=True)
    assert np.abs(G1 - ref).max() <= 1e-12 * scale
    G2 = _stored_to_dense(plan, plan.form(weights), tau=False)
    assert np.abs(G2 - ref[:-1, :-1]).max() <= 1e-12 * scale
    # the factorization solves with that matrix, in both phases
    for tau, G in ((True, ref), (False, ref[:-1, :-1])):
        r = rng.normal(size=len(G))
        x = plan.factor(weights, tau_col if tau else None)(r)
        assert np.abs(G @ x - r).max() <= 1e-10 * scale * np.abs(x).max()
    return plan


@pytest.fixture(params=["dense", "banded"])
def plan_kind(request):
    return request.param


class TestScatterAssembly:
    def test_uniform_2d_mesh(self, osc_2d, plan_kind):
        problem, _ = _mesh_problem(osc_2d, [[[-0.5, 0.5], [-0.5, 0.5]]], 2,
                                   True, "min_c")
        _check_against_reference(problem, 0, plan_kind)

    def test_per_simplex_min_c(self, linear_1d, osc_2d, plan_kind):
        for sys, region in ((linear_1d, [[[-2.0, 1.0]]]),
                            (osc_2d, [[[-0.5, 0.5], [-0.5, 0.5]]])):
            problem, _ = _mesh_problem(sys, region, 1, False, "min_c")
            _check_against_reference(problem, 1, plan_kind)

    def test_level_zero_repeats_slots(self, linear_1d, plan_kind):
        # at K=0 the t=0 and t=T copies of a vertex share one slot, so a
        # simplex reads fewer distinct slots than it has vertices
        problem, _ = _mesh_problem(linear_1d, [[[-2.0, 1.0]]], 0, True,
                                   "none")
        _check_against_reference(problem, 2, plan_kind)

    def test_gradient_bound_pairs(self, linear_1d, osc_2d, plan_kind):
        # the linear cone's part of G alone, sum_r d_r a_r a_r^T, on the
        # +- pairs of grad_bound rows (D/(n+1) +- w) at n = 1 and n = 2
        for sys, region in ((linear_1d, [[[-2.0, 1.0]]]),
                            (osc_2d, [[[-0.5, 0.5], [-0.5, 0.5]]])):
            problem, _ = _mesh_problem(sys, region, 1, True, "none")
            g = next(g for g in problem.groups if g.family == "grad_bound")
            rows = problem.A[g.rows]
            plus, minus = rows[0::2], rows[1::2]
            assert np.array_equal(plus.indptr, minus.indptr)
            assert np.array_equal(plus.indices, minus.indices)
            # one equal entry per pair, the D column; the w entries negated
            same = plus.data == minus.data
            assert (same | (plus.data == -minus.data)).all()
            assert (np.add.reduceat(same.astype(int), plus.indptr[:-1])
                    == 1).all()
            segs, plan = _plan(problem, plan_kind)
            assert segs.sizes[0] == 1
            d = np.random.default_rng(8).uniform(0.2, 3.0, segs.counts[0])
            weights = [d] + [np.zeros((cnt, k * (k + 1) // 2,
                                       k * (k + 1) // 2))
                             for _, k, cnt, _ in segs.seg_slices() if k > 1]
            A_lin = segs.A[segs.rows[0]]
            ref = (A_lin.T @ sp.diags(d) @ A_lin).toarray()
            G = _stored_to_dense(plan, plan.form(weights), tau=False)
            assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_random_suite(self, plan_kind):
        rng = np.random.default_rng(2024)
        for trial in range(8):
            problem, _ = random_feasible_problem(rng)
            assert problem.schur_order is None
            _check_against_reference(problem, trial, plan_kind)


class TestChunkedFormation:
    """`form` runs each frame class in chunks of at most `_FRAME_CHUNK`
    frames, rebuilds a chunk's dense local rows from A's entries and adds
    its lower triangles into G's buffer: the buffer keeps the bits of one
    batch per class and one bincount over all the terms."""

    @staticmethod
    def _local_rows(A, cls):
        """The dense local rows (blocks, svdim, width) of all the class's
        frames, from A's rows frame by frame: a frame's local columns are
        the sorted distinct variables of its rows."""
        cnt, d, w = cls["cnt"], cls["svdim"], cls["width"]
        out = np.zeros((len(cls["sel"]), d, w))
        for j in range(cls["frames"]):
            blocks = cls["sel"][j * cnt:(j + 1) * cnt]
            rows = A[(cls["row0"] + blocks[:, None] * d
                      + np.arange(d)).ravel()]
            cols = np.unique(rows.indices)
            assert len(cols) == w
            out[j * cnt:(j + 1) * cnt] = rows[:, cols].toarray().reshape(
                cnt, d, w)
        return out

    def _one_batch(self, plan, weights):
        """G's buffer from each class in one batch and one bincount over
        all the lower-triangle terms."""
        terms = []
        for cls in plan.classes:
            nf, w, cnt, d = (cls["frames"], cls["width"], cls["cnt"],
                             cls["svdim"])
            C = np.matmul(weights[cls["cone"]][cls["sel"]].reshape(
                nf, cnt, d, d), self._local_rows(plan.A, cls).reshape(
                nf, cnt, d, w)).reshape(nf, cnt * d, w)
            G = np.matmul(C.transpose(0, 2, 1), C)
            terms.append(G.reshape(nf, w * w)[:, cls["lower"]].ravel())
        buf = np.bincount(plan.targets, weights=np.concatenate(terms),
                          minlength=plan.size)
        if plan.K is not None:
            buf[plan.lp_targets] += plan.K @ weights[0]
        return buf

    @pytest.mark.parametrize("uniform", [True, False])
    def test_chunks_give_the_one_batch_bytes(self, osc_2d, uniform,
                                             monkeypatch):
        problem, _ = _mesh_problem(osc_2d, [[[-0.5, 0.5], [-0.5, 0.5]]], 2,
                                   uniform, "min_c")
        segs = _Segments(problem)
        weights = _plan_weights(_random_scalings(segs,
                                                 np.random.default_rng(6)))
        frames = [cls["frames"] for cls in _plan(problem, "banded")[1].classes]
        assert any(nf > 7 and nf % 7 for nf in frames)
        for chunk in (1, 7, max(frames)):
            monkeypatch.setattr(solver, "_FRAME_CHUNK", chunk)
            _, plan = _plan(problem, "banded")
            for cls, nf in zip(plan.classes, frames):
                assert cls["frames"] == nf
                assert len(cls["C"]) == len(cls["G"]) == min(nf, chunk)
                assert len(cls["rows"]) == min(nf, chunk) * cls["cnt"]
                assert len(cls["spans"]) == -(-nf // chunk) + 1
            assert plan.form(weights).tobytes() == self._one_batch(
                plan, weights).tobytes()

    @pytest.mark.parametrize("uniform", [True, False])
    def test_set_up_chunks_give_the_same_plan(self, osc_2d, uniform,
                                              monkeypatch):
        # the set-up builds the targets and K in chunks of frames and of
        # the scalar rows' pairs; the plan does not depend on their size
        problem, _ = _mesh_problem(osc_2d, [[[-0.5, 0.5], [-0.5, 0.5]]], 2,
                                   uniform, "min_c")
        plans = []
        for frames, pairs in ((10**9, 10**9), (1, 1), (7, 7), (1024, 1000)):
            monkeypatch.setattr(solver, "_FRAME_CHUNK", frames)
            monkeypatch.setattr(solver, "_PAIR_CHUNK", pairs)
            plans.append(_plan(problem, "banded")[1])
        assert plans[0].K is not None and plans[0].K.nnz > 1000
        for plan in plans[1:]:
            assert plan.bandwidth == plans[0].bandwidth
            for a, b in ((plan.targets, plans[0].targets),
                         (plan.lp_targets, plans[0].lp_targets),
                         (plan.K.data, plans[0].K.data),
                         (plan.K.indices, plans[0].K.indices),
                         (plan.K.indptr, plans[0].K.indptr)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBandSolves:
    def test_one_band_solve_fewer_per_iteration(self, solved_linear,
                                                monkeypatch):
        # an iteration solves with the band for the border's columns and
        # for the corrector; the predictor's right-hand side -c is zero on
        # the band, since c touches border variables only
        problem = solved_linear["problem"]
        counts = {"solves": 0, "factors": 0}
        phases = []
        cho_solve = scipy.linalg.cho_solve_banded

        def count_solve(*args, **kwargs):
            counts["solves"] += 1
            return cho_solve(*args, **kwargs)

        factor = _SchurPlan.factor

        def count_factor(self, *args, **kwargs):
            counts["factors"] += 1
            return factor(self, *args, **kwargs)

        ipm = solver._ipm

        def phase(*args, **kwargs):
            counts.update(solves=0, factors=0)
            res = ipm(*args, **kwargs)
            phases.append((dict(counts), res.iterations))
            return res

        monkeypatch.setattr(scipy.linalg, "cho_solve_banded", count_solve)
        monkeypatch.setattr(_SchurPlan, "factor", count_factor)
        monkeypatch.setattr(solver, "_ipm", phase)
        sol = solve(problem)
        assert sol.schur["kind"] == "banded"
        assert len(phases) == 2  # phase 1, then phase 2 for min_c
        for seen, iterations in phases:
            assert seen["factors"] == iterations > 0
            assert seen["solves"] == 2 * iterations


class TestOneStore:
    """The problem's A is the only CSR of the constraint operator: the
    solver reads it as it is, and each block family is a row range of it."""

    def _check(self, problem, monkeypatch):
        sizes = [g.size for g in problem.groups]
        assert sizes != sorted(sizes)  # size order differs from family order
        tiles = sorted(problem.groups, key=lambda g: g.rows.start)
        assert [g.size for g in tiles] == sorted(sizes)
        assert [g.family for g in tiles] == [
            g.family for k in sorted(set(sizes))
            for g in problem.groups if g.size == k]
        assert tiles[0].rows.start == 0
        for g, nxt in zip(tiles, tiles[1:] + [None]):
            assert g.rows.stop - g.rows.start == g.count * g.svdim
            assert g.rows.stop == (problem.A.shape[0] if nxt is None
                                   else nxt.rows.start)
        assert len(problem.f0) == problem.A.shape[0]
        assert _Segments(problem).A is problem.A
        seen = []
        ipm = solver._ipm
        monkeypatch.setattr(solver, "_ipm", lambda segs, *a, **kw: (
            seen.append(segs) or ipm(segs, *a, **kw)))
        A = problem.A
        before = [a.tobytes() for a in (A.data, A.indices, A.indptr)]
        solve(problem, SolverSettings(max_iterations=3))
        assert seen and all(s.A is A for s in seen)
        assert [a.tobytes() for a in (A.data, A.indices, A.indptr)] == before
        # the transpose is a view of the same arrays, built once
        segs = seen[0]
        for x, y in ((segs.A_t.data, A.data), (segs.A_t.indices, A.indices),
                     (segs.A_t.indptr, A.indptr)):
            assert np.shares_memory(x, y)
        v = np.random.default_rng(7).normal(size=A.shape[0])
        assert segs.apply_t(v, problem.m).tobytes() == (A.T @ v).tobytes()
        assert segs.apply_t(v, problem.m + 1).tobytes() == np.append(
            A.T @ v, _tau_column(segs).T @ v).tobytes()

    def test_2d_mesh(self, osc_2d, monkeypatch):
        problem, _ = _mesh_problem(osc_2d, [[[-0.5, 0.5], [-0.5, 0.5]]], 1,
                                   False, "min_c")
        self._check(problem, monkeypatch)

    def test_hand_built_mixed_sizes(self, monkeypatch):
        problem, _ = random_feasible_problem(np.random.default_rng(5))
        self._check(problem, monkeypatch)


class TestTauColumn:
    """tau's entry of A^T v is the sum of v's diagonal svec entries, taken
    one by one in A's row order from +0.0: the bits of the sparse product
    with the column svec(I)."""

    @staticmethod
    def _check(segs, rng):
        tau = _tau_column(segs)
        n = segs.A.shape[0]
        vectors = [rng.normal(size=n), -np.zeros(n), np.zeros(n),
                   rng.normal(size=n) * 1e300]
        signed = rng.normal(size=n)
        signed[rng.random(n) < 0.5] = -0.0
        signed[:3] = -0.0  # the sum starts from +0.0, not from a -0.0 entry
        vectors.append(signed)
        for v in vectors:
            ref = tau.T @ v
            assert np.float64(segs.trace(v)).tobytes() == ref.tobytes()
            assert segs.apply_t(v, segs.m + 1)[-1:].tobytes() == ref.tobytes()

    def test_workload_meshes(self, osc_2d_k6):
        rng = np.random.default_rng(11)
        problems = [osc_2d_k6[0]]
        for config, K in ((SYNTH_1D_CONFIG, 5), (SYNTH_3D_CONFIG, 0)):
            config = Config.from_dict(config)
            sys0 = config.build_system()
            problems.append(_mesh_problem(
                sys0, config.region, K, True, "min_c",
                config.scaling_matrix(sys0.n))[0])
        assert {k for p in problems for k in _Segments(p).sizes} == {1, 2, 3}
        for problem in problems:
            self._check(_Segments(problem), rng)

    def test_random_problems(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            problem, _ = random_feasible_problem(rng)
            self._check(_Segments(problem), rng)


class TestRidge:
    def _weights(self, osc_2d):
        problem, _ = _mesh_problem(osc_2d, [[[-0.5, 0.5], [-0.5, 0.5]]], 2,
                                   True, "min_c")
        segs, plan = _plan(problem, "banded")
        scalings = _random_scalings(segs, np.random.default_rng(3))
        weights = _plan_weights(scalings)
        Wi = _dense_inverse_scalings(scalings)
        A_aug = _augmented(segs)
        tau_col = A_aug.T @ np.concatenate([svec(w @ w).ravel() for w in Wi])
        return plan, weights, tau_col, _reference_gram(segs, Wi, A_aug)

    def test_both_parts_start_from_the_whole_ridge(self, osc_2d,
                                                   monkeypatch):
        # the band and the border get 1e-13 trace(G)/n of the whole G, the
        # dense plan's rule, and not a ridge from their own diagonals
        plan, weights, tau_col, ref = self._weights(osc_2d)
        ridges = []
        factor = solver._cholesky
        monkeypatch.setattr(solver, "_cholesky", lambda G, ridge, *a: (
            ridges.append(ridge) or factor(G, ridge, *a)))
        for tau, G in ((True, ref), (False, ref[:-1, :-1])):
            ridges.clear()
            plan.factor(weights, tau_col if tau else None)
            whole = 1e-13 * np.trace(G) / len(G)
            band = 1e-13 * np.diag(G)[plan.order[:plan.ns]].mean()
            assert whole > 1e-13 and band < 0.1 * whole
            assert ridges == pytest.approx([whole, whole], rel=1e-12)

    def test_band_retry_reforms_the_band(self, osc_2d, monkeypatch):
        # the band is factored in place; when that fails, it is formed
        # again and retried with the grown ridge on the same diagonal as a
        # factor of a copy would see
        plan, weights, tau_col, ref = self._weights(osc_2d)
        seen = []
        factor = scipy.linalg.cholesky_banded

        def fail_once(ab, **kwargs):
            seen.append(ab.copy())
            if len(seen) == 1:
                ab[...] = np.nan  # what a failed in-place factor leaves
                raise np.linalg.LinAlgError("not positive definite")
            return factor(ab, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky_banded", fail_once)
        ridges = []
        cholesky = solver._cholesky
        monkeypatch.setattr(solver, "_cholesky", lambda G, ridge, *a: (
            ridges.append(ridge) or cholesky(G, ridge, *a)))
        r = np.random.default_rng(4).normal(size=len(ref))
        x = plan.factor(weights, tau_col)(r)
        assert len(seen) == 2
        retried = seen[0].copy()
        retried[0] += ridges[0] * 1e4 - ridges[0]
        np.testing.assert_array_equal(seen[1], retried)
        assert np.abs(ref @ x - r).max() <= (
            1e-10 * np.abs(ref).max() * np.abs(x).max())


@pytest.fixture(scope="module")
def osc_2d_k6():
    """The problem and variable map of OSC_2D_CONFIG at K=6."""
    config = Config.from_dict(OSC_2D_CONFIG)
    sys0 = config.build_system()
    return _mesh_problem(sys0, config.region, 6, True, "none",
                         config.scaling_matrix(sys0.n))


class TestSchurOrder:
    @pytest.mark.parametrize("uniform, objective", [
        (True, "min_c"), (True, "none"), (False, "min_c"), (False, "none")])
    def test_permutation_and_border(self, osc_2d, uniform, objective):
        problem, vmap = _mesh_problem(osc_2d, [[[-0.5, 0.5], [-0.5, 0.5]]],
                                      3, uniform, objective)
        order, nb = problem.schur_order, problem.schur_border
        assert np.array_equal(np.sort(order), np.arange(problem.m))
        if uniform:
            expected = {vmap.c_index(), vmap.d_index()}
        else:
            expected = {vmap.cmax_index} if objective == "min_c" else set()
        assert set(order[len(order) - nb:].tolist()) == expected

    def test_folded_slabs(self, osc_2d):
        # slabs 0, N-1, 1, N-2, ... so that linked slabs are close and the
        # ring is never cut
        problem, vmap = _mesh_problem(osc_2d, [[[-0.5, 0.5], [-0.5, 0.5]]],
                                      3, True, "none")
        cx = build_complex([[[-0.5, 0.5], [-0.5, 0.5]]], osc_2d.T, 3)
        slab = cx.vert_q[cx.slot_rep, 0]
        metric = problem.schur_order[:vmap.metric_count]
        seen = slab[metric // vmap.P]
        runs = seen[np.r_[True, np.diff(seen) != 0]]
        assert runs.tolist() == [0, 7, 1, 6, 2, 5, 3, 4]

    def test_criterion_1_reports_banded_plan(self, solved_linear):
        # the certified level of criterion 1 is small, and still takes the
        # mesh's band and border rather than one dense triangle
        assert solved_linear["problem"].m == 578
        assert solved_linear["sol"].schur == {"kind": "banded",
                                              "bandwidth": 37, "border": 3}

    def test_large_problem_reports_banded_plan(self, osc_2d_k6):
        problem, vmap = osc_2d_k6
        # the 248,832 scalar grad_bound blocks keep no dense rows, so the
        # simplex class holds the contraction blocks' 12 rows per frame
        plan = _SchurPlan(_Segments(problem), problem.schur_order,
                          problem.schur_border)
        # C and G hold one chunk of frames: the simplex class's 13,824
        # frames of width 14 run in chunks
        chunk = solver._FRAME_CHUNK
        assert max(cls["frames"] for cls in plan.classes) > chunk
        assert max(cls["C"].nbytes + cls["G"].nbytes
                   for cls in plan.classes) <= chunk * (12 + 14) * 14 * 8
        assert plan.K.shape[1] == next(g.count for g in problem.groups
                                       if g.family == "grad_bound")
        sol = solve(problem, SolverSettings(max_iterations=1))
        assert sol.schur["kind"] == "banded"
        assert sol.schur["border"] == 3
        # reverse Cuthill-McKee on the same pattern, border removed
        A = problem.A.copy()
        A.data = np.ones_like(A.data)
        blk = np.empty(A.shape[0], dtype=np.int64)
        for g, off in zip(problem.groups, np.cumsum(
                [0] + [g.count for g in problem.groups])):
            blk[g.rows] = np.repeat(np.arange(g.count), g.svdim) + off
        E = sp.csr_matrix((np.ones(len(blk)), (blk, np.arange(len(blk)))))
        touch = (E @ A).tocsc()
        keep = np.setdiff1d(np.arange(problem.m),
                            [vmap.c_index(), vmap.d_index()])
        pattern = (touch[:, keep].T @ touch[:, keep]).tocsr()
        perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        coo = pattern[perm][:, perm].tocoo()
        rcm = int(np.abs(coo.row - coo.col).max())
        assert sol.schur["bandwidth"] < rcm

    def test_plan_holds_less_than_A(self, osc_2d_k6):
        # no weights array and no dense copy of A's matrix rows: the plan's
        # arrays, its chunk buffers included and the linear cone's K aside,
        # take fewer bytes than A
        problem, _ = osc_2d_k6
        plan = _SchurPlan(_Segments(problem), problem.schur_order,
                          problem.schur_border)
        held = [x for x in vars(plan).values() if isinstance(x, np.ndarray)]
        held += [x for cls in plan.classes for x in cls.values()
                 if isinstance(x, np.ndarray)]
        A = problem.A
        assert sum(x.nbytes for x in held) < (
            A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_oscillator_answers_on_the_banded_path():
    # recorded with the reverse Cuthill-McKee plan that this path replaced
    lines = []
    code, cert = cmd_synthesize(Config.from_dict(OSC_2D_CONFIG),
                                progress=lines.append)
    assert code == 0
    assert any("Schur plan kind banded, bandwidth 320, border 3" in line
               for line in lines)
    assert "schur" not in cert["solver"]
    assert cert["k"] == 6
    assert cert["solver"]["status"] == "Feasible"
    assert abs(cert["solver"]["iterations"] - 14) <= 1
    assert float(cert["solver"]["min_block_eig"]) == pytest.approx(
        0.10082203145673319, rel=1e-6)
    assert float(cert["constants"]["C"]) == pytest.approx(
        64.84370725523442, rel=1e-6)
    assert cert["verification"]["passed"] is True
