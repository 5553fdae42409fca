"""Batched eigenvalues of small symmetric blocks against a per-block
scipy reference, the closed forms for sizes 1 and 2 bit for bit, the size-3
closed form on hard spectra, the Jacobi sweep's relative accuracy, and the
positive-definiteness check of the generalized problem."""

import itertools

import mpmath
import numpy as np
import pytest
import scipy.linalg

from cpacontract import smallmat

from reference import (
    lower,
    matmul_seq,
    stack,
    stacked_cholesky,
    stacked_congruence2,
    stacked_eigh2,
    stacked_inv_lower,
    triangular,
    vectors,
)

SHAPES = [(), (0,), (53,), (6, 9)]


# the kernels on (..., k, k) stacks, through component views of their lower
# triangles


def eig_min(A):
    return smallmat.eig_min(lower(A))


def eig_max(A):
    return smallmat.eig_max(lower(A))


def eigvalsh(A):
    return np.stack(smallmat.eigvalsh(lower(A)), axis=-1)


def gen_eig_max(A, M):
    return smallmat.gen_eig_max(lower(A), lower(M))


def eigh(A):
    w, Q = smallmat.eigh(lower(A))
    return np.stack(w, axis=-1), vectors(Q)


def cholesky(S):
    return triangular(smallmat.cholesky(lower(S)))


def inv_lower(L):
    return triangular(smallmat.inv_lower(lower(L)))


def congruence(R, X, trans=False):
    return stack(smallmat.congruence(lower(R), lower(X), trans))


def random_pairs(rng, lead, k):
    """Symmetric A of mixed sign and well-conditioned spd M."""
    X = rng.standard_normal(lead + (k, k))
    A = 3.0 * (X + np.swapaxes(X, -1, -2))
    Y = rng.standard_normal(lead + (k, k))
    M = Y @ np.swapaxes(Y, -1, -2) + np.eye(k)
    return A, M


def reference(A, M=None):
    """Ascending eigenvalues of every block by one scipy call each."""
    k = A.shape[-1]
    flat_A = A.reshape(-1, k, k)
    flat_M = None if M is None else M.reshape(-1, k, k)
    out = np.array([scipy.linalg.eigh(a, None if flat_M is None
                                      else flat_M[i], eigvals_only=True)
                    for i, a in enumerate(flat_A)]).reshape(-1, k)
    return out.reshape(A.shape[:-2] + (k,))


def gen_eig_min(A, M):
    """Minus the largest generalized eigenvalue of (-A, M)."""
    return -gen_eig_max(-np.asarray(A), M)


# the k <= 2 closed forms, spelled out as they were in the solver and the
# verifier before both moved into smallmat


def closed_min(mats):
    if mats.shape[-1] == 1:
        return mats[..., 0, 0]
    half_tr = 0.5 * (mats[..., 0, 0] + mats[..., 1, 1])
    rad = np.hypot(0.5 * (mats[..., 0, 0] - mats[..., 1, 1]), mats[..., 0, 1])
    return half_tr - rad


def closed_gen(D, S, largest):
    if D.shape[-1] == 1:
        return D[..., 0, 0] / S[..., 0, 0]
    a = S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] ** 2
    b = (D[..., 0, 0] * S[..., 1, 1] + D[..., 1, 1] * S[..., 0, 0]
         - 2.0 * D[..., 0, 1] * S[..., 0, 1])
    cc = D[..., 0, 0] * D[..., 1, 1] - D[..., 0, 1] ** 2
    disc = np.sqrt(np.maximum(b * b - 4.0 * a * cc, 0.0))
    return ((b + disc) if largest else (b - disc)) / (2.0 * a)


@pytest.fixture(params=[None, 7], ids=["chunk-default", "chunk-7"])
def chunk(request, monkeypatch):
    """Run with the module's chunk size and with one the batches cross."""
    if request.param is not None:
        monkeypatch.setattr(smallmat, "_CHUNK", request.param)
    return smallmat._CHUNK


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("lead", SHAPES, ids=str)
def test_matches_per_block_reference(k, lead, chunk):
    rng = np.random.default_rng(1000 * k + len(lead) + sum(lead))
    A, M = random_pairs(rng, lead, k)
    std = reference(A)
    gen = reference(A, M)
    scale_std = np.abs(std).max(axis=-1, initial=0.0)
    scale_gen = np.abs(gen).max(axis=-1, initial=0.0)
    cases = [
        (eig_min(A), std[..., 0], scale_std),
        (eig_max(A), std[..., -1], scale_std),
        (gen_eig_min(A, M), gen[..., 0], scale_gen),
        (gen_eig_max(A, M), gen[..., -1], scale_gen),
    ]
    for got, want, scale in cases:
        assert got.shape == lead
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
    w = eigvalsh(A)
    assert w.shape == lead + (k,)
    assert np.all(np.diff(w, axis=-1) >= 0.0)
    assert np.all(np.abs(w - std) <= 1e-12 * scale_std[..., None])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("lead", SHAPES, ids=str)
def test_closed_forms_bitwise(k, lead):
    rng = np.random.default_rng(7 + k)
    A, M = random_pairs(rng, lead, k)
    pairs = [
        (eig_min(A), closed_min(A)),
        (eig_max(A), -closed_min(-A)),
        (gen_eig_min(A, M), closed_gen(A, M, largest=False)),
        (gen_eig_max(A, M), closed_gen(A, M, largest=True)),
    ]
    for got, want in pairs:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_chunking_keeps_the_bits():
    # every block is computed on its own, by LAPACK at k = 4 and by the
    # closed form at k = 3, so the chunk boundaries of a batch longer than
    # one chunk cannot change a result
    rng = np.random.default_rng(3)
    A, _ = random_pairs(rng, (smallmat._CHUNK + 5,), 4)
    assert (eig_min(A).tobytes()
            == np.linalg.eigvalsh(A)[:, 0].tobytes())
    A, M = random_pairs(rng, (smallmat._CHUNK + 5,), 3)
    idx = [0, smallmat._CHUNK - 1, smallmat._CHUNK, smallmat._CHUNK + 4]
    w, Q = eigh(A)
    pairs = [
        (eigvalsh(A), lambda i: eigvalsh(A[i])),
        (w, lambda i: eigh(A[i])[0]),
        (Q, lambda i: eigh(A[i])[1]),
        (gen_eig_max(A, M),
         lambda i: gen_eig_max(A[i], M[i])),
    ]
    for whole, one in pairs:
        assert (whole[idx].tobytes()
                == np.array([one(i) for i in idx]).tobytes())


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("where", [0, 30])
def test_indefinite_metric_raises(k, where, chunk):
    rng = np.random.default_rng(k)
    A, M = random_pairs(rng, (40,), k)
    M[where] = -M[where]
    for fun in (gen_eig_min, gen_eig_max):
        with pytest.raises(np.linalg.LinAlgError):
            fun(A, M)


def spd_blocks(rng, lead, k, cond):
    """Random spd blocks with condition number `cond` and random scale."""
    Q, _ = np.linalg.qr(rng.standard_normal(lead + (k, k)))
    lam = (np.logspace(0.0, -np.log10(cond), k)
           * 10.0 ** rng.uniform(-3.0, 3.0, lead + (1,)))
    return (Q * lam[..., None, :]) @ np.swapaxes(Q, -1, -2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_non_finite_block_is_nan(k, chunk):
    # one block holding a NaN and one an inf, on both sides of the chunk
    # boundaries, in A and in M; the other blocks keep their bits
    rng = np.random.default_rng(40 + k)
    A, M = random_pairs(rng, (20,), k)
    clean = [f(A) for f in (eig_min, eig_max)] + [
        f(A, M) for f in (gen_eig_min, gen_eig_max)]
    bad = [0, 6, 7, 13]
    A[0, 0, 0], A[6, -1, 0] = np.nan, np.inf
    # the lower triangle holds a symmetric block's entries
    M[7, -1, 0], M[13, -1, -1] = np.nan, -np.inf
    got = [f(A) for f in (eig_min, eig_max)] + [
        f(A, M) for f in (gen_eig_min, gen_eig_max)]
    good = np.setdiff1d(np.arange(20), bad)
    for i, (g, c) in enumerate(zip(got, clean)):
        assert np.isnan(g[bad[:2] if i < 2 else bad]).all()
        keep = good if i >= 2 else np.setdiff1d(np.arange(20), bad[:2])
        assert g[keep].tobytes() == c[keep].tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_nan_in_a_definite_block(k):
    # 2 I and -I with a NaN on the diagonal used to read 0.0 and -0.0 at
    # k >= 3, and the generalized problem raised
    two, neg = 2.0 * np.eye(k), -np.eye(k)
    two[0, 0] = neg[0, 0] = np.nan
    assert np.isnan(eig_min(two[None])).all()
    assert np.isnan(eig_max(neg[None])).all()
    assert np.isnan(gen_eig_min(two[None], np.eye(k)[None])).all()
    assert np.isnan(gen_eig_max(np.eye(k)[None], two[None])).all()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("cond", [1.0, 1e3, 1e10])
def test_cholesky_and_triangular_inverse(k, cond):
    rng = np.random.default_rng(k)
    S = spd_blocks(rng, (3, 50), k, cond)
    L = cholesky(S)
    ref = np.linalg.cholesky(S)
    assert np.all(np.abs(L - ref) <= 1e-12 * np.sqrt(cond)
                  * np.abs(ref).max(axis=(-2, -1), keepdims=True))
    assert np.array_equal(np.triu(L, 1), np.zeros_like(L))
    Li = inv_lower(L)
    assert np.abs(Li @ L - np.eye(k)).max() <= 1e-13 * np.sqrt(cond)
    # not positive definite, or not finite: the whole factor is NaN
    S[0, 3] = -S[0, 3]
    S[1, 4, -1, -1] = np.nan
    L = cholesky(S)
    low = np.tril_indices(k)  # a factor has no entries above the diagonal
    assert np.isnan(L[0, 3][low]).all() and np.isnan(L[1, 4][low]).all()
    assert np.isfinite(np.delete(L.reshape(150, k, k), [3, 54], axis=0)).all()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("cond", [1.0, 1e3, 1e10])
def test_eigh_matches_lapack(k, cond):
    rng = np.random.default_rng(10 + k)
    T = spd_blocks(rng, (60,), k, cond)
    T[:20] -= 2.0 * np.abs(T[:20]).max() * np.eye(k)  # some indefinite
    w, Q = eigh(T)
    w_ref = np.linalg.eigvalsh(T)
    scale = np.abs(w_ref).max(axis=-1, keepdims=True)
    assert np.all(np.abs(w - w_ref) <= 1e-14 * scale)
    assert np.abs(np.swapaxes(Q, -1, -2) @ Q - np.eye(k)).max() <= 1e-14
    back = (Q * w[:, None, :]) @ np.swapaxes(Q, -1, -2)
    assert np.all(np.abs(back - T) <= 1e-14 * scale[..., None])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("trans", [False, True])
def test_congruence(k, trans):
    rng = np.random.default_rng(20 + k)
    R = np.tril(rng.standard_normal((2, 30, k, k)))  # a factor's shape
    X = rng.standard_normal((2, 30, k, k))
    X = X + np.swapaxes(X, -1, -2)
    Rl, Rr = (np.swapaxes(R, -1, -2), R) if trans else (R, np.swapaxes(R, -1, -2))
    for x, ref in ((X, Rl @ X @ Rr), (np.eye(k), Rl @ Rr)):
        got = congruence(R, x, trans=trans)
        assert got.shape == R.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(got, np.swapaxes(got, -1, -2)) or k != 2


def rotated(rng, spectra, copies=40):
    """Blocks Q diag(spectrum) Q^T, symmetrized, for random orthogonal Q."""
    spectra = np.repeat(np.asarray(spectra, dtype=float), copies, axis=0)
    Q, _ = np.linalg.qr(rng.standard_normal((len(spectra), 3, 3)))
    T = (Q * spectra[:, None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (T + np.swapaxes(T, -1, -2))


def hard_blocks(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "scaled identity":
        return np.array([c * np.eye(3)
                         for c in (0.0, 1.0, -2.5, 1e-300, 3e300)])
    if name.startswith("double"):
        gaps = (0.0, 1e-12, 1e-8)
        if name.endswith("lower"):
            return rotated(rng, [(1.0, 1.0 + g, 3.0) for g in gaps])
        return rotated(rng, [(-3.0, 1.0, 1.0 + g) for g in gaps])
    if name == "diagonal":
        orders = itertools.permutations((-1.0, 0.5, 2.0))
        return np.array([np.diag(d) for d in orders]
                        + [np.diag(d) for d in ((1.0, 1.0, 2.0),
                                                (1.0, 2.0, 1.0),
                                                (2.0, 1.0, 1.0))])
    if name == "permuted diagonal":
        out = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            for a, b in ((1.5, -0.5), (2.0, 2.0), (-1.0, 0.0)):
                T = np.zeros((3, 3))
                T[i, j] = T[j, i] = a
                T[3 - i - j, 3 - i - j] = b
                out.append(T)
        return np.array(out)
    if name.startswith("scale"):
        X = rng.standard_normal((100, 3, 3))
        return float(name.split()[1]) * (X + np.swapaxes(X, -1, -2))
    # a 1e-9 eigenvalue next to O(1) ones
    return rotated(rng, [(1e-9, 1.0, 2.0), (-1.0, 1e-9, 2.0),
                         (-2.0, -1.0, 1e-9)])


HARD = ["scaled identity", "double lower", "double upper", "diagonal",
        "permuted diagonal", "scale 1e150", "scale 1e-150",
        "tiny eigenvalue"]


@pytest.mark.parametrize("name", HARD)
def test_hard_spectra_at_size_three(name):
    T = hard_blocks(name)
    want = reference(T)
    scale = np.abs(want).max(axis=-1, keepdims=True)
    w, Q = eigh(T)
    for got in (eigvalsh(T), w):
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
    assert np.abs(np.swapaxes(Q, -1, -2) @ Q - np.eye(3)).max() <= 1e-14
    back = (Q * w[:, None, :]) @ np.swapaxes(Q, -1, -2)
    assert np.all(np.abs(back - T) <= 1e-14 * scale[..., None])


def test_triple_generalized_eigenvalue():
    # M J + J^T M for J = -I is -2 M, so every generalized eigenvalue is
    # -2; M = diag(1, 2, 3) as in the 3-D orbital derivative test, then
    # rotated
    rng = np.random.default_rng(8)
    M = np.concatenate([np.diag([1.0, 2.0, 3.0])[None],
                        rotated(rng, [(1.0, 2.0, 3.0)], copies=20)])
    for fun in (gen_eig_min, gen_eig_max):
        assert np.abs(fun(-2.0 * M, M) + 2.0).max() <= 2e-14


def test_gram_eigh_is_relatively_accurate():
    # G^T G = L^T Z L for ill-conditioned S = L L^T and Z = R R^T, as in
    # the Nesterov-Todd scaling: its eigenvalues span ~20 decades
    rng = np.random.default_rng(9)
    S, Z = spd_blocks(rng, (12,), 3, 1e10), spd_blocks(rng, (12,), 3, 1e10)
    L, R = np.linalg.cholesky(S), np.linalg.cholesky(Z)
    G = np.swapaxes(R, -1, -2) @ L
    T = np.swapaxes(G, -1, -2) @ G
    with mpmath.workdps(50):
        exact = np.array([sorted(float(x) for x in mpmath.eigsy(g.T * g)[0])
                          for g in map(mpmath.matrix, G.tolist())])
    closed, Q = eigh(T)
    Y = G @ Q
    w, V = smallmat.gram_eigh(
        [[Y[:, r, c] for r in range(3)] for c in range(3)],
        [[Q[:, r, c] for r in range(3)] for c in range(3)])
    w, V = np.stack(w, axis=-1), vectors(V)
    assert np.abs(w / exact - 1.0).max() <= 1e-12
    assert np.abs(np.swapaxes(V, -1, -2) @ V - np.eye(3)).max() <= 1e-14
    # the closed form alone is accurate only relative to the largest
    assert np.abs(closed / exact - 1.0).max() > 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("trans", [False, True])
def test_component_kernels_match_the_stacked_forms(k, trans):
    # the kernels on component arrays against the stacked closed forms
    # they replaced, bit for bit, and the products against the stacked
    # product summed term by term in the same order
    rng = np.random.default_rng(90 + k)
    S = spd_blocks(rng, (500,), k, 1e4)
    X, _ = random_pairs(rng, (500,), k)
    L = cholesky(S)
    assert L.tobytes() == stacked_cholesky(S).tobytes()
    assert inv_lower(L).tobytes() == stacked_inv_lower(L).tobytes()
    Lt = np.swapaxes(L, -1, -2)
    want = (matmul_seq(matmul_seq(Lt, X), L) if trans
            else matmul_seq(matmul_seq(L, X), Lt))
    got = smallmat.congruence(lower(L), lower(X), trans)
    # the component kernel forms the upper triangle
    assert np.stack(got).tobytes() == np.stack(
        lower(np.swapaxes(want, -1, -2))).tobytes()
    if k == 2:
        assert (congruence(L, X, trans).tobytes()
                == stacked_congruence2(L, X, trans).tobytes())
        w, Q = stacked_eigh2(X)
        assert eigh(X)[0].tobytes() == w.tobytes()
        assert eigh(X)[1].tobytes() == Q.tobytes()
    x = list(rng.normal(size=(k, 500)))
    got = smallmat.times(lower(L), x, trans)
    want = matmul_seq(Lt if trans else L, np.stack(x, axis=-1)[..., None])
    assert np.stack(got, axis=-1).tobytes() == want[..., 0].tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_component_nan_contract(k):
    # a block with a non-finite entry has NaN eigenvalues (at k = 3 NaN
    # eigenvectors too), and an indefinite block an all-NaN factor; the
    # other blocks keep their bits
    rng = np.random.default_rng(70 + k)
    S = spd_blocks(rng, (30,), k, 10.0)
    clean_w, clean_L = eigvalsh(S), smallmat.cholesky(lower(S))
    S[4, -1, 0] = np.inf
    S[9] = -S[9]
    a = lower(S)
    w = eigvalsh(S)
    assert np.isnan(w[4]).all() and not np.isnan(w[9]).any()
    if k == 3:
        assert np.isnan(eigh(S)[1][4]).all()
    L = smallmat.cholesky(a)
    keep = np.setdiff1d(np.arange(30), [4, 9])
    for x, c in zip(L, clean_L):
        assert np.isnan(x[[4, 9]]).all()
        assert x[keep].tobytes() == c[keep].tobytes()
    assert w[keep].tobytes() == clean_w[keep].tobytes()
