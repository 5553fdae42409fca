"""Batched extreme eigenvalues of small symmetric blocks against a
per-block scipy reference, the closed forms for sizes 1 and 2, and the
positive-definiteness check of the generalized problem."""

import numpy as np
import pytest
import scipy.linalg

from cpacontract import smallmat

SHAPES = [(), (0,), (53,), (6, 9)]


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
        (smallmat.eig_min(A), std[..., 0], scale_std),
        (smallmat.eig_max(A), std[..., -1], scale_std),
        (smallmat.gen_eig_min(A, M), gen[..., 0], scale_gen),
        (smallmat.gen_eig_max(A, M), gen[..., -1], scale_gen),
    ]
    for got, want, scale in cases:
        assert got.shape == lead
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("lead", SHAPES, ids=str)
def test_closed_forms_bitwise(k, lead):
    rng = np.random.default_rng(7 + k)
    A, M = random_pairs(rng, lead, k)
    pairs = [
        (smallmat.eig_min(A), closed_min(A)),
        (smallmat.eig_max(A), -closed_min(-A)),
        (smallmat.gen_eig_min(A, M), closed_gen(A, M, largest=False)),
        (smallmat.gen_eig_max(A, M), closed_gen(A, M, largest=True)),
    ]
    for got, want in pairs:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_chunking_keeps_the_bits():
    # LAPACK treats every block on its own, so the chunk boundaries of a
    # batch longer than one chunk cannot change a result
    rng = np.random.default_rng(3)
    A, M = random_pairs(rng, (smallmat._CHUNK + 5,), 3)
    assert (smallmat.eig_min(A).tobytes()
            == np.linalg.eigvalsh(A)[:, 0].tobytes())
    idx = [0, smallmat._CHUNK - 1, smallmat._CHUNK, smallmat._CHUNK + 4]
    one_by_one = [smallmat.gen_eig_max(A[i], M[i]) for i in idx]
    assert (smallmat.gen_eig_max(A, M)[idx].tobytes()
            == np.array(one_by_one).tobytes())


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("where", [0, 30])
def test_indefinite_metric_raises(k, where, chunk):
    rng = np.random.default_rng(k)
    A, M = random_pairs(rng, (40,), k)
    M[where] = -M[where]
    for fun in (smallmat.gen_eig_min, smallmat.gen_eig_max):
        with pytest.raises(np.linalg.LinAlgError):
            fun(A, M)
