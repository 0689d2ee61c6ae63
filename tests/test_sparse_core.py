"""The sparse operator core: exact direct-sum norms and sparsity guards."""

import numpy as np
import pytest
from scipy import sparse

from qheis import braid, deform, fock, suites, verify
from qheis.fock import Statistics
from qheis.qspecial import WEYL, DeformParams

SPACES = {
    "bose-2-6": (2, Statistics.BOSE, 6),
    "bose-3-5": (3, Statistics.BOSE, 5),
    "bose-4-4": (4, Statistics.BOSE, 4),
    "fermi-3": (3, Statistics.FERMI, None),
}
GRADES = [(-2,), (-1,), (0,), (1,), (2,), (-1, 0, 2), (-2, 1), (-2, -1, 0, 1, 2)]


def random_on(keep, rng):
    """Random complex sparse matrix with its entries where keep is True."""
    rows, cols = np.nonzero(keep)
    vals = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    return sparse.csr_array((vals, (rows, cols)), shape=keep.shape)


def random_graded(space, grades, rng, density=0.5):
    """Random complex sparse matrix whose entries map shell k to k + g for
    g in grades."""
    shell = space.shell
    allowed = np.isin(shell[:, None] - shell[None, :], grades)
    return random_on(allowed & (rng.random(allowed.shape) < density), rng)


def random_pattern(space, rng, per_row):
    """Random complex sparse matrix with about per_row entries in each row,
    placed with no regard to shells."""
    return random_on(rng.random((space.dim, space.dim)) < per_row / space.dim, rng)


def safe_chain(space, degree, rng):
    """Bidiagonal matrix that joins each safe state to the next one, so
    that its entries form one component over the whole safe subspace."""
    idx = np.flatnonzero(space.safe_mask(degree))
    keep = np.zeros((space.dim, space.dim), dtype=bool)
    keep[idx, idx] = keep[idx[:-1], idx[1:]] = True
    return random_on(keep, rng)


def dense_oracle(space, m, degree):
    mask = space.safe_mask(degree)
    sub = m.toarray()[np.ix_(mask, mask)]
    return np.linalg.norm(sub, 2) if sub.size else 0.0


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300), (got, want)


@pytest.mark.parametrize("grades", GRADES, ids=str)
@pytest.mark.parametrize("key", SPACES)
def test_projected_norms_match_dense_oracle(key, grades):
    space = fock.build_space(*SPACES[key])
    rng = np.random.default_rng([ord(ch) for ch in f"{key}{grades}"])
    for degree in (0, 1, 2):
        inputs = [random_graded(space, grades, rng) for _ in range(3)]
        inputs += [random_pattern(space, rng, per_row) for per_row in (1, 3)]
        inputs.append(safe_chain(space, degree, rng))
        for m in inputs:
            assert_close(verify.projected_norms(space, m, degree),
                         dense_oracle(space, m, degree))


@pytest.mark.parametrize("key", SPACES)
def test_projected_norms_zero_and_empty(key):
    space = fock.build_space(*SPACES[key])
    d = space.dim
    for degree in (0, 1):
        assert verify.projected_norms(space, sparse.csr_array((d, d), dtype=complex),
                                      degree) == 0.0
    m = random_graded(space, (-1, 0, 1), np.random.default_rng(7))
    assert m.nnz > 0
    above = verify.projected_norms(space, m, space.cutoff + 1)
    if space.statistics is Statistics.BOSE:
        # degree above the cutoff: the safe subspace is empty
        assert above == 0.0
    else:
        # a fermionic space is safe at every degree
        assert above == verify.projected_norms(space, m, 0) > 0.0


def test_generators_and_defects_are_sparse():
    space = fock.build_space(4, Statistics.BOSE, 7)
    q = 1.3
    rel = braid.build_relations("sl", 4, q, WEYL)
    for ordering in ("above", "below"):
        gens = deform.sln_candidate_map(space, DeformParams(q, WEYL), ordering)
        for op in gens.a_ops + gens.aplus_ops:
            assert isinstance(op, sparse.csr_array)
            assert op.nnz <= space.dim
        ann, cre, cross = verify.quadratic_residual_matrices(gens, rel)
        defects = ann + cre + [m for mats in cross.values() for m in mats]
        assert len(defects) == 4 * 16
        assert all(sparse.issparse(m) for m in defects)


def test_sln_at_n4_cutoff8(monkeypatch):
    # D = 495: out of reach for the dense engine, two cases both passing.
    # Each defect there is a partial permutation times a diagonal, so every
    # component of its sparsity graph is one entry and no norm needs an SVD.
    svd_calls = []
    real_svd = np.linalg.svd

    def counting(*args, **kwargs):
        svd_calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    report = suites.run_suite(suites.make_config("slN", modes=4, cutoff=8))
    assert len(report.cases) == 2
    assert report.all_passed, [(c.name, c.residual) for c in report.cases]
    assert not svd_calls
