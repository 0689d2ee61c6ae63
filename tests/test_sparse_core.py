"""The sparse operator core: exact shell-block norms and sparsity guards."""

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


def random_graded(space, grades, rng, density=0.5):
    """Random complex sparse matrix whose entries map shell k to k + g for
    g in grades."""
    shell = space.shell
    allowed = np.isin(shell[:, None] - shell[None, :], grades)
    keep = allowed & (rng.random(allowed.shape) < density)
    rows, cols = np.nonzero(keep)
    vals = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    return sparse.csr_array((vals, (rows, cols)), shape=allowed.shape)


def dense_oracle(space, m, degree):
    mask = space.safe_mask(degree)
    sub = np.asarray(m.toarray() if sparse.issparse(m) else m)[np.ix_(mask, mask)]
    if sub.size == 0:
        return 0.0, 0.0
    return np.linalg.norm(sub, 2), np.linalg.norm(sub)


def assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300), (got, want)


@pytest.mark.parametrize("grades", GRADES, ids=str)
@pytest.mark.parametrize("key", SPACES)
def test_projected_norms_match_dense_oracle(key, grades):
    space = fock.build_space(*SPACES[key])
    rng = np.random.default_rng([ord(ch) for ch in f"{key}{grades}"])
    for degree in (0, 1, 2):
        for _ in range(3):
            m = random_graded(space, grades, rng)
            spec, fro = verify.projected_norms(space, m, degree)
            want_spec, want_fro = dense_oracle(space, m, degree)
            assert_close(spec, want_spec)
            assert_close(fro, want_fro)
            # a dense input gives the same numbers
            assert verify.projected_norms(space, m.toarray(), degree) == (spec, fro)


@pytest.mark.parametrize("key", SPACES)
def test_projected_norms_zero_and_empty(key):
    space = fock.build_space(*SPACES[key])
    d = space.dim
    assert verify.projected_norms(space, sparse.csr_array((d, d), dtype=complex), 0) == (0.0, 0.0)
    assert verify.projected_norms(space, np.zeros((d, d)), 1) == (0.0, 0.0)
    # degree above the cutoff: the safe subspace is empty
    m = random_graded(space, (-1, 0, 1), np.random.default_rng(7))
    assert m.nnz > 0
    assert verify.projected_norms(space, m, space.cutoff + 1) == (0.0, 0.0)


def test_generators_and_defects_are_sparse():
    space = fock.build_space(4, Statistics.BOSE, 7)
    q = 1.3
    rel = braid.build_relations("sl", 4, q, WEYL)
    for ordering in ("above", "below"):
        gens = deform.sln_candidate_map(space, DeformParams(q, WEYL), ordering)
        for op in gens.a_ops + gens.aplus_ops:
            assert isinstance(op.matrix, sparse.csr_array)
            assert op.matrix.nnz <= space.dim
        ann, cre, cross = verify.quadratic_residual_matrices(gens, rel)
        defects = ann + cre + [m for mats in cross.values() for m in mats]
        assert len(defects) == 4 * 16
        assert all(sparse.issparse(m) for m in defects)


def test_sln_at_n4_cutoff8():
    # D = 495: out of reach for the dense engine, two cases both passing
    report = suites.run_suite(suites.make_config("slN", modes=4, cutoff=8))
    assert len(report.cases) == 2
    assert report.all_passed, [(c.name, c.residual) for c in report.cases]
