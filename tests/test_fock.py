import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qheis import fock
from qheis.fock import Statistics


def test_dimensions():
    assert fock.build_space(2, Statistics.FERMI).dim == 4
    assert fock.build_space(2, Statistics.BOSE, 3).dim == 10  # C(5, 2)
    sp = fock.build_space(1, Statistics.BOSE, 5)
    assert sp.basis == tuple((k,) for k in range(6))


def test_build_space_rejects_bad_input():
    with pytest.raises(ValueError):
        fock.build_space(0, Statistics.BOSE, 3)
    with pytest.raises(ValueError):
        fock.build_space(2, Statistics.BOSE, 0)
    with pytest.raises(ValueError):
        fock.build_space(2, Statistics.BOSE)  # cutoff required for bosons


@given(modes=st.integers(1, 4), cutoff=st.integers(1, 5),
       fermi=st.booleans())
@settings(max_examples=40, deadline=None)
def test_index_and_basis_are_mutually_inverse(modes, cutoff, fermi):
    sp = fock.build_space(modes, Statistics.FERMI if fermi else Statistics.BOSE,
                          cutoff)
    for k, t in enumerate(sp.basis):
        assert sp.state_index(t) == k
    # lexicographic ordering is strict
    assert list(sp.basis) == sorted(sp.basis)


def test_bose_number_eigenvalues():
    sp = fock.build_space(2, Statistics.BOSE, 4)
    ada = fock.creator(sp, 1).matrix.toarray() @ fock.annihilator(sp, 1).matrix.toarray()
    for k, t in enumerate(sp.basis):
        assert abs(ada[k, k] - t[0]) < 1e-14


def test_fermi_car_exact_on_full_space():
    sp = fock.build_space(3, Statistics.FERMI)
    for i in range(1, 4):
        for j in range(1, 4):
            acomm = fock.anticommutator(fock.annihilator(sp, i),
                                        fock.creator(sp, j)).toarray()
            target = np.eye(sp.dim) if i == j else 0.0
            assert np.linalg.norm(acomm - target) == 0.0
    # pure annihilator pairs anticommute as well
    assert np.linalg.norm(fock.anticommutator(
        fock.annihilator(sp, 1), fock.annihilator(sp, 2)).toarray()) == 0.0


def test_bose_ccr_on_safe_subspace():
    sp = fock.build_space(2, Statistics.BOSE, 3)
    p = fock.safe_projector(sp, 1).matrix.toarray()
    for i in (1, 2):
        for j in (1, 2):
            comm = fock.commutator(fock.annihilator(sp, i), fock.creator(sp, j)).toarray()
            target = np.eye(sp.dim) if i == j else 0.0
            assert np.linalg.norm(p @ (comm - target) @ p) < 1e-13
    # the defect lives only on the top shell: restricting to total <= 2
    mask = sp.total_occupations() <= 2
    comm = fock.commutator(fock.annihilator(sp, 1), fock.creator(sp, 1)).toarray()
    sub = (comm - np.eye(sp.dim))[np.ix_(mask, mask)]
    assert np.linalg.norm(sub) < 1e-14


def test_number_operators():
    sp = fock.build_space(2, Statistics.BOSE, 4)
    n = fock.total_number(sp).matrix.toarray()
    vac = sp.state_index((0, 0))
    assert n[vac, vac] == 0
    k = sp.state_index((1, 2))
    assert n[k, k] == 3
    summed = sum(fock.creator(sp, i).matrix.toarray() @ fock.annihilator(sp, i).matrix.toarray()
                 for i in (1, 2))
    assert np.linalg.norm(summed - n) < 1e-13


def test_safe_projector_ranks():
    sp = fock.build_space(1, Statistics.BOSE, 3)
    assert np.allclose(fock.safe_projector(sp, 0).matrix.toarray(), np.eye(4))
    vac = fock.safe_projector(sp, 3).matrix.toarray()
    assert np.isclose(np.trace(vac).real, 1.0)
    assert np.isclose(np.trace(fock.safe_projector(sp, 1).matrix.toarray()).real, 3.0)
    with pytest.raises(ValueError):
        fock.safe_projector(sp, 4)


def test_diag_fn():
    sp = fock.build_space(2, Statistics.BOSE, 3)
    assert np.allclose(fock.diag_fn(sp, lambda t: 1.0).matrix.toarray(), np.eye(sp.dim))
    d = fock.diag_fn(sp, lambda t: 2.0 ** t[1])
    k = sp.state_index((0, 3))
    assert d.matrix.toarray()[k, k] == 8.0
    # diagonal functions commute with the number operators
    for i in (1, 2):
        assert np.linalg.norm(
            fock.commutator(d, fock.number_op(sp, i)).toarray()) == 0.0
    with pytest.raises(ValueError):
        fock.diag_fn(sp, lambda t: float("nan"))


def test_adjointness_and_grades():
    for stat, cut in ((Statistics.BOSE, 4), (Statistics.FERMI, None)):
        sp = fock.build_space(2, stat, cut)
        for i in (1, 2):
            a = fock.annihilator(sp, i)
            ap = fock.creator(sp, i)
            assert np.array_equal(ap.matrix.toarray(), a.matrix.toarray().conj().T)
            assert a.grade == -1 and ap.grade == +1
            assert fock.grade_defect(a) < 1e-13
            assert fock.grade_defect(ap) < 1e-13


def test_mode_index_out_of_range():
    sp = fock.build_space(2, Statistics.BOSE, 2)
    with pytest.raises(ValueError):
        fock.annihilator(sp, 0)
    with pytest.raises(ValueError):
        fock.creator(sp, 3)
