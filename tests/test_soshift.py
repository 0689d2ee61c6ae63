import numpy as np
import pytest

from qheis import fock, soshift
from qheis.fock import Statistics
from qheis.qspecial import WEYL, DeformParams


@pytest.fixture(scope="module")
def orb3():
    return soshift.build_orbital(fock.build_space(3, Statistics.BOSE, 6))


@pytest.fixture(scope="module")
def orb4():
    return soshift.build_orbital(fock.build_space(4, Statistics.BOSE, 6))


def test_spectrum_labels(orb3, orb4):
    # vacuum: l = N/2 - 1; one-particle shell: l = N/2 with multiplicity N
    for orb, n in ((orb3, 3), (orb4, 4)):
        vac = [g for g in orb.spectral_grid if g[0] == 0]
        assert len(vac) == 1
        assert abs(vac[0][1] - (n / 2 - 1)) < 1e-10
        one = [g for g in orb.spectral_grid if g[0] == 1]
        assert len(one) == 1
        assert abs(one[0][1] - n / 2) < 1e-10
        assert one[0][2] == n


def test_l2_commutators(orb3, orb4):
    for orb in (orb3, orb4):
        rows = {r.name: r for r in soshift.l2_commutator_residuals(orb)}
        assert rows["l2_commutes_aa"].residual < 1e-12
        assert rows["l2_commutes_apap"].residual < 1e-12
        assert rows["l2_mixed_commutator_a"].residual < 1e-11
        assert rows["l2_mixed_commutator_aplus"].residual < 1e-11


def test_l_is_positive_root(orb3):
    l2 = orb3.l2.matrix.toarray()
    lmat = orb3.l.matrix.toarray()
    assert np.linalg.norm(lmat @ lmat - l2, 2) < 1e-10
    evals = np.linalg.eigvalsh(lmat)
    assert evals.min() > -1e-10
    # l commutes with the total number and with l^2
    n = fock.total_number(orb3.space).matrix.toarray()
    assert np.linalg.norm(lmat @ n - n @ lmat) < 1e-10
    assert np.linalg.norm(lmat @ l2 - l2 @ lmat) < 1e-9


@pytest.mark.parametrize("sign", [+1, -1])
def test_shift_operators(orb3, orb4, sign):
    for orb in (orb3, orb4):
        rows = {r.name: r for r in soshift.shift_operator_residuals(orb, sign)}
        assert rows[f"shift_orderings_agree[s={sign:+d}]"].residual < 1e-12
        assert rows[f"shift_eigen_relations[s={sign:+d}]"].residual < 1e-10


def test_shift_operators_are_classical(orb3):
    # no deformation parameter enters the construction at all
    down, up = soshift.shift_operators(orb3, +1)
    assert len(down) == len(up) == 3
    for op in down:
        assert op.grade == -1
    for op in up:
        assert op.grade == +1


@pytest.mark.parametrize("q", [0.7, 1.3])
def test_y_functional_equations(orb3, orb4, q):
    for orb in (orb3, orb4):
        rows = soshift.verify_y_son(orb, DeformParams(q, WEYL), tol=1e-10)
        assert len(rows) == 4
        for row in rows:
            assert row.passed, (row.name, row.residual)
            assert row.metadata["points"] > 0


def test_y_equations_classical_reduction(orb3):
    # at q = 1 every y-ratio is 1 and each equation reads s - t = 2
    rows = soshift.verify_y_son(orb3, DeformParams(1.0, WEYL), tol=1e-12)
    for row in rows:
        assert row.residual < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        soshift.build_orbital(fock.build_space(2, Statistics.BOSE, 6))
    with pytest.raises(ValueError):
        soshift.build_orbital(fock.build_space(3, Statistics.FERMI))
    with pytest.raises(ValueError):
        soshift.build_orbital(fock.build_space(3, Statistics.BOSE, 3))
    orb = soshift.build_orbital(fock.build_space(3, Statistics.BOSE, 4))
    with pytest.raises(ValueError):
        soshift.shift_operators(orb, 0)
