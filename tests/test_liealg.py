import numpy as np
import pytest
from scipy import sparse

from qheis import fock, liealg
from qheis.fock import Statistics


def fro(m):
    return float(np.linalg.norm(m))


def test_rho_defining_matrices():
    sl2 = liealg.LieData("sl", 2)
    assert np.allclose(liealg.rho(sl2, (1, 1)), np.diag([0.5, -0.5]))
    so3 = liealg.LieData("so", 3)
    e = np.zeros((3, 3))
    e[0, 1], e[1, 0] = 1.0, -1.0
    assert np.allclose(liealg.rho(so3, (1, 2)), e)


@pytest.mark.parametrize("family,n", [("sl", 2), ("sl", 3), ("so", 3), ("so", 4)])
def test_rho_representation_property(family, n):
    # [rho(X), rho(Y)] must equal rho of the abstract bracket, with the
    # bracket written out from the structure constants
    data = liealg.LieData(family, n)

    def rho_signed(a, b):
        if a == b:
            return np.zeros((n, n), dtype=complex)
        if family == "sl":
            return liealg.rho(data, (a, b))
        return liealg.rho(data, (a, b)) if a < b else -liealg.rho(data, (b, a))

    worst = 0.0
    for x in data.basis_labels:
        i, j = x
        for y in data.basis_labels:
            h, k = y
            got = liealg.rho(data, x) @ liealg.rho(data, y) \
                - liealg.rho(data, y) @ liealg.rho(data, x)
            if family == "sl":
                want = ((liealg.rho(data, (i, k)) if j == h else 0.0)
                        - (liealg.rho(data, (h, j)) if i == k else 0.0))
            else:
                want = ((rho_signed(i, k) if j == h else 0.0)
                        + (rho_signed(k, j) if i == h else 0.0)
                        - (rho_signed(h, j) if i == k else 0.0)
                        - (rho_signed(i, h) if j == k else 0.0))
            worst = max(worst, fro(got - want))
    assert worst < 1e-13


@pytest.mark.parametrize("family,n,stat,cut", [
    ("sl", 2, Statistics.BOSE, 5),
    ("sl", 3, Statistics.BOSE, 4),
    ("sl", 3, Statistics.FERMI, None),
    ("so", 3, Statistics.BOSE, 4),
])
def test_sigma_is_a_homomorphism(family, n, stat, cut):
    data = liealg.LieData(family, n)
    sp = fock.build_space(n, stat, cut)
    smats = {lbl: m.toarray() for lbl, m in liealg.sigma_basis(sp, data).items()}
    worst = 0.0
    for (i, j), mx in smats.items():
        for (h, k), my in smats.items():
            got = mx @ my - my @ mx
            if family == "sl":
                want = (np.zeros_like(got)
                        + (smats[(i, k)] if j == h else 0.0)
                        - (smats[(h, j)] if i == k else 0.0))
            else:
                def lmat(a, b):
                    if a == b:
                        return np.zeros_like(got)
                    return smats[(a, b)] if a < b else -smats[(b, a)]
                want = ((lmat(i, k) if j == h else 0.0)
                        + (lmat(k, j) if i == h else 0.0)
                        - (lmat(h, j) if i == k else 0.0)
                        - (lmat(i, h) if j == k else 0.0))
            worst = max(worst, fro(got - want))
    assert worst < 1e-12


def test_sigma_jordan_schwinger_form_and_vacuum():
    sp = fock.build_space(2, Statistics.BOSE, 4)
    data = liealg.LieData("sl", 2)
    # the raising element acts as a+_1 a^2
    jplus = liealg.sigma(sp, data, (1, 2)).toarray()
    direct = sp.ap[0].toarray() @ sp.an[1].toarray()
    assert fro(jplus - direct) < 1e-14
    vac = sp.state_index((0, 0))
    for lbl in data.basis_labels:
        col = liealg.sigma(sp, data, lbl).toarray()[:, vac]
        assert np.linalg.norm(col) < 1e-14


def test_casimir_closed_form():
    # bosonic sl(2): eigenvalue on the n = 1 shell is 1*(2+1-1) - 1/2
    sp = fock.build_space(2, Statistics.BOSE, 5)
    data = liealg.LieData("sl", 2)
    cas = liealg.casimir_sigma(sp, data).toarray()
    k = sp.state_index((1, 0))
    assert abs(cas[k, k] - 1.5) < 1e-13
    vac = sp.state_index((0, 0))
    assert abs(cas[vac, vac]) < 1e-14
    # fermionic sl(3) against the closed form n(N - n + 1) - n^2/N
    spf = fock.build_space(3, Statistics.FERMI)
    dataf = liealg.LieData("sl", 3)
    casf = liealg.casimir_sigma(spf, dataf).toarray()
    closed = liealg.casimir_sl_closed_form(spf, dataf)
    assert fro(casf - np.diag(closed)) < 1e-12


def test_t_matrix_properties():
    # sl(2): (rho x rho)(t)/2 equals P - (1/N) with N = 2
    data = liealg.LieData("sl", 2)
    t = liealg.t_matrix(data)
    p = liealg.permutation_matrix(2)
    assert fro(t / 2 - (p - np.eye(4) / 2)) < 1e-14
    for family, n in (("sl", 2), ("sl", 3), ("so", 3)):
        d = liealg.LieData(family, n)
        tm = liealg.t_matrix(d)
        pm = liealg.permutation_matrix(n)
        assert fro(pm @ tm @ pm - tm) < 1e-13  # symmetric under the flip
        for lbl in d.basis_labels:
            cop = liealg.coproduct_rep(d, lbl)
            assert fro(cop @ tm - tm @ cop) < 1e-12  # invariance


def test_classical_action():
    sp = fock.build_space(2, Statistics.BOSE, 5)
    data = liealg.LieData("sl", 2)
    safe = np.ix_(sp.safe_mask(2), sp.safe_mask(2))

    ap2 = sp.ap[1]
    acted = liealg.classical_action(sp, data, (1, 2), ap2).toarray()
    ap1 = sp.ap[0].toarray()
    assert np.linalg.norm((acted - ap1)[safe]) < 1e-13

    ident = sparse.eye_array(sp.dim, dtype=complex, format="csr")
    assert fro(liealg.classical_action(sp, data, (1, 2), ident).toarray()) < 1e-14

    n = fock.diag(sp.shell)
    for lbl in data.basis_labels:
        assert fro(liealg.classical_action(sp, data, lbl, n).toarray()) < 1e-13


def test_covariance_of_creators():
    # [sigma(X), a+_i] = rho(X)^j_i a+_j on the safe subspace
    for family, n in (("sl", 3), ("so", 3)):
        data = liealg.LieData(family, n)
        sp = fock.build_space(n, Statistics.BOSE, 4)
        safe = np.ix_(sp.safe_mask(2), sp.safe_mask(2))
        ap = [m.toarray() for m in sp.ap]
        for lbl in data.basis_labels:
            s = liealg.sigma(sp, data, lbl).toarray()
            r = liealg.rho(data, lbl)
            for i in range(n):
                lhs = s @ ap[i] - ap[i] @ s
                rhs = sum(r[j, i] * ap[j] for j in range(n))
                assert np.linalg.norm((lhs - rhs)[safe], 2) < 1e-12


def test_label_validation():
    data = liealg.LieData("so", 3)
    with pytest.raises(ValueError):
        liealg.rho(data, (1, 1))
    with pytest.raises(ValueError):
        liealg.rho(liealg.LieData("sl", 2), (3, 1))
    with pytest.raises(ValueError):
        liealg.sigma(fock.build_space(3, Statistics.BOSE, 2),
                     liealg.LieData("sl", 2), (1, 1))
