import numpy as np
import pytest
from scipy import sparse

import sparse_route
from qheis import fock, liealg
from qheis.fock import Statistics
from sparse_route import csr_list


def fro(m):
    return float(np.linalg.norm(m))


def sigma_blocks(space, data):
    """sigma(x) of each basis label, as dense arrays written from the
    entries that sigma_entries returns (one per place)."""
    label, row, col, value = liealg.sigma_entries(space, data)
    assert len(set(zip(label.tolist(), row.tolist(), col.tolist()))) == label.size
    blocks = np.zeros((len(data.basis_labels), space.dim, space.dim), dtype=complex)
    blocks[label, row, col] = value
    return dict(zip(data.basis_labels, blocks))


@pytest.mark.parametrize("family,n,stat,cut", [
    ("sl", 2, Statistics.BOSE, 6),
    ("sl", 3, Statistics.BOSE, 4),
    ("sl", 3, Statistics.FERMI, None),
    ("so", 3, Statistics.BOSE, 4),
    ("so", 4, Statistics.BOSE, 3),
])
def test_sigma_basis_is_its_definition(family, n, stat, cut):
    # sum over (i, j) of rho(x)_ij a+_i a^j, one sparse addition per term
    # in (i, j) order: the two products of the sparse sigma_basis and the
    # gathers of sigma_entries give the same bits
    data = liealg.LieData(family, n)
    sp = fock.build_space(n, stat, cut)
    an, ap = csr_list(sp.an), csr_list(sp.ap)
    oracle, d = sparse_route.sigma_basis(sp, data).toarray(), sp.dim
    for k, (lbl, got) in enumerate(sigma_blocks(sp, data).items()):
        r = liealg.rho(data, lbl)
        want = sparse.csr_array((sp.dim, sp.dim), dtype=complex)
        for i in range(n):
            for j in range(n):
                if r[i, j] != 0:
                    want = want + r[i, j] * (ap[i] @ an[j])
        assert np.array_equal(got, want.toarray()), lbl
        assert np.array_equal(got, oracle[k * d:(k + 1) * d]), lbl


def entries_per_place(space, data):
    """The largest number of entries that one sigma(x) holds in a row and
    in a column."""
    label, row, col, _ = liealg.sigma_entries(space, data)
    return tuple(int(np.unique(label * space.dim + place, return_counts=True)[1].max())
                 for place in (row, col))


@pytest.mark.parametrize("stat,cut", [(Statistics.BOSE, 4), (Statistics.FERMI, None)],
                         ids=["bose", "fermi"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_sigma_is_one_shift_per_label(n, stat, cut):
    # the commutant check norms each label's defect by its largest modulus,
    # exact only when the label holds at most one entry per row and per
    # column
    sp = fock.build_space(n, stat, cut)
    assert entries_per_place(sp, liealg.LieData("sl", n)) == (1, 1)
    # an so(N) label does not: a+_1 a^2 - a+_2 a^1 moves |1, 1> two ways
    if n > 2 and stat is Statistics.BOSE:
        assert entries_per_place(sp, liealg.LieData("so", n)) == (2, 2)


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
    smats = sigma_blocks(sp, data)
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
    smats = sigma_blocks(sp, data)
    # the raising element acts as a+_1 a^2
    jplus = smats[(1, 2)]
    direct = csr_list(sp.ap)[0].toarray() @ csr_list(sp.an)[1].toarray()
    assert fro(jplus - direct) < 1e-14
    vac = sp.state_index((0, 0))
    for lbl in data.basis_labels:
        col = smats[lbl][:, vac]
        assert np.linalg.norm(col) < 1e-14


def test_covariance_of_creators():
    # [sigma(X), a+_i] = rho(X)^j_i a+_j on the safe subspace
    for family, n in (("sl", 3), ("so", 3)):
        data = liealg.LieData(family, n)
        sp = fock.build_space(n, Statistics.BOSE, 4)
        safe = np.ix_(sp.safe_mask(2), sp.safe_mask(2))
        ap = [m.toarray() for m in csr_list(sp.ap)]
        for lbl, s in sigma_blocks(sp, data).items():
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
        liealg.sigma_entries(fock.build_space(3, Statistics.BOSE, 2),
                             liealg.LieData("sl", 2))
