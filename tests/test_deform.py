import dataclasses

import numpy as np
import pytest
from scipy import sparse

import sparse_route
from qheis import braid, deform, fock, suites, verify
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams, qnum, y_sln
from sparse_route import csr_list


@pytest.fixture(scope="module")
def bose_space():
    return fock.build_space(2, Statistics.BOSE, 6)


@pytest.fixture(scope="module")
def fermi_space():
    return fock.build_space(2, Statistics.FERMI)


def derived(space, q, candidate="qR"):
    """The map that a cross candidate of the sl(N) relations at q derives
    on the space, with the sign its statistics take."""
    sign = CLIFFORD if space.statistics is Statistics.FERMI else WEYL
    return deform.derive_map(space, braid.build_relations("sl", space.modes, q, sign), candidate)


def own_dcr(gens, rel, candidate):
    """The DCR rows of a set against one cross candidate alone."""
    only = dataclasses.replace(rel, cross_candidates={candidate: rel.cross_candidates[candidate]})
    return verify.dcr_residuals(gens, only)


def ops(gens):
    """The A^i and then the A+_i of a generator set, as CSR arrays."""
    return csr_list(gens.a) + csr_list(gens.ap)


def entrywise_dev(g1, g2):
    return max(np.abs(a.toarray() - b.toarray()).max() for a, b in zip(ops(g1), ops(g2)))


SPACES = [(2, Statistics.BOSE), (3, Statistics.BOSE), (4, Statistics.BOSE),
          (2, Statistics.FERMI), (3, Statistics.FERMI), (4, Statistics.FERMI)]
SPACE_IDS = [f"{'weyl' if s is Statistics.BOSE else 'clifford'}-N{n}" for n, s in SPACES]


@pytest.mark.parametrize("q", [0.7, 1.3])
@pytest.mark.parametrize("n, stat", SPACES, ids=SPACE_IDS)
def test_derived_x_is_the_closed_form(n, stat, q):
    # the eigenvalue x_i of A+_i A^i, read off the tables, against
    # x_i = (n_i)_{q^{2s}} q^{2s sum_{j>i} n_j}
    space = fock.build_space(n, stat, 8)
    gens = derived(space, q)
    q2s = q ** (2 * gens.params.sign)
    d = space.dim
    x = gens.ap.vals[:, :d] * gens.a.vals[np.arange(n)[:, None], space.ap.cols[:, :d]]
    want = np.array([[qnum(t[i], q2s).real * q2s ** sum(t[i + 1:]) for t in space.occ.tolist()]
                     for i in range(n)])
    assert (np.abs(x - want) <= 1e-13 * np.abs(want)).all()


@pytest.mark.parametrize("n, stat", SPACES, ids=SPACE_IDS)
def test_derived_map_at_q1_is_classical(n, stat):
    space = fock.build_space(n, stat, 5)
    for candidate in ("qR", "qR_inv"):
        gens = derived(space, 1.0, candidate)
        assert np.array_equal(gens.a.vals, space.an.vals), candidate
        assert np.array_equal(gens.ap.vals, space.ap.vals), candidate


@pytest.mark.parametrize("n, stat, cutoff", [(2, Statistics.BOSE, 8), (4, Statistics.BOSE, 5),
                                             (2, Statistics.FERMI, None),
                                             (3, Statistics.FERMI, None)])
def test_qR_wins_at_every_q(n, stat, cutoff):
    # the selection the suites make: the map of qR holds its relations,
    # the map of qR_inv fails its own at order one
    space = fock.build_space(n, stat, cutoff)
    sign = CLIFFORD if stat is Statistics.FERMI else WEYL
    for q in (0.63, 0.77, 1.17, 1.43):
        rel = braid.build_relations("sl", n, q, sign)
        gens, rows = suites._derived_dcr(space, rel, tol=1e-10)
        rows = {r.name: r for r in rows}
        assert gens.params == DeformParams(q, sign)
        assert rows["dcr_cross_winner"].metadata["candidate"] == "qR", q
        assert max(rows[k].residual for k in ("dcr_aa", "dcr_apap", "dcr_cross_winner")) < 1e-13
        control = rows["cross_negative_control"]
        assert control.metadata["candidate"] == "qR_inv"
        assert control.passed and control.metadata["raw_residual"] >= 0.3, q


@pytest.mark.parametrize("q", [0.7, 1.3])
@pytest.mark.parametrize("n", [3, 4])
def test_clifford_sln_holds_every_dcr(n, q):
    # no suite checks Clifford sl(N) beyond N = 2
    space = fock.build_space(n, Statistics.FERMI)
    rel = braid.build_relations("sl", n, q, CLIFFORD)
    rows = own_dcr(deform.derive_map(space, rel, "qR"), rel, "qR")
    assert [r.name for r in rows] == ["dcr_aa", "dcr_apap", "dcr_cross[qR]"]
    assert max(r.residual for r in rows) <= 1e-14


def test_bose_map_matrix_elements(bose_space):
    q = 1.3
    gens = derived(bose_space, q)
    src = bose_space.state_index((0, 1))
    tgt = bose_space.state_index((0, 2))
    amp = csr_list(gens.ap)[1].toarray()[tgt, src]
    assert abs(amp - np.sqrt(qnum(2, q * q).real)) < 1e-14
    # vacuum and one-particle states coincide with the classical ones
    vac = bose_space.state_index((0, 0))
    for ap, classical in zip(csr_list(gens.ap), csr_list(bose_space.ap)):
        classical = classical.toarray()[:, vac]
        assert np.linalg.norm(ap.toarray()[:, vac] - classical) < 1e-14


def test_bose_number_operator_spectrum(bose_space):
    q = 1.3
    gens = derived(bose_space, q)
    nh = sparse_route.number_operator(gens).toarray()
    assert np.array_equal(gens.number_diagonal()[:-1], np.diag(nh))
    expected = np.array([qnum(v, q * q).real for v in bose_space.shell])
    assert np.abs(np.diag(nh).real - expected).max() < 1e-12
    assert np.abs(nh - np.diag(np.diag(nh))).max() < 1e-12
    # eigenvalue at n = 3 is 1 + q^2 + q^4
    k = bose_space.state_index((2, 1))
    assert abs(nh[k, k] - (1 + q**2 + q**4)) < 1e-12


def test_fermi_map(fermi_space):
    q = 1.3
    gens = derived(fermi_space, q)
    # A+_1 |0,1> = q^-1 |1,1>
    src = fermi_space.state_index((0, 1))
    tgt = fermi_space.state_index((1, 1))
    ap1 = csr_list(gens.ap)[0].toarray()
    assert abs(ap1[tgt, src] - 1 / q) < 1e-15
    # nilpotency is inherited
    sq = ap1 @ ap1
    assert np.linalg.norm(sq) == 0.0


def test_removable_singularity_is_invisible(bose_space, monkeypatch):
    # the one-sided map's value of (n)_{q^2}/n at the removable n = 0
    # reaches no nonzero entry
    q = 1.3
    params = DeformParams(q, WEYL)
    alt = 2 * np.log(q) / (q * q - 1)  # the q -> 1-continuous convention
    ga = deform.sl2_bose_onesided_map(bose_space, params)
    ratio = deform._ratio
    monkeypatch.setattr(deform, "_ratio", lambda q, cutoff: np.r_[alt, ratio(q, cutoff)[1:]])
    gb = deform.sl2_bose_onesided_map(bose_space, params)
    assert deform._ratio(q, 6)[0] == alt
    assert entrywise_dev(ga, gb) == 0.0


def test_inner_automorphism(bose_space):
    q = 1.3
    params = DeformParams(q, WEYL)
    rel = braid.build_relations("sl", 2, q, WEYL)
    gens = deform.derive_map(bose_space, rel, "qR")

    ident = np.ones(bose_space.dim)
    same, cond = deform.inner_automorphism(gens, ident)
    assert cond == 1.0
    assert entrywise_dev(same, gens) == 0.0

    alpha = q ** bose_space.shell.astype(float)
    conj, _ = deform.inner_automorphism(gens, alpha)
    before = max(r.residual for r in own_dcr(gens, rel, "qR"))
    after = max(r.residual for r in own_dcr(conj, rel, "qR"))
    assert after < max(10 * before, 1e-12)

    # a diagonal alpha is exact at any spread: cond 1e20 is measured, not refused
    spread = np.where(bose_space.shell > 3, 1e-20, 1.0)
    _, cond = deform.inner_automorphism(gens, spread)
    assert cond == 1e20


@pytest.mark.parametrize("entry", [0.0, np.nan, np.inf])
def test_inner_automorphism_rejects_alpha(bose_space, entry):
    gens = derived(bose_space, 1.3)
    d = np.ones(bose_space.dim, dtype=complex)
    d[-1] = entry
    with pytest.raises(ValueError, match="zero or non-finite diagonal entry"):
        deform.inner_automorphism(gens, d)


def test_alpha_intertwiner(bose_space):
    q = 1.3
    params = DeformParams(q, WEYL)
    alpha = deform.sl2_alpha_intertwiner(bose_space, params)
    vac = bose_space.state_index((0, 0))
    assert abs(alpha[vac] - 1.0) < 1e-15
    k = bose_space.state_index((2, 0))
    assert abs(alpha[k] - np.sqrt(2 / (1 + q * q))) < 1e-14

    gens = derived(bose_space, q)
    conj, _ = deform.inner_automorphism(gens, alpha)
    oneside = deform.sl2_bose_onesided_map(bose_space, params)
    assert entrywise_dev(conj, oneside) < 1e-12


def test_hermiticity(bose_space):
    for q in (1.0, 1.3):
        gens = derived(bose_space, q)
        assert deform.hermiticity_residual(gens) < 1e-12
    oneside = deform.sl2_bose_onesided_map(bose_space, DeformParams(1.3, WEYL))
    assert deform.hermiticity_residual(oneside) > 1e-2  # u = y, v = 1 dressing


def test_grades(bose_space):
    gens = derived(bose_space, 0.7)
    assert fock.grade_defect(bose_space, gens.a, -1) < 1e-13
    assert fock.grade_defect(bose_space, gens.ap, +1) < 1e-13
    assert fock.grade_defect(bose_space, gens.a, +1) > 1  # the grade shows


def test_classical_limit_linear_scaling(bose_space):
    def dev(eps):
        g1 = derived(bose_space, 1.0 + eps)
        g0 = deform.classical_generators(bose_space, DeformParams(1.0, WEYL))
        return max(np.linalg.norm(a.toarray() - b.toarray(), 2)
                   for a, b in zip(ops(g1), ops(g0)))

    ratio = dev(1e-3) / dev(5e-4)
    assert abs(ratio - 2.0) < 0.1


def test_shape_validation(bose_space, fermi_space):
    # a relation of another N, family or sign than the space takes
    for space, rel in ((bose_space, braid.build_relations("sl", 3, 1.3, WEYL)),
                       (bose_space, braid.build_relations("so", 2, 1.3, WEYL)),
                       (bose_space, braid.build_relations("sl", 2, 1.3, CLIFFORD)),
                       (fermi_space, braid.build_relations("sl", 2, 1.3, WEYL))):
        with pytest.raises(ValueError, match="no sl"):
            deform.derive_map(space, rel, "qR")


def _per_state(space, f):
    """A diagonal built by one Python call per basis state."""
    return sparse.diags_array([complex(f(t)) for t in map(tuple, space.occ.tolist())],
                              format="csr", dtype=complex)


def _reference_maps(space, q):
    """The written-out sl(2) maps' generators from per-state dressing
    functions: the tabulated dressings must reproduce them exactly."""
    def ratio(m):
        return 1.0 if m == 0 else qnum(m, q * q).real / m

    an, ap = csr_list(space.an), csr_list(space.ap)
    d_up = _per_state(space, lambda t: q ** t[1])
    d1 = _per_state(space, lambda t: ratio(t[0]) * q ** t[1])
    d2 = _per_state(space, lambda t: ratio(t[1]))
    yield "onesided", [an[0] @ d1, an[1] @ d2, d_up @ ap[0], ap[1]]
    yield "alpha", [_per_state(space, lambda t: np.sqrt(
        (y_sln(t[0], q) * y_sln(t[1], q)).real))]


@pytest.mark.parametrize("q", [0.7, 1.3])
@pytest.mark.parametrize("modes, stat, cutoff", [(2, Statistics.BOSE, 3), (2, Statistics.BOSE, 12)])
def test_tabulated_dressings_equal_per_state_reference(q, modes, stat, cutoff):
    space = fock.build_space(modes, stat, cutoff)
    weyl = DeformParams(q, WEYL)
    built = {
        "onesided": lambda: ops(deform.sl2_bose_onesided_map(space, weyl)),
        "alpha": lambda: [sparse_route.diag(deform.sl2_alpha_intertwiner(space, weyl))],
    }
    seen = []
    for name, reference in _reference_maps(space, q):
        for got, want in zip(built[name](), reference, strict=True):
            assert got.nnz == want.nnz, name
            assert np.array_equal(got.toarray(), want.toarray()), name
        seen.append(name)
    assert seen == ["onesided", "alpha"]
