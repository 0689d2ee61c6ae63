import numpy as np
import pytest
from scipy import sparse

import sparse_route
from qheis import braid, deform, fock, verify
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams, qnum, y_sln
from sparse_route import csr_list


@pytest.fixture(scope="module")
def bose_space():
    return fock.build_space(2, Statistics.BOSE, 6)


@pytest.fixture(scope="module")
def fermi_space():
    return fock.build_space(2, Statistics.FERMI)


def ops(gens):
    """The A^i and then the A+_i of a generator set, as CSR arrays."""
    return csr_list(gens.a) + csr_list(gens.ap)


def entrywise_dev(g1, g2):
    return max(np.abs(a.toarray() - b.toarray()).max() for a, b in zip(ops(g1), ops(g2)))


def test_bose_map_classical_limit(bose_space):
    g1 = deform.sl2_bose_map(bose_space, DeformParams(1.0, WEYL))
    g0 = deform.classical_generators(bose_space, DeformParams(1.0, WEYL))
    assert entrywise_dev(g1, g0) == 0.0


def test_bose_map_matrix_elements(bose_space):
    q = 1.3
    gens = deform.sl2_bose_map(bose_space, DeformParams(q, WEYL))
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
    gens = deform.sl2_bose_map(bose_space, DeformParams(q, WEYL))
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
    gens = deform.sl2_fermi_map(fermi_space, DeformParams(q, CLIFFORD))
    # q = 1 is the identity map
    g1 = deform.sl2_fermi_map(fermi_space, DeformParams(1.0, CLIFFORD))
    g0 = deform.classical_generators(fermi_space, DeformParams(1.0, CLIFFORD))
    assert entrywise_dev(g1, g0) == 0.0
    # A+_1 |0,1> = q^-1 |1,1>
    src = fermi_space.state_index((0, 1))
    tgt = fermi_space.state_index((1, 1))
    ap1 = csr_list(gens.ap)[0].toarray()
    assert abs(ap1[tgt, src] - 1 / q) < 1e-15
    # nilpotency is inherited
    sq = ap1 @ ap1
    assert np.linalg.norm(sq) == 0.0


def test_sln_reduces_to_sl2(bose_space):
    params = DeformParams(1.3, WEYL)
    ga = deform.sln_candidate_map(bose_space, params, "above")
    gb = deform.sl2_bose_map(bose_space, params)
    assert entrywise_dev(ga, gb) == 0.0


def test_sln_classical_limit():
    sp = fock.build_space(3, Statistics.BOSE, 4)
    for ordering in ("above", "below"):
        g1 = deform.sln_candidate_map(sp, DeformParams(1.0, WEYL), ordering)
        g0 = deform.classical_generators(sp, DeformParams(1.0, WEYL))
        assert entrywise_dev(g1, g0) == 0.0


def test_removable_singularity_is_invisible(bose_space, monkeypatch):
    q = 1.3
    params = DeformParams(q, WEYL)
    alt = 2 * np.log(q) / (q * q - 1)  # the q -> 1-continuous convention
    ga = deform.sln_candidate_map(bose_space, params, "above")
    ratio = deform._ratio
    monkeypatch.setattr(deform, "_ratio", lambda q, cutoff: np.r_[alt, ratio(q, cutoff)[1:]])
    gb = deform.sln_candidate_map(bose_space, params, "above")
    assert deform._sqrt_ratio(q, 6)[0] == np.sqrt(alt)
    assert entrywise_dev(ga, gb) == 0.0


def test_inner_automorphism(bose_space):
    q = 1.3
    params = DeformParams(q, WEYL)
    gens = deform.sl2_bose_map(bose_space, params)
    rel = braid.build_relations("sl", 2, q, WEYL)

    ident = np.ones(bose_space.dim)
    same, cond = deform.inner_automorphism(gens, ident)
    assert cond == 1.0
    assert entrywise_dev(same, gens) == 0.0

    alpha = q ** bose_space.shell.astype(float)
    conj, _ = deform.inner_automorphism(gens, alpha)
    before = verify.cross_oracle(verify.dcr_residuals(gens, rel))["winner_residual"]
    after = verify.cross_oracle(verify.dcr_residuals(conj, rel))["winner_residual"]
    assert after < max(10 * before, 1e-12)

    # a diagonal alpha is exact at any spread: cond 1e20 is measured, not refused
    spread = np.where(bose_space.shell > 3, 1e-20, 1.0)
    _, cond = deform.inner_automorphism(gens, spread)
    assert cond == 1e20


@pytest.mark.parametrize("entry", [0.0, np.nan, np.inf])
def test_inner_automorphism_rejects_alpha(bose_space, entry):
    gens = deform.sl2_bose_map(bose_space, DeformParams(1.3, WEYL))
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

    gens = deform.sl2_bose_map(bose_space, params)
    conj, _ = deform.inner_automorphism(gens, alpha)
    oneside = deform.sl2_bose_onesided_map(bose_space, params)
    assert entrywise_dev(conj, oneside) < 1e-12


def test_hermiticity(bose_space):
    for q in (1.0, 1.3):
        gens = deform.sl2_bose_map(bose_space, DeformParams(q, WEYL))
        assert deform.hermiticity_residual(gens) < 1e-12
    oneside = deform.sl2_bose_onesided_map(bose_space, DeformParams(1.3, WEYL))
    assert deform.hermiticity_residual(oneside) > 1e-2  # u = y, v = 1 dressing


def test_grades(bose_space):
    gens = deform.sl2_bose_map(bose_space, DeformParams(0.7, WEYL))
    assert fock.grade_defect(bose_space, gens.a, -1) < 1e-13
    assert fock.grade_defect(bose_space, gens.ap, +1) < 1e-13
    assert fock.grade_defect(bose_space, gens.a, +1) > 1  # the grade shows


def test_classical_limit_linear_scaling(bose_space):
    def dev(eps):
        g1 = deform.sl2_bose_map(bose_space, DeformParams(1.0 + eps, WEYL))
        g0 = deform.classical_generators(bose_space, DeformParams(1.0, WEYL))
        return max(np.linalg.norm(a.toarray() - b.toarray(), 2)
                   for a, b in zip(ops(g1), ops(g0)))

    ratio = dev(1e-3) / dev(5e-4)
    assert abs(ratio - 2.0) < 0.1


def test_shape_validation(bose_space, fermi_space):
    with pytest.raises(ValueError):
        deform.sl2_bose_map(fock.build_space(3, Statistics.BOSE, 4),
                            DeformParams(1.3, WEYL))
    with pytest.raises(ValueError):
        deform.sl2_fermi_map(bose_space, DeformParams(1.3, CLIFFORD))
    with pytest.raises(ValueError):
        deform.sl2_fermi_map(fermi_space, DeformParams(1.3, WEYL))
    with pytest.raises(ValueError):
        deform.sln_candidate_map(fermi_space, DeformParams(1.3, WEYL))
    with pytest.raises(ValueError):
        deform.sln_candidate_map(bose_space, DeformParams(1.3, WEYL), "sideways")


def _per_state(space, f):
    """A diagonal built by one Python call per basis state."""
    return sparse.diags_array([complex(f(t)) for t in map(tuple, space.occ.tolist())],
                              format="csr", dtype=complex)


def _reference_maps(space, q):
    """Each map's generators from per-state dressing functions: the
    tabulated dressings must reproduce them exactly."""
    def sqrt_ratio(m):
        return 1.0 if m == 0 else float(np.sqrt(qnum(m, q * q).real / m))

    def ratio(m):
        return 1.0 if m == 0 else qnum(m, q * q).real / m

    an, ap = csr_list(space.an), csr_list(space.ap)
    if space.statistics is Statistics.FERMI:
        d1 = _per_state(space, lambda t: q ** (-t[1]))
        yield "fermi", [an[0] @ d1, an[1], d1 @ ap[0], ap[1]]
        return
    n = space.modes
    for ordering in ("above", "below"):
        a_ops, aplus_ops = [], []
        for i in range(n):
            tail = range(i + 1, n) if ordering == "above" else range(i)
            d = _per_state(space, lambda t, i=i, tail=tail:
                           sqrt_ratio(t[i]) * q ** sum(t[j] for j in tail))
            a_ops.append(an[i] @ d)
            aplus_ops.append(d @ ap[i])
        yield ordering, a_ops + aplus_ops
    if n == 2:
        d_up = _per_state(space, lambda t: q ** t[1])
        d1 = _per_state(space, lambda t: ratio(t[0]) * q ** t[1])
        d2 = _per_state(space, lambda t: ratio(t[1]))
        yield "onesided", [an[0] @ d1, an[1] @ d2, d_up @ ap[0], ap[1]]
        yield "alpha", [_per_state(space, lambda t: np.sqrt(
            (y_sln(t[0], q) * y_sln(t[1], q)).real))]


@pytest.mark.parametrize("q", [0.7, 1.3])
@pytest.mark.parametrize("modes, stat, cutoff", [
    (2, Statistics.BOSE, 3), (2, Statistics.BOSE, 12), (3, Statistics.BOSE, 3),
    (3, Statistics.BOSE, 12), (2, Statistics.FERMI, None)])
def test_tabulated_dressings_equal_per_state_reference(q, modes, stat, cutoff):
    space = fock.build_space(modes, stat, cutoff)
    weyl, clifford = DeformParams(q, WEYL), DeformParams(q, CLIFFORD)
    built = {
        "fermi": lambda: ops(deform.sl2_fermi_map(space, clifford)),
        "above": lambda: ops(deform.sln_candidate_map(space, weyl, "above")),
        "below": lambda: ops(deform.sln_candidate_map(space, weyl, "below")),
        "onesided": lambda: ops(deform.sl2_bose_onesided_map(space, weyl)),
        "alpha": lambda: [sparse_route.diag(deform.sl2_alpha_intertwiner(space, weyl))],
    }
    seen = []
    for name, reference in _reference_maps(space, q):
        for got, want in zip(built[name](), reference, strict=True):
            assert got.nnz == want.nnz, name
            assert np.array_equal(got.toarray(), want.toarray()), name
        seen.append(name)
    expected = {Statistics.FERMI: ["fermi"]}.get(
        stat, ["above", "below"] + (["onesided", "alpha"] if modes == 2 else []))
    assert seen == expected
