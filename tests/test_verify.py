import dataclasses

import numpy as np
import pytest
from scipy import sparse

import sparse_route
from qheis import braid, deform, fock, liealg, suites, verify
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams
from sparse_route import csr_list


def derived(space, q):
    """The map that candidate qR of the sl(N) relations at q derives on
    the space, with the sign its statistics take."""
    sign = CLIFFORD if space.statistics is Statistics.FERMI else WEYL
    return deform.derive_map(space, braid.build_relations("sl", space.modes, q, sign), "qR")


def worst_own_dcr(gens, rel, candidate="qR"):
    """The largest DCR residual of a set against one cross candidate alone."""
    only = dataclasses.replace(rel, cross_candidates={candidate: rel.cross_candidates[candidate]})
    return max(r.residual for r in verify.dcr_residuals(gens, only))


def test_case_result_invariants():
    c = verify.CaseResult("x", 1e-12, 1e-10)
    assert c.passed
    assert not verify.CaseResult("x", 1e-9, 1e-10).passed
    with pytest.raises(ValueError):
        verify.CaseResult("x", float("nan"), 1e-10)


def test_report_sorts_cases():
    r = verify.Report("s", {}, [verify.CaseResult("b", 0, 1),
                                verify.CaseResult("a", 0, 1)])
    assert [c.name for c in r.cases] == ["a", "b"]
    assert all(c.passed for c in r.cases)


def test_classical_dcr_at_q1():
    sp = fock.build_space(2, Statistics.BOSE, 6)
    gens = deform.classical_generators(sp, DeformParams(1.0, WEYL))
    rel = braid.build_relations("sl", 2, 1.0, WEYL)
    for row in verify.dcr_residuals(gens, rel, tol=1e-13):
        assert row.residual < 1e-13, row.name


def test_one_candidate_holds_at_every_q_and_cutoff():
    # the map of one candidate holds its relations, the other's fails at
    # order one, and the same candidate wins across q and cutoff
    winners = set()
    for cutoff in (5, 8):
        sp = fock.build_space(2, Statistics.BOSE, cutoff)
        for q in (0.7, 1.3):
            rel = braid.build_relations("sl", 2, q, WEYL)
            _, rows = suites._derived_dcr(sp, rel, tol=1e-10)
            rows = {r.name: r for r in rows}
            assert all(rows[k].residual < 1e-10 for k in ("dcr_aa", "dcr_apap", "dcr_cross_winner"))
            assert rows["cross_negative_control"].metadata["raw_residual"] > 1e-2
            winners.add(rows["dcr_cross_winner"].metadata["candidate"])
    assert winners == {"qR"}


def test_residuals_shrink_with_cutoff():
    # safe-projected residuals stay at the numerical floor as the cutoff
    # grows: defects are truncation artifacts only
    worst = {}
    rel = braid.build_relations("sl", 2, 1.3, WEYL)
    for cutoff in (5, 8):
        sp = fock.build_space(2, Statistics.BOSE, cutoff)
        worst[cutoff] = worst_own_dcr(deform.derive_map(sp, rel, "qR"), rel)
    assert worst[8] <= max(2.0 * worst[5], 1e-13)


def test_fermi_dcr_exact():
    sp = fock.build_space(2, Statistics.FERMI)
    for q in (0.7, 1.3):
        rel = braid.build_relations("sl", 2, q, CLIFFORD)
        assert worst_own_dcr(deform.derive_map(sp, rel, "qR"), rel) < 1e-13


def test_parameter_mismatch_rejected():
    sp = fock.build_space(2, Statistics.BOSE, 5)
    gens = derived(sp, 1.3)
    rel = braid.build_relations("sl", 2, 0.7, WEYL)
    with pytest.raises(ValueError):
        verify.dcr_residuals(gens, rel)
    rel3 = braid.build_relations("sl", 3, 1.3, WEYL)
    with pytest.raises(ValueError):
        verify.dcr_residuals(gens, rel3)


def test_number_op_relations():
    sp = fock.build_space(2, Statistics.BOSE, 7)
    for q in (0.7, 1.3):
        gens = derived(sp, q)
        for row in verify.number_op_check(gens, tol=1e-10):
            assert row.passed, (row.name, row.residual)
    # q = 1: the deformed number operator is the classical one
    gens1 = deform.classical_generators(sp, DeformParams(1.0, WEYL))
    nh = gens1.number_diagonal()[:-1]
    assert np.linalg.norm(nh - sp.shell) < 1e-13


@pytest.mark.parametrize("q", [0.7, 1.3])
def test_qnumber_spectrum_scale_aware(q):
    # the spectrum residual is relative to max(1, max |(n)_{q^2}|): the true
    # map passes at every cutoff, a map built at 1.01 q fails at every cutoff
    for cutoff in range(4, 17):
        sp = fock.build_space(2, Statistics.BOSE, cutoff)
        gens = derived(sp, q)
        off = dataclasses.replace(derived(sp, 1.01 * q),
                                  params=gens.params)
        good, bad = (next(r for r in verify.number_op_check(g)
                          if r.name == "qnumber_spectrum") for g in (gens, off))
        assert good.passed, (cutoff, good.residual)
        assert not bad.passed, (cutoff, bad.residual)
        assert good.metadata["scale"] >= 1.0
        assert good.residual == good.metadata["raw_residual"] / good.metadata["scale"]


def classical_so_set(n, cutoff):
    sp = fock.build_space(n, Statistics.BOSE, cutoff)
    gens = deform.classical_generators(sp, DeformParams(1.0, WEYL))
    return sp, gens


def test_metric_invariants_classical():
    # at q = 1 with the identity metric the four relations are elementary
    # Weyl-algebra identities, e.g. [a.a, a+_i] = 2 a^i and [a.a, a^i] = 0
    sp, gens = classical_so_set(3, 6)
    eye = np.eye(3, dtype=complex)
    rows = verify.metric_invariant_check(gens, eye, eye, 1.0)
    for row in rows:
        assert row.passed, (row.name, row.residual)


def test_metric_invariants_negative_control():
    sp, gens = classical_so_set(3, 5)
    eye = np.eye(3, dtype=complex)
    # perturb one annihilator; the residual must scale with the perturbation
    delta = 1e-3
    vals = gens.a.vals.copy()
    vals[0] = vals[0] + delta * vals[0]  # A^1 + delta (a+_1)^T
    bad = fock.LadderTable(gens.a.cols, vals)
    rows = verify.metric_invariant_check(dataclasses.replace(gens, a=bad), eye, eye, 1.0)
    worst = max(r.residual for r in rows)
    assert 1e-4 < worst < 1.0


def test_invariant_commutant():
    sp = fock.build_space(2, Statistics.BOSE, 6)
    data = liealg.LieData("sl", 2)
    gens = derived(sp, 1.3)
    for row in verify.invariant_commutant_check(gens, data, tol=1e-11):
        assert row.passed
    # classical control: [sigma(X), n] = 0 exactly
    gens1 = deform.classical_generators(sp, DeformParams(1.0, WEYL))
    for row in verify.invariant_commutant_check(gens1, data, tol=1e-13):
        assert row.passed


def test_invariant_commutant_with_supplied_quadratics():
    # so(3): the scalar products a.a and a+.a+ commute with every sigma(X),
    # read by the sparse route (the package's check takes sl(N) data)
    sp, gens = classical_so_set(3, 5)
    data = liealg.LieData("so", 3)
    aa = sum(a @ a for a in csr_list(gens.a))
    sigma = sparse_route.sigma_basis(sp, data)
    labels = len(data.basis_labels)
    for inv in (aa, aa.conj().T):
        assert sparse_route.projected_norms(
            sp, sigma @ inv - sparse.kron(sparse.eye_array(labels), inv) @ sigma, 2) <= 1e-12
    # a non-invariant control: the rotation of modes 1 and 2 moves a.a + a^1 a^2
    a = csr_list(gens.a)
    bad = aa + a[0] @ a[1]
    assert sparse_route.projected_norms(
        sp, sigma @ bad - sparse.kron(sparse.eye_array(labels), bad) @ sigma, 2) > 0.1


def test_commutant_check_refuses_a_non_finite_safe_entry():
    # a nan or inf N_h entry on a state safe at degree 2 makes the residual
    # non-finite, which CaseResult refuses; on a top-shell state, which is
    # not safe, it is dropped with the rest of its row and column
    sp = fock.build_space(2, Statistics.BOSE, 6)
    data = liealg.LieData("sl", 2)
    gens = derived(sp, 1.3)
    safe = int(np.flatnonzero((sp.shell == 2) & (sp.occ[:, 0] > 0))[0])
    top = int(np.flatnonzero((sp.shell == sp.cutoff) & (sp.occ[:, 0] > 0))[0])
    [clean] = verify.invariant_commutant_check(gens, data, tol=1e-11)
    for bad in (np.nan, np.inf):
        for at in (safe, top):
            vals = gens.ap.vals.copy()
            vals[0, at] = bad  # A+_1 on that state, so N_h there is bad
            broken = dataclasses.replace(gens, ap=fock.LadderTable(gens.ap.cols, vals))
            with np.errstate(invalid="ignore"):  # inf times a zero part, inf - inf
                assert not np.isfinite(broken.number_diagonal()[at])
                if at == safe:
                    with pytest.raises(ValueError, match="non-finite residual"):
                        verify.invariant_commutant_check(broken, data, tol=1e-11)
                else:
                    [row] = verify.invariant_commutant_check(broken, data, tol=1e-11)
                    assert row.residual == clean.residual


def test_fermionic_commutant_check_can_fail():
    # on the fermionic space the check sees all four states: N_h of the
    # Clifford map stays in the commutant, while doubling A+_1 gives the
    # non-invariant N_h = 2 n_1 + n_2, which sigma(E_12) = a+_1 a^2 moves
    sp = fock.build_space(2, Statistics.FERMI)
    data = liealg.LieData("sl", 2)
    gens = derived(sp, 1.3)
    [good] = verify.invariant_commutant_check(gens, data, tol=1e-12)
    assert good.passed
    doubled = dataclasses.replace(gens, ap=fock.LadderTable(
        gens.ap.cols, np.array([[2.0], [1.0]]) * gens.ap.vals))
    [bad] = verify.invariant_commutant_check(doubled, data, tol=1e-12)
    assert not bad.passed
    assert bad.residual > 0.5


def test_qnumber_sign_tied_to_statistics():
    # the exponential in the number-operator relations carries q^(2 sign);
    # using the Weyl exponent on the fermionic map must fail visibly
    sp = fock.build_space(2, Statistics.FERMI)
    gens = derived(sp, 1.3)
    good = max(r.residual for r in verify.number_op_check(gens)
               if "relation" in r.name)
    assert good < 1e-13
    wrong = deform.DeformedGenerators(sp, DeformParams(1.3, WEYL), gens.a, gens.ap)
    bad = max(r.residual for r in verify.number_op_check(wrong)
              if "relation" in r.name)
    assert bad > 1e-2


def test_dcr_products_do_not_grow_with_n(monkeypatch):
    # the checks of a dressed-ladder set gather on its ladder tables, so
    # they make no sparse product at any N: not the relation defects, the
    # number operator, the commutant nor the hermiticity row
    products = []
    original = sparse.csr_array._matmul_sparse

    def counting(self, other):
        products.append(other.shape)
        return original(self, other)

    for n in (2, 3, 4):
        for stat, cut in ((Statistics.BOSE, 3), (Statistics.FERMI, None)):
            sp = fock.build_space(n, stat, cut)
            sign = WEYL if stat is Statistics.BOSE else CLIFFORD
            gens = deform.classical_generators(sp, DeformParams(1.3, sign))
            rel = braid.build_relations("sl", n, 1.3, sign)
            data = liealg.LieData("sl", n)
            monkeypatch.setattr(sparse.csr_array, "_matmul_sparse", counting)
            verify.dcr_residuals(gens, rel)
            verify.number_op_check(gens)
            verify.invariant_commutant_check(gens, data)
            deform.hermiticity_residual(gens)
            monkeypatch.undo()
    assert products == []
    # the counter sees a product when there is one
    monkeypatch.setattr(sparse.csr_array, "_matmul_sparse", counting)
    sparse_route.column(sp.an) @ sparse_route.row(sp.ap)
    assert len(products) == 1
