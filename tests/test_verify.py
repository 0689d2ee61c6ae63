import dataclasses

import numpy as np
import pytest

from qheis import braid, deform, fock, liealg, verify
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams


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
    assert r.all_passed


def test_classical_dcr_at_q1():
    sp = fock.build_space(2, Statistics.BOSE, 6)
    gens = deform.classical_generators(sp, DeformParams(1.0, WEYL))
    rel = braid.build_relations("sl", 2, 1.0, WEYL)
    for row in verify.dcr_residuals(gens, rel, tol=1e-13):
        assert row.residual < 1e-13, row.name


def test_oracle_uniqueness_and_stability():
    # the winning candidate is stable across q and cutoff
    winners = set()
    for cutoff in (5, 8):
        sp = fock.build_space(2, Statistics.BOSE, cutoff)
        for q in (0.7, 1.3):
            gens = deform.sl2_bose_map(sp, DeformParams(q, WEYL))
            rel = braid.build_relations("sl", 2, q, WEYL)
            oracle = verify.cross_oracle(verify.dcr_residuals(gens, rel))
            assert oracle["unique"]
            assert oracle["winner_residual"] < 1e-10
            assert oracle["loser_residual"] > 1e-2
            winners.add(oracle["winner"])
    assert len(winners) == 1


def test_residuals_shrink_with_cutoff():
    # safe-projected residuals stay at the numerical floor as the cutoff
    # grows: defects are truncation artifacts only
    worst = {}
    for cutoff in (5, 8):
        sp = fock.build_space(2, Statistics.BOSE, cutoff)
        gens = deform.sl2_bose_map(sp, DeformParams(1.3, WEYL))
        rel = braid.build_relations("sl", 2, 1.3, WEYL)
        worst[cutoff] = verify.cross_oracle(
            verify.dcr_residuals(gens, rel))["winner_residual"]
    assert worst[8] <= max(2.0 * worst[5], 1e-13)


def test_fermi_dcr_exact():
    sp = fock.build_space(2, Statistics.FERMI)
    for q in (0.7, 1.3):
        gens = deform.sl2_fermi_map(sp, DeformParams(q, CLIFFORD))
        rel = braid.build_relations("sl", 2, q, CLIFFORD)
        oracle = verify.cross_oracle(verify.dcr_residuals(gens, rel, degree=0))
        assert oracle["winner_residual"] < 1e-13


def test_parameter_mismatch_rejected():
    sp = fock.build_space(2, Statistics.BOSE, 5)
    gens = deform.sl2_bose_map(sp, DeformParams(1.3, WEYL))
    rel = braid.build_relations("sl", 2, 0.7, WEYL)
    with pytest.raises(ValueError):
        verify.dcr_residuals(gens, rel)
    rel3 = braid.build_relations("sl", 3, 1.3, WEYL)
    with pytest.raises(ValueError):
        verify.dcr_residuals(gens, rel3)


def test_number_op_relations():
    sp = fock.build_space(2, Statistics.BOSE, 7)
    for q in (0.7, 1.3):
        gens = deform.sl2_bose_map(sp, DeformParams(q, WEYL))
        for row in verify.number_op_check(gens, tol=1e-10):
            assert row.passed, (row.name, row.residual)
    # q = 1: the deformed number operator is the classical one
    gens1 = deform.classical_generators(sp, DeformParams(1.0, WEYL))
    nh = gens1.number_operator().matrix.toarray()
    assert np.linalg.norm(nh - fock.total_number(sp).matrix.toarray()) < 1e-13


@pytest.mark.parametrize("q", [0.7, 1.3])
def test_qnumber_spectrum_scale_aware(q):
    # the spectrum residual is relative to max(1, max |(n)_{q^2}|): the true
    # map passes at every cutoff, a map built at 1.01 q fails at every cutoff
    for cutoff in range(4, 17):
        sp = fock.build_space(2, Statistics.BOSE, cutoff)
        gens = deform.sl2_bose_map(sp, DeformParams(q, WEYL))
        off = dataclasses.replace(deform.sl2_bose_map(sp, DeformParams(1.01 * q, WEYL)),
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
    rows = verify.metric_invariant_check(gens.a_ops, gens.aplus_ops,
                                         eye, eye, 1.0, tol=1e-12)
    for row in rows:
        assert row.passed, (row.name, row.residual)


def test_metric_invariants_negative_control():
    sp, gens = classical_so_set(3, 5)
    eye = np.eye(3, dtype=complex)
    # perturb one annihilator; the residual must scale with the perturbation
    delta = 1e-3
    bad = list(gens.a_ops)
    bad[0] = fock.LinOp(sp, bad[0].matrix + delta * fock.creator(sp, 1).matrix.T, -1)
    rows = verify.metric_invariant_check(bad, gens.aplus_ops, eye, eye, 1.0)
    worst = max(r.residual for r in rows)
    assert 1e-4 < worst < 1.0


def test_invariant_commutant():
    sp = fock.build_space(2, Statistics.BOSE, 6)
    data = liealg.LieData("sl", 2)
    gens = deform.sl2_bose_map(sp, DeformParams(1.3, WEYL))
    for row in verify.invariant_commutant_check(gens, data, tol=1e-11):
        assert row.passed
    # classical control: [sigma(X), n] = 0 exactly
    gens1 = deform.classical_generators(sp, DeformParams(1.0, WEYL))
    for row in verify.invariant_commutant_check(gens1, data, tol=1e-13):
        assert row.passed


def test_invariant_commutant_with_supplied_quadratics():
    # so(3): the scalar products a.a and a+.a+ are invariants as well
    sp, gens = classical_so_set(3, 5)
    data = liealg.LieData("so", 3)
    aa = sum(a.matrix @ a.matrix for a in gens.a_ops)
    extra = {"a.a": aa, "a+.a+": aa.conj().T}
    rows = verify.invariant_commutant_check(gens, data, tol=1e-12,
                                            extra_invariants=extra)
    assert {r.name for r in rows} == {"commutant[qnumber_operator]",
                                      "commutant[a.a]", "commutant[a+.a+]"}
    for row in rows:
        assert row.passed


def test_qnumber_sign_tied_to_statistics():
    # the exponential in the number-operator relations carries q^(2 sign);
    # using the Weyl exponent on the fermionic map must fail visibly
    sp = fock.build_space(2, Statistics.FERMI)
    gens = deform.sl2_fermi_map(sp, DeformParams(1.3, CLIFFORD))
    good = max(r.residual for r in verify.number_op_check(gens)
               if "relation" in r.name)
    assert good < 1e-13
    wrong = deform.DeformedGenerators(sp, DeformParams(1.3, WEYL),
                                      gens.a_ops, gens.aplus_ops, "mislabeled")
    bad = max(r.residual for r in verify.number_op_check(wrong)
              if "relation" in r.name)
    assert bad > 1e-2
