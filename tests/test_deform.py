import numpy as np
import pytest

from qheis import braid, deform, fock, verify
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams, qnum


@pytest.fixture(scope="module")
def bose_space():
    return fock.build_space(2, Statistics.BOSE, 6)


@pytest.fixture(scope="module")
def fermi_space():
    return fock.build_space(2, Statistics.FERMI)


def entrywise_dev(g1, g2):
    return max(np.abs(a.matrix.toarray() - b.matrix.toarray()).max()
               for a, b in zip(g1.a_ops + g1.aplus_ops, g2.a_ops + g2.aplus_ops))


def test_bose_map_classical_limit(bose_space):
    g1 = deform.sl2_bose_map(bose_space, DeformParams(1.0, WEYL))
    g0 = deform.classical_generators(bose_space, DeformParams(1.0, WEYL))
    assert entrywise_dev(g1, g0) == 0.0


def test_bose_map_matrix_elements(bose_space):
    q = 1.3
    gens = deform.sl2_bose_map(bose_space, DeformParams(q, WEYL))
    src = bose_space.state_index((0, 1))
    tgt = bose_space.state_index((0, 2))
    amp = gens.aplus_ops[1].matrix.toarray()[tgt, src]
    assert abs(amp - np.sqrt(qnum(2, q * q).real)) < 1e-14
    # vacuum and one-particle states coincide with the classical ones
    vac = bose_space.state_index((0, 0))
    for i, ap in enumerate(gens.aplus_ops, start=1):
        classical = fock.creator(bose_space, i).matrix.toarray()[:, vac]
        assert np.linalg.norm(ap.matrix.toarray()[:, vac] - classical) < 1e-14


def test_bose_number_operator_spectrum(bose_space):
    q = 1.3
    gens = deform.sl2_bose_map(bose_space, DeformParams(q, WEYL))
    nh = gens.number_operator().matrix.toarray()
    ntot = bose_space.total_occupations()
    expected = np.array([qnum(v, q * q).real for v in ntot])
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
    assert abs(gens.aplus_ops[0].matrix.toarray()[tgt, src] - 1 / q) < 1e-15
    # nilpotency is inherited
    sq = gens.aplus_ops[0].matrix.toarray() @ gens.aplus_ops[0].matrix.toarray()
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


def test_removable_singularity_is_invisible(bose_space):
    q = 1.3
    params = DeformParams(q, WEYL)
    alt = 2 * np.log(q) / (q * q - 1)  # the q -> 1-continuous convention
    ga = deform.sln_candidate_map(bose_space, params, "above", at_zero=1.0)
    gb = deform.sln_candidate_map(bose_space, params, "above", at_zero=alt)
    assert entrywise_dev(ga, gb) == 0.0


def test_inner_automorphism(bose_space):
    q = 1.3
    params = DeformParams(q, WEYL)
    gens = deform.sl2_bose_map(bose_space, params)
    rel = braid.build_relations("sl", 2, q, WEYL)

    ident = fock.LinOp(bose_space, np.eye(bose_space.dim), grade=0)
    same, cond = deform.inner_automorphism(gens, ident)
    assert cond == 1.0
    assert entrywise_dev(same, gens) == 0.0

    alpha = fock.diag_fn(bose_space, lambda t: q ** (t[0] + t[1]))
    conj, _ = deform.inner_automorphism(gens, alpha)
    before = verify.cross_oracle(verify.dcr_residuals(gens, rel))["winner_residual"]
    after = verify.cross_oracle(verify.dcr_residuals(conj, rel))["winner_residual"]
    assert after < max(10 * before, 1e-12)

    singular = fock.diag_fn(bose_space, lambda t: 1e-20 if sum(t) > 3 else 1.0)
    with pytest.raises(ValueError):
        deform.inner_automorphism(gens, singular)


def test_alpha_intertwiner(bose_space):
    q = 1.3
    params = DeformParams(q, WEYL)
    alpha = deform.sl2_alpha_intertwiner(bose_space, params)
    vac = bose_space.state_index((0, 0))
    assert abs(alpha.matrix.toarray()[vac, vac] - 1.0) < 1e-15
    k = bose_space.state_index((2, 0))
    assert abs(alpha.matrix.toarray()[k, k] - np.sqrt(2 / (1 + q * q))) < 1e-14

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
    for a in gens.a_ops:
        assert a.grade == -1 and fock.grade_defect(a) < 1e-13
    for ap in gens.aplus_ops:
        assert ap.grade == +1 and fock.grade_defect(ap) < 1e-13


def test_classical_limit_linear_scaling(bose_space):
    def dev(eps):
        g1 = deform.sl2_bose_map(bose_space, DeformParams(1.0 + eps, WEYL))
        g0 = deform.classical_generators(bose_space, DeformParams(1.0, WEYL))
        return max(np.linalg.norm(a.matrix.toarray() - b.matrix.toarray(), 2)
                   for a, b in zip(g1.a_ops + g1.aplus_ops,
                                   g0.a_ops + g0.aplus_ops))

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
