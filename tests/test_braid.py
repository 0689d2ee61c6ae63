import numpy as np
import pytest

from qheis import braid, liealg
from qheis.qspecial import CLIFFORD, WEYL

COMBOS = [("sl", 2), ("sl", 3), ("so", 3), ("so", 4)]


def test_sl2_rhat_entries():
    q = 1.3
    lam = q - 1 / q
    expected = np.array([
        [q, 0, 0, 0],
        [0, lam, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, q],
    ], dtype=complex)
    assert np.linalg.norm(braid.sl_rhat(2, q) - expected) < 1e-14


@pytest.mark.parametrize("family,n", COMBOS)
@pytest.mark.parametrize("q", [0.7, 1.3])
def test_braid_invariants(family, n, q):
    rel = braid.build_relations(family, n, q, WEYL)
    # build_relations computes its guard alone; the other invariants are
    # read on demand
    assert set(rel.diagnostics) == {"yang_baxter", "characteristic"}
    d = braid.relation_diagnostics(rel)
    assert d["yang_baxter"] == rel.diagnostics["yang_baxter"]
    assert d["yang_baxter"] < 1e-12
    assert d["characteristic"] < 1e-12
    assert d["projector_completeness"] < 1e-12
    assert d["projector_orthogonality"] < 1e-12


@pytest.mark.parametrize("family,n", COMBOS)
def test_classical_limit(family, n):
    rel = braid.build_relations(family, n, 1.0 + 1e-8, WEYL)
    p = liealg.permutation_matrix(n)
    assert np.abs(rel.rhat - p).max() < 1e-6
    # q = 1 exactly: every candidate collapses to the permutation
    rel1 = braid.build_relations(family, n, 1.0, WEYL)
    for cand in rel1.cross_candidates.values():
        assert np.linalg.norm(cand - p) < 1e-14


def test_so3_projector_ranks():
    rel = braid.build_relations("so", 3, 1.3, WEYL)
    assert braid.relation_diagnostics(rel)["projector_ranks"] == (5, 3, 1)
    rel4 = braid.build_relations("so", 4, 0.7, WEYL)
    assert braid.relation_diagnostics(rel4)["projector_ranks"] == (9, 6, 1)


def test_sl_projector_ranks_and_annihilator():
    rel = braid.build_relations("sl", 3, 1.3, WEYL)
    assert braid.relation_diagnostics(rel)["projector_ranks"] == (6, 3)
    # Weyl annihilating projector is the q-antisymmetrizer (eigenvalue -1/q)
    ev, p_anti = rel.projectors[1]
    assert abs(ev + 1 / 1.3) < 1e-14
    assert np.linalg.norm(rel.annihilating_projector - p_anti) == 0.0
    relc = braid.build_relations("sl", 3, 1.3, CLIFFORD)
    assert np.linalg.norm(relc.annihilating_projector - relc.projectors[0][1]) == 0.0


def test_so_metric():
    n, q = 3, 1.2
    rel = braid.build_relations("so", n, q)
    c_lo, c_up = rel.metric_lower, rel.metric_upper
    assert np.linalg.norm(c_lo @ c_up - np.eye(n)) < 1e-12
    # independent hand construction of the 3x3 case: weight-basis metric
    # q^(-rho_i) on the antidiagonal, rho = (1/2, 0, -1/2), rotated by the
    # explicit unitary pairing the outer modes
    c_frt = np.zeros((3, 3), dtype=complex)
    c_frt[0, 2] = q ** -0.5
    c_frt[1, 1] = 1.0
    c_frt[2, 0] = q ** 0.5
    w = np.array([[1 / np.sqrt(2), 0, 1j / np.sqrt(2)],
                  [0, 1, 0],
                  [1 / np.sqrt(2), 0, -1j / np.sqrt(2)]], dtype=complex)
    assert np.linalg.norm(c_lo - w.T @ c_frt @ w) < 1e-14
    # q -> 1 limit is the identity metric
    c1_lo = braid.build_relations("so", 3, 1.0 + 1e-9).metric_lower
    assert np.abs(c1_lo - np.eye(3)).max() < 1e-6
    # the weight-basis metric is q-symmetric: C^T = D C, D = diag(q^(2 rho))
    d = np.diag([q ** 1.0, 1.0, q ** -1.0])
    assert np.linalg.norm(c_frt.T - d @ c_frt) < 1e-14


def test_trace_projector_matches_metric():
    for n in (3, 4):
        for q in (0.7, 1.3):
            rel = braid.build_relations("so", n, q, WEYL)
            assert braid.relation_diagnostics(rel)["trace_projector_vs_metric"] < 1e-10


def test_rejections():
    with pytest.raises(ValueError):
        braid.build_relations("so", 3, 1.3, CLIFFORD)
    with pytest.raises(ValueError):
        braid.build_relations("sp", 2, 1.3, WEYL)
    with pytest.raises(ValueError):
        braid.build_relations("sl", 2, -1.0, WEYL)


def _ybe_kron(rhat, n):
    """The Yang-Baxter defect from dense N^3 x N^3 Kronecker products."""
    eye = np.eye(n, dtype=complex)
    r12, r23 = np.kron(rhat, eye), np.kron(eye, rhat)
    return float(np.linalg.norm(r12 @ r23 @ r12 - r23 @ r12 @ r23, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("family", ["sl", "so"])
def test_ybe_residual_matches_kron_reference(family, n):
    for q in (0.7, 1.3):
        rhat = braid.build_relations(family, n, q, WEYL).rhat
        assert abs(braid._ybe_residual(rhat, n) - _ybe_kron(rhat, n)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ybe_residual_reads_a_broken_rhat(n):
    # lambda = q - 1/q with the wrong sign breaks the braid relation; the
    # leg-wise defect must read the reference's nonzero value
    q = 1.3
    broken = braid.sl_rhat(n, q)
    lam_at = [i * n + j for i in range(n) for j in range(i + 1, n)]
    broken[lam_at, lam_at] *= -1
    want = _ybe_kron(broken, n)
    assert want > 1e-2
    assert abs(braid._ybe_residual(broken, n) - want) <= 1e-12 * want
