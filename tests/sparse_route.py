"""The sparse route of the dressed-ladder checks, kept as the oracle of
the ladder-table route in ``qheis.verify`` and ``qheis.deform``.

These are the definitions the package used before the ladder tables, as
they were, with the package's names imported: every defect is a sparse
CSR product of the stacked generators, measured by
``verify.projected_norms``.  ``quadratic_residual_matrices`` takes lists
of sparse generators and sparse N^2 D x N^2 D relation operators, so it
also serves relations whose entries are Fock operators (``tests/test_kz.py``).
"""

import numpy as np
from scipy import sparse

from qheis.fock import Statistics, eye_kron, kron_eye
from qheis.liealg import sigma_basis
from qheis.qspecial import qnum
from qheis.verify import CaseResult, projected_norms


def number_operator(gens) -> sparse.csr_array:
    """N_h = sum_i A+_i A^i (grade 0): the row of the A+_i times the
    column of the A^i, one product."""
    return (sparse.hstack(gens.aplus_ops, format="csr")
            @ sparse.vstack(gens.a_ops, format="csr"))


def quadratic_residual_matrices(a, ap, rel, cross: dict, sign: int):
    """The stacked defects of the three quadratic exchange relations of the
    generators a = [A^i] and ap = [A+_i] (``qheis.verify`` module
    docstring), for the sparse
    N^2 D x N^2 D relation operator rel and each cross candidate X in the
    dict cross:

      rel @ aa, an N^2 D x D column, aa = (1_N (x) a_col) a_col holding
        the blocks A^j A^i;
      apap @ rel, a D x N^2 D row, apap = ap_row (1_N (x) ap_row)
        holding the blocks A+_i A+_j;
      a_col @ ap_row - 1 - sign (1_N (x) ap_row) @ X @ (1_N (x) a_col),
        an N D x N D grid per candidate, a_col the column of the A^i and
        ap_row the row of the A+_j;

    block (i, j) of each defect sits at pair i N + j, or at grid position
    (i, j).  Returns (annihilator defect, creator defect,
    {name: cross defect})."""
    n, d = len(a), a[0].shape[0]
    a_col, ap_row = sparse.vstack(a, format="csr"), sparse.hstack(ap, format="csr")
    left, right = eye_kron(n, ap_row), eye_kron(n, a_col)
    aa, apap = right @ a_col, ap_row @ left
    direct = a_col @ ap_row - sparse.eye_array(n * d)
    return (rel @ aa, apap @ rel,
            {name: direct - sign * (left @ x @ right) for name, x in cross.items()})


def dcr_residuals(gens, rel, tol: float = 1e-10) -> list:
    """Residual rows for the deformed commutation relations, identities of
    creator degree 2.

    Three groups: annihilating projector against A (x) A, against
    A+ (x) A+, and the cross relation for each carried candidate.
    """
    if rel.n != gens.n:
        raise ValueError("generator set and relation matrices disagree on N")
    if abs(rel.q - gens.params.q) > 1e-12 or rel.sign != gens.params.sign:
        raise ValueError("generator set and relation matrices disagree on (q, sign)")
    d = gens.space.dim
    ann, cre, cross = quadratic_residual_matrices(
        gens.a_ops, gens.aplus_ops, kron_eye(rel.annihilating_projector, d),
        {name: kron_eye(pt, d) for name, pt in rel.cross_candidates.items()}, rel.sign)

    def row(name, m):
        return CaseResult(name, projected_norms(gens.space, m, 2), tol, {"safe_degree": 2})

    return [row("dcr_aa", ann), row("dcr_apap", cre)] + \
        [row(f"dcr_cross[{name}]", m) for name, m in cross.items()]


def number_op_check(gens, tol: float = 1e-10) -> list:
    """Relations of the deformed number operator N_h = A+_i A^i:

        N_h A+_i = A+_i + q^{2s} A+_i N_h
        N_h A^i  = q^{-2s} (-A^i + A^i N_h)

    plus, for bosonic maps, the spectrum check that N_h is diagonal with
    entries (n)_{q^{2s}}.  The spectrum residual is the largest entrywise
    deviation divided by max(1, max |(n)_{q^{2s}}|), held to 1e-12, so that
    it measures rounding relative to the eigenvalues at every cutoff; the metadata
    keep the raw deviation and the scale.  The two relations are
    identities of creator degree 2.
    """
    space = gens.space
    q2s = gens.params.q ** (2 * gens.params.sign)
    nh = number_operator(gens)
    nh_n = eye_kron(gens.n, nh)
    a_col, ap_col = (sparse.vstack(ops, format="csr") for ops in (gens.a_ops, gens.aplus_ops))
    out = [
        CaseResult("qnumber_creator_relation",
                   projected_norms(space, nh_n @ ap_col - ap_col - q2s * (ap_col @ nh), 2),
                   tol, {"safe_degree": 2}),
        CaseResult("qnumber_annihilator_relation",
                   projected_norms(space, nh_n @ a_col - (1.0 / q2s) * (-a_col + a_col @ nh), 2),
                   tol, {"safe_degree": 2}),
    ]

    if gens.space.statistics is Statistics.BOSE:
        expected = np.array([qnum(t, q2s).real for t in space.shell.astype(float)])
        dev = np.abs(nh.diagonal().real - expected)
        c = nh.tocoo()
        off = np.abs(c.data[c.row != c.col])
        raw = float(max(dev.max(), off.max(initial=0.0)))
        scale = max(1.0, float(np.abs(expected).max()))
        out.append(CaseResult("qnumber_spectrum", raw / scale, 1e-12,
                              {"safe_degree": 0, "raw_residual": raw, "scale": scale}))
    return out


def invariant_commutant_check(gens, data, tol: float = 1e-11) -> list:
    """|| [sigma(X), N_h] || over every Lie basis element X.  Invariance
    under the classical and the deformed action are equivalent to
    membership in this commutant.
    """
    space = gens.space
    nh = number_operator(gens)
    sigma = sigma_basis(space, data)
    labels = len(data.basis_labels)
    return [CaseResult("commutant[qnumber_operator]",
                       projected_norms(space, sigma @ nh - eye_kron(labels, nh) @ sigma, 2),
                       tol, {"safe_degree": 2})]


def hermiticity_residual(gens) -> float:
    """max_i || (A^i)+ - A+_i || on the whole space (compact case, real q):
    an identity of creator degree 0, measured on the D x N D row whose
    block i is (A^i)+ - A+_i."""
    return projected_norms(gens.space, sparse.vstack(gens.a_ops, format="csr").conj().T
                           - sparse.hstack(gens.aplus_ops, format="csr"), 0)
