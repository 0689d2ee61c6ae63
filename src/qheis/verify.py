"""The residual engine: every algebraic identity becomes a number.

Each check returns CaseResult rows (name, residual, tolerance, pass,
metadata).  Residuals are spectral norms of the identity's defect after
conjugation by the safe projector of the identity's creator degree.
Defects are sparse CSR arrays, built without any dense D x D
intermediate.

How the norms are computed (:func:`direct_sum_norms`): the stored
nonzero entries of the defect that lie inside the safe subspace are the
edges of a bipartite graph that joins the row and the column of each
entry.  Its connected components occupy disjoint rows and disjoint
columns, so the defect is their orthogonal direct sum, and its spectral
norm is the largest spectral norm among the component blocks, exactly,
for any matrix and with no labels supplied by the caller.  An entry
alone in its row and its column is a 1 x 1 block and reads its modulus;
every other component is a small dense SVD.  The paper's generators are
diagonal dressings times ladder operators, so the defects of the sl(N)
relations are partial permutations times a diagonal and need no SVD.

Index conventions for the quadratic relations, with Pi the annihilating
projector and Pt a cross candidate:

  annihilators:   sum_{kl} Pi^{ij}_{kl} A^l A^k        = 0
  creators:       sum_{kl} Pi^{kl}_{ij} A+_k A+_l      = 0
  cross:          A^i A+_j - delta^i_j -+ sum_{hk} Pt^{ih}_{jk} A+_h A^k = 0

(the flip in the annihilator contraction mirrors the transposed index
pattern of the exchange relations; both patterns are fixed once by the
explicit sl(2) maps and then apply uniformly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import __version__
from .braid import RelationMatrices
from .deform import DeformedGenerators
from .fock import Statistics
from .liealg import LieData, sigma_basis
from .qspecial import WEYL, qnum


@dataclass(frozen=True)
class CaseResult:
    name: str
    residual: float
    tolerance: float
    metadata: dict = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.residual):
            raise ValueError(f"non-finite residual in case {self.name!r}")

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class Report:
    """A named, parameterized bundle of case results (sorted by case name)."""

    suite: str
    params: dict
    cases: list[CaseResult]
    version: str = __version__

    def __post_init__(self):
        self.cases = sorted(self.cases, key=lambda c: c.name)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Connected component of each entry (rows[k], cols[k]) in the
    bipartite graph that joins row r to column c for every entry, as the
    smallest node of the component (rows are nodes 0..n-1, columns
    n..2n-1).  Min-label propagation with pointer jumping: each sweep
    gives both ends of every entry the smaller of their labels, then
    replaces each label by the label of the node it names."""
    u, v = rows, cols + n
    label = np.arange(2 * n)
    while True:
        low = np.minimum(label[u], label[v])
        new = label.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        new = new[new]
        if np.array_equal(new, label):
            return label[u]
        label = new


def direct_sum_norms(m, mask: np.ndarray) -> float:
    """Spectral norm of the sparse square matrix m restricted to the rows
    and columns in mask.

    The result is exact for any matrix: the entries are split into the
    components of their sparsity graph as described in the module
    docstring, and the norm is the largest over the component blocks.
    """
    m = sparse.csr_array(m)
    m.sum_duplicates()
    rows, cols, vals = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data
    keep = mask[rows] & mask[cols] & (vals != 0)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    alone = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    spec = float(np.abs(vals[alone]).max(initial=0.0))
    rows, cols, vals = rows[~alone], cols[~alone], vals[~alone]
    if vals.size == 0:
        return spec
    comp = _components(rows, cols, m.shape[0])
    order = np.argsort(comp, kind="stable")
    cuts = np.flatnonzero(np.diff(comp[order])) + 1
    for r, c, v in zip(*(np.split(x[order], cuts) for x in (rows, cols, vals))):
        r_at, ri = np.unique(r, return_inverse=True)
        c_at, ci = np.unique(c, return_inverse=True)
        block = np.zeros((r_at.size, c_at.size), dtype=complex)
        block[ri, ci] = v
        spec = max(spec, float(np.linalg.svd(block, compute_uv=False)[0]))
    return spec


def projected_norms(space, m, degree: int) -> float:
    """Spectral norm of P m P for the sparse m, with P the projector onto
    the states of :meth:`fock.FockSpace.safe_mask` at creator degree
    `degree` (exact, by :func:`direct_sum_norms`)."""
    return direct_sum_norms(m, space.safe_mask(degree))


# ---------------------------------------------------------------------------
# deformed commutation relations
# ---------------------------------------------------------------------------


def quadratic_residual_matrices(gens: DeformedGenerators, rel: RelationMatrices):
    """Raw sparse defect matrices of the three relation groups (before
    projection).  Each quadratic product of generators is formed once."""
    n = gens.n
    a, ap = gens.a_ops, gens.aplus_ops
    dim = gens.space.dim
    pi = rel.annihilating_projector
    pairs = [(k, l) for k in range(n) for l in range(n)]
    a_a = {(k, l): a[k] @ a[l] for k, l in pairs}
    ap_ap = {(k, l): ap[k] @ ap[l] for k, l in pairs}
    ap_a = {(k, l): ap[k] @ a[l] for k, l in pairs}
    zero = sparse.csr_array((dim, dim), dtype=complex)

    def idx(i, j):
        return i * n + j

    res_ann, res_cre = [], []
    for i in range(n):
        for j in range(n):
            m1 = m2 = zero
            for k, l in pairs:
                c1 = pi[idx(i, j), idx(k, l)]
                if c1 != 0:
                    m1 = m1 + c1 * a_a[l, k]
                c2 = pi[idx(k, l), idx(i, j)]
                if c2 != 0:
                    m2 = m2 + c2 * ap_ap[k, l]
            res_ann.append(m1)
            res_cre.append(m2)

    cross = {}
    s = 1.0 if rel.sign == WEYL else -1.0
    eye = sparse.eye_array(dim, dtype=complex, format="csr")
    for name, pt in rel.cross_candidates.items():
        mats = []
        for i in range(n):
            for j in range(n):
                m = a[i] @ ap[j]
                if i == j:
                    m = m - eye
                for h, k in pairs:
                    c = pt[idx(i, h), idx(j, k)]
                    if c != 0:
                        m = m - s * c * ap_a[h, k]
                mats.append(m)
        cross[name] = mats
    return res_ann, res_cre, cross


def dcr_residuals(gens: DeformedGenerators, rel: RelationMatrices,
                  tol: float = 1e-10) -> list[CaseResult]:
    """Residual rows for the deformed commutation relations, identities of
    creator degree 2.

    Three groups: annihilating projector against A (x) A, against
    A+ (x) A+, and the cross relation for each carried candidate.
    """
    if rel.n != gens.n:
        raise ValueError("generator set and relation matrices disagree on N")
    if abs(rel.q - gens.params.q_real) > 1e-12 or rel.sign != gens.params.sign:
        raise ValueError("generator set and relation matrices disagree on (q, sign)")
    space = gens.space
    res_ann, res_cre, cross = quadratic_residual_matrices(gens, rel)

    def row(name, mats):
        return CaseResult(name, max(projected_norms(space, m, 2) for m in mats), tol,
                          {"safe_degree": 2})

    rows = [row("dcr_aa", res_ann), row("dcr_apap", res_cre)]
    rows += [row(f"dcr_cross[{name}]", mats) for name, mats in cross.items()]
    return rows


def cross_oracle(rows: list[CaseResult]) -> dict:
    """Decide empirically which cross candidate a generator set satisfies,
    from the dcr_cross[...] rows of its dcr_residuals.

    Returns winner name, winner/loser residuals, and whether exactly one
    candidate passed its tolerance (the expected asymmetry).
    """
    ranked = sorted((r for r in rows if r.name.startswith("dcr_cross")),
                    key=lambda r: r.residual)
    winner, loser = ranked[0], ranked[-1]
    return {
        "winner": winner.name.split("[")[1].rstrip("]"),
        "winner_residual": winner.residual,
        "loser_residual": loser.residual,
        "unique": bool(winner.passed and not loser.passed),
    }


# ---------------------------------------------------------------------------
# q-number operator
# ---------------------------------------------------------------------------


def number_op_check(gens: DeformedGenerators, tol: float = 1e-10) -> list[CaseResult]:
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
    q2s = gens.params.q_real ** (2 * gens.params.sign)
    nh = gens.number_operator()
    out = [
        CaseResult("qnumber_creator_relation",
                   max(projected_norms(space, nh @ ap - ap - q2s * (ap @ nh), 2)
                       for ap in gens.aplus_ops), tol, {"safe_degree": 2}),
        CaseResult("qnumber_annihilator_relation",
                   max(projected_norms(space, nh @ a - (1.0 / q2s) * (-a + a @ nh), 2)
                       for a in gens.a_ops), tol, {"safe_degree": 2}),
    ]

    if gens.space.statistics is Statistics.BOSE:
        expected = np.array([qnum(t, q2s).real for t in space.total_occupations()])
        dev = np.abs(nh.diagonal().real - expected)
        c = nh.tocoo()
        off = np.abs(c.data[c.row != c.col])
        raw = float(max(dev.max(), off.max(initial=0.0)))
        scale = max(1.0, float(np.abs(expected).max()))
        out.append(CaseResult("qnumber_spectrum", raw / scale, 1e-12,
                              {"safe_degree": 0, "raw_residual": raw, "scale": scale}))
    return out


# ---------------------------------------------------------------------------
# quadratic metric invariants (so(N)-shaped sets)
# ---------------------------------------------------------------------------


def metric_invariant_check(gens: DeformedGenerators, c_lower: np.ndarray,
                           c_upper: np.ndarray, q: float,
                           tol: float = 1e-12) -> list[CaseResult]:
    """Relations of the quadratic invariants A.C.A and A+.C.A+:

        [ACA, A^i] = 0
        [A+CA+, A+_i] = 0
        (ACA) A+_i - q^2 A+_i (ACA) = (1 + q^{2-N}) C_ij A^j
        A^i (A+CA+) - q^2 (A+CA+) A^i = (1 + q^{2-N}) C^ij A+_j

    Accepts a user-supplied candidate set; the built-in classical case is
    q = 1 with C the identity, where all four reduce to Weyl-algebra
    identities.
    """
    a, ap = gens.a_ops, gens.aplus_ops
    space = gens.space
    n = gens.n
    aca = sum(c_lower[j, i] * (a[i] @ a[j]) for i in range(n) for j in range(n))
    apcap = sum(c_upper[i, j] * (ap[i] @ ap[j]) for i in range(n) for j in range(n))
    factor = 1.0 + q ** (2 - n)
    norms = [[], [], [], []]
    for i in range(n):
        r1 = aca @ a[i] - a[i] @ aca
        r2 = apcap @ ap[i] - ap[i] @ apcap
        r3 = aca @ ap[i] - q**2 * (ap[i] @ aca) \
            - factor * sum(c_lower[i, j] * a[j] for j in range(n))
        r4 = a[i] @ apcap - q**2 * (apcap @ a[i]) \
            - factor * sum(c_upper[i, j] * ap[j] for j in range(n))
        for group, r in zip(norms, (r1, r2, r3, r4)):
            group.append(projected_norms(space, r, 2))
    names = ["metric_inv_aa_commute", "metric_inv_apap_commute",
             "metric_inv_cross_lower", "metric_inv_cross_upper"]
    return [CaseResult(name, max(group), tol, {"safe_degree": 2})
            for name, group in zip(names, norms)]


# ---------------------------------------------------------------------------
# invariants vs the commutant of sigma
# ---------------------------------------------------------------------------


def invariant_commutant_check(gens: DeformedGenerators, data: LieData,
                              tol: float = 1e-11,
                              extra_invariants: dict | None = None) -> list[CaseResult]:
    """|| [sigma(X), I] || for I = N_h (and any supplied extra invariants),
    over every Lie basis element X.  Invariance under the classical and
    the deformed action are equivalent to membership in this commutant.
    """
    space = gens.space
    smats = sigma_basis(space, data)
    invariants = {"qnumber_operator": gens.number_operator()}
    if extra_invariants:
        invariants.update(extra_invariants)
    return [CaseResult(f"commutant[{name}]",
                       max(projected_norms(space, mat @ inv - inv @ mat, 2)
                           for mat in smats.values()), tol, {"safe_degree": 2})
            for name, inv in invariants.items()]
