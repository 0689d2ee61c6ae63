"""The residual engine: every algebraic identity becomes a number.

Each check returns CaseResult rows (name, residual, tolerance, pass,
metadata).  Residuals are spectral norms of the identity's defect after
conjugation by the safe projector of the appropriate creator degree;
the Frobenius norm is recorded alongside for diagnostics.  Defects are
sparse CSR arrays, built without any dense D x D intermediate.

How the norms are computed (:func:`projected_norms`): the stored nonzero
entries of the defect that lie inside the safe subspace are grouped by
the (row shell, column shell) pair they sit in, and pairs that share a
row shell or a column shell are joined into one component.  Different
components occupy disjoint rows and disjoint columns, so the defect is
their orthogonal direct sum: its spectral norm is the largest spectral
norm among the component blocks (each a small dense SVD), exactly, for
any mix of grades.  The Frobenius norm is taken from the stored entries.
The same rule, with other labels than shells, is :func:`direct_sum_norms`
(``kz`` labels the basis of C^N x C^N x Fock by sl(N) weight).

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


def _label_components(row_label: np.ndarray, col_label: np.ndarray, k: int) -> np.ndarray:
    """Component of each entry, numbered 0, 1, ...: row labels and column
    labels (k of each) are joined by every (row label, column label) pair
    that occurs among the entries."""
    root = list(range(2 * k))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    occurs = np.zeros(k * k, dtype=bool)
    occurs[row_label * k + col_label] = True
    for pair in np.flatnonzero(occurs).tolist():
        root[find(pair // k)] = find(k + pair % k)
    root_of_entry = np.array([find(r) for r in range(k)])[row_label]
    used = np.zeros(2 * k, dtype=bool)
    used[root_of_entry] = True
    return (np.cumsum(used) - 1)[root_of_entry]


def _local_index(comp: np.ndarray, idx: np.ndarray, n_comp: int, dim: int):
    """Position of each entry's index among the distinct indices of its
    component, and the number of distinct indices of each component."""
    key = comp * dim + idx
    occurs = np.zeros(n_comp * dim, dtype=bool)
    occurs[key] = True
    counts = occurs.reshape(n_comp, dim).sum(axis=1)
    start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.cumsum(occurs)[key] - 1 - start[comp], counts


def direct_sum_norms(m, label: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """(spectral, frobenius) norm of m restricted to the rows and columns in
    mask, for a matrix whose rows and columns carry the integer labels
    label (one per index, the same for rows and columns).

    m may be dense or sparse.  The result is exact: entries are grouped
    into components by their (row label, column label) pairs as described
    in the module docstring, and the spectral norm is the largest over the
    component blocks; the Frobenius norm comes from the stored entries.
    """
    if sparse.issparse(m):
        m = sparse.csr_array(m)
        m.sum_duplicates()
        rows, cols, vals = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data
    else:
        rows, cols = np.nonzero(m)
        vals = m[rows, cols]
    keep = mask[rows] & mask[cols] & (vals != 0)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if vals.size == 0:
        return 0.0, 0.0
    comp = _label_components(label[rows], label[cols], int(label.max()) + 1)
    n_comp = int(comp.max()) + 1
    ri, n_rows = _local_index(comp, rows, n_comp, label.size)
    ci, n_cols = _local_index(comp, cols, n_comp, label.size)
    spec = 0.0
    for b in range(n_comp):
        sel = comp == b
        block = np.zeros((n_rows[b], n_cols[b]), dtype=complex)
        block[ri[sel], ci[sel]] = vals[sel]
        spec = max(spec, float(np.linalg.svd(block, compute_uv=False)[0]))
    return spec, float(np.linalg.norm(vals))


def projected_norms(space, m, degree: int) -> tuple[float, float]:
    """(spectral, frobenius) norm of P m P with P the degree-d safe projector.

    m may be dense or sparse.  The result is exact: the direct-sum norm
    over the shell-pair component blocks of P m P (:func:`direct_sum_norms`
    with each state labelled by its shell).
    """
    return direct_sum_norms(m, space.shell, space.safe_mask(degree))


def max_norms(norm_pairs) -> tuple[float, float]:
    """(largest spectral, largest frobenius) over an iterable of
    projected_norms results; (0, 0) when it is empty."""
    spec = fro = 0.0
    for s, f in norm_pairs:
        spec, fro = max(spec, s), max(fro, f)
    return spec, fro


# ---------------------------------------------------------------------------
# deformed commutation relations
# ---------------------------------------------------------------------------


def quadratic_residual_matrices(gens: DeformedGenerators, rel: RelationMatrices):
    """Raw sparse defect matrices of the three relation groups (before
    projection).  Each quadratic product of generators is formed once."""
    n = gens.n
    a = [x.matrix for x in gens.a_ops]
    ap = [x.matrix for x in gens.aplus_ops]
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
                  tol: float = 1e-10, degree: int = 2) -> list[CaseResult]:
    """Residual rows for the deformed commutation relations.

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
        s, f = max_norms(projected_norms(space, m, degree) for m in mats)
        return CaseResult(name, s, tol, {"frobenius": f, "safe_degree": degree})

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


def number_op_check(gens: DeformedGenerators, tol: float = 1e-10,
                    spectrum_tol: float = 1e-12,
                    degree: int | None = None) -> list[CaseResult]:
    """Relations of the deformed number operator N_h = A+_i A^i:

        N_h A+_i = A+_i + q^{2s} A+_i N_h
        N_h A^i  = q^{-2s} (-A^i + A^i N_h)

    plus, for bosonic maps, the spectrum check that N_h is diagonal with
    entries (n)_{q^{2s}}.  The spectrum residual is the largest entrywise
    deviation divided by max(1, max |(n)_{q^{2s}}|), so that it measures
    rounding relative to the eigenvalues at every cutoff; the metadata
    keep the raw deviation and the scale.  The safe degree defaults to 2
    on bosonic spaces and 0 on fermionic ones (which have no truncation
    defects).
    """
    from .fock import Statistics

    space = gens.space
    if degree is None:
        degree = 0 if space.statistics is Statistics.FERMI else 2
    q2s = gens.params.q_real ** (2 * gens.params.sign)
    nh = gens.number_operator().matrix
    spec_up, fro_up = max_norms(
        projected_norms(space, nh @ ap.matrix - ap.matrix - q2s * (ap.matrix @ nh), degree)
        for ap in gens.aplus_ops)
    spec_dn, fro_dn = max_norms(
        projected_norms(space, nh @ a.matrix - (1.0 / q2s) * (-a.matrix + a.matrix @ nh),
                        degree)
        for a in gens.a_ops)
    out = [
        CaseResult("qnumber_creator_relation", spec_up, tol,
                   {"frobenius": fro_up, "safe_degree": degree}),
        CaseResult("qnumber_annihilator_relation", spec_dn, tol,
                   {"frobenius": fro_dn, "safe_degree": degree}),
    ]

    if gens.space.statistics is Statistics.BOSE:
        expected = np.array([qnum(t, q2s).real for t in space.total_occupations()])
        dev = np.abs(nh.diagonal().real - expected)
        c = nh.tocoo()
        off = np.abs(c.data[c.row != c.col])
        raw = float(max(dev.max(), off.max(initial=0.0)))
        scale = max(1.0, float(np.abs(expected).max()))
        out.append(CaseResult("qnumber_spectrum", raw / scale, spectrum_tol,
                              {"safe_degree": 0, "raw_residual": raw, "scale": scale}))
    return out


# ---------------------------------------------------------------------------
# quadratic metric invariants (so(N)-shaped sets)
# ---------------------------------------------------------------------------


def metric_invariant_check(a_ops, aplus_ops, c_lower: np.ndarray,
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
    a = [x.matrix for x in a_ops]
    ap = [x.matrix for x in aplus_ops]
    space = a_ops[0].space
    n = len(a)
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
    rows = []
    for name, group in zip(names, norms):
        s, f = max_norms(group)
        rows.append(CaseResult(name, s, tol, {"frobenius": f, "safe_degree": 2}))
    return rows


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
    invariants = {"qnumber_operator": gens.number_operator().matrix}
    if extra_invariants:
        invariants.update({k: (v.matrix if hasattr(v, "matrix") else v)
                           for k, v in extra_invariants.items()})
    rows = []
    for name, inv in invariants.items():
        worst, fro = max_norms(projected_norms(space, mat @ inv - inv @ mat, 2)
                               for mat in smats.values())
        rows.append(CaseResult(f"commutant[{name}]", worst, tol,
                               {"frobenius": fro, "safe_degree": 2}))
    return rows
