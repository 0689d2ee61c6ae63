"""The residual engine: every algebraic identity becomes a number.

Each check returns CaseResult rows (name, residual, tolerance, pass,
metadata).  Residuals are spectral norms of the identity's defect
restricted to the safe states (:meth:`fock.FockSpace.safe_mask`) of the
identity's creator degree.  Defects are sparse CSR arrays, built without
any dense D x D intermediate.

How the norms are computed (behind :func:`projected_norms`): the stored
nonzero entries of the defect that lie inside the safe subspace are the
edges of a bipartite graph that joins the row and the column of each
entry.  Its connected components occupy disjoint rows and disjoint
columns, so the defect is their orthogonal direct sum, and its spectral
norm is the largest spectral norm among the component blocks, exactly,
for any matrix and with no labels supplied by the caller.  An entry
alone in its row and its column is a 1 x 1 block and reads its modulus;
the other components are stacked by shape, and each shape takes one
batched SVD (:func:`component_stacks`, which also gives
``soshift.build_orbital`` the eigenblocks of l^2, one batched eigh per
block size).  No block is padded, so each gets the same LAPACK call as
it would alone.  The paper's generators are diagonal dressings times
ladder operators, so the defects of the sl(N) relations are partial
permutations times a diagonal and need no SVD.
A stack of D x D defects is measured as the direct sum of its blocks
(:func:`projected_norms`), so its residual is the largest block norm, and
a check over several generators stacks their defects and makes one call.

Stacked generators.  The N generators of a set enter the checks as one
N D x D column (block i is A^i) or one D x N D row, so every check forms
its defects with a number of sparse products that does not depend on N
or on the Lie basis: a commutator with each generator is
(1_N (x) X) col - col X, the number operator is row times column, and
contractions with numeric coefficients go through R (x) 1_D.  Both
Kronecker forms are written directly from index arrays
(``fock.eye_kron``, ``fock.kron_eye``).  Each entry of a stacked defect
sums the same products as in the defect of one generator, in the same
order wherever it has more than two terms, so the residuals are the same
to the last bit.

The quadratic exchange relations (:func:`quadratic_residual_matrices`).
Pairs of mode indices (i, j) are numbered i N + j, and a relation
operator is an N^2 D x N^2 D sparse matrix whose D x D block (ij, kl) is
its entry R^{ij}_{kl}, a Fock operator; a numeric N^2 x N^2 matrix R
enters as R (x) 1_D.  For a relation operator R and a cross candidate
X, the three defects are

  annihilators:   sum_{kl} R^{ij}_{kl} A^l A^k
  creators:       sum_{kl} A+_k A+_l R^{kl}_{ij}
  cross:          A^i A+_j - delta^i_j - s sum_{hk} A+_h X^{ih}_{jk} A^k

with s = +1 (Weyl) or -1 (Clifford).  The deforming maps use the numeric
R = Pi, the annihilating projector, and X = Pt, a cross candidate
(:func:`dcr_residuals`).  The flip in the
annihilator contraction mirrors the transposed index pattern of the
exchange relations; both patterns are fixed once by the explicit sl(2)
maps and then apply uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import __version__
from .braid import RelationMatrices
from .deform import DeformedGenerators
from .fock import Statistics, eye_kron, kron_eye
from .liealg import LieData, sigma_basis
from .qspecial import qnum


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


def _entries(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value of each stored entry of the sparse m, with
    duplicates summed.  The caller's matrix is left as it was:
    ``csr_array`` shares its buffers, which ``sum_duplicates`` would sort."""
    m = sparse.csr_array(m)
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data


def component_stacks(rows, cols, vals, n: int):
    """The connected components of the sparsity graph of the n x n matrix
    with entries vals at (rows, cols), one entry per place, grouped by
    shape.  For each distinct shape p x q, in increasing order: the rows
    (k x p) and the columns (k x q) of its k components, each in
    increasing order, and their dense blocks, stacked k x p x q.  The
    local places of all entries come from two np.unique calls, and no
    block is padded, so a batched SVD or eigh makes the same LAPACK call
    on each block as it would on the block alone."""
    comp = np.unique(_components(rows, cols, n), return_inverse=True)[1]
    at_r, local_r = np.unique(comp * n + rows, return_inverse=True)
    at_c, local_c = np.unique(comp * n + cols, return_inverse=True)
    size_r, size_c = np.bincount(at_r // n), np.bincount(at_c // n)
    start_r, start_c = np.cumsum(size_r) - size_r, np.cumsum(size_c) - size_c
    local_r, local_c = local_r - start_r[comp], local_c - start_c[comp]
    # the components grouped by shape, and the place of each in its stack
    shapes, shape_of, count = np.unique(size_r * (n + 1) + size_c, return_inverse=True,
                                        return_counts=True)
    by_shape, first = np.argsort(shape_of, kind="stable"), np.cumsum(count) - count
    slot = np.empty_like(shape_of)
    slot[by_shape] = np.arange(by_shape.size) - np.repeat(first, count)
    entries = np.argsort(shape_of[comp], kind="stable")
    cuts = np.cumsum(np.bincount(shape_of[comp]))[:-1]
    for shape, members, picked in zip(shapes, np.split(by_shape, first[1:]),
                                      np.split(entries, cuts)):
        p, q = divmod(int(shape), n + 1)
        stack = np.zeros((members.size, p, q), dtype=vals.dtype)
        stack[slot[comp[picked]], local_r[picked], local_c[picked]] = vals[picked]
        yield (at_r[start_r[members][:, None] + np.arange(p)] % n,
               at_c[start_c[members][:, None] + np.arange(q)] % n, stack)


def _norm_of_entries(rows, cols, vals, mask: np.ndarray) -> float:
    """Spectral norm of the matrix with entries vals at (rows, cols),
    restricted to the rows and columns in mask, exact by the components of
    its sparsity graph (module docstring)."""
    keep = mask[rows] & mask[cols] & (vals != 0)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    alone = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    spec = float(np.abs(vals[alone]).max(initial=0.0))
    rows, cols, vals = rows[~alone], cols[~alone], vals[~alone].astype(complex)
    if vals.size == 0:
        return spec
    for _, _, stack in component_stacks(rows, cols, vals, mask.size):
        spec = max(spec, float(np.linalg.svd(stack, compute_uv=False)[:, 0].max()))
    return spec


def projected_norms(space, m, degree: int) -> float:
    """The largest spectral norm of P b P over the D x D blocks b of the
    sparse m, with P the projector onto the states of
    :meth:`fock.FockSpace.safe_mask` at creator degree `degree`.

    m may be one Fock operator or any grid of them (each side a multiple
    of D).  Block (r, c) of an R x C grid is moved onto the diagonal at
    offset (r C + c) D, and the mask is tiled, so the whole grid is one
    direct sum with the same graph components as its blocks."""
    d = space.dim
    (n_r, rest_r), (n_c, rest_c) = divmod(m.shape[0], d), divmod(m.shape[1], d)
    if rest_r or rest_c:
        raise ValueError(f"shape {m.shape} is not a grid of {d} x {d} blocks")
    rows, cols, vals = _entries(m)
    offset = (rows // d * n_c + cols // d) * d
    return _norm_of_entries(offset + rows % d, offset + cols % d, vals,
                            np.tile(space.safe_mask(degree), n_r * n_c))


# ---------------------------------------------------------------------------
# deformed commutation relations
# ---------------------------------------------------------------------------


def quadratic_residual_matrices(a, ap, rel, cross: dict, sign: int):
    """The stacked defects of the three quadratic exchange relations of the
    generators a = [A^i] and ap = [A+_i] (module docstring), for the sparse
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


def dcr_residuals(gens: DeformedGenerators, rel: RelationMatrices,
                  tol: float = 1e-10) -> list[CaseResult]:
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
    q2s = gens.params.q ** (2 * gens.params.sign)
    nh = gens.number_operator()
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


# ---------------------------------------------------------------------------
# quadratic metric invariants (so(N)-shaped sets)
# ---------------------------------------------------------------------------


def metric_invariant_check(gens: DeformedGenerators, c_lower: np.ndarray,
                           c_upper: np.ndarray, q: float) -> list[CaseResult]:
    """Relations of the quadratic invariants A.C.A and A+.C.A+:

        [ACA, A^i] = 0
        [A+CA+, A+_i] = 0
        (ACA) A+_i - q^2 A+_i (ACA) = (1 + q^{2-N}) C_ij A^j
        A^i (A+CA+) - q^2 (A+CA+) A^i = (1 + q^{2-N}) C^ij A+_j

    Accepts a user-supplied candidate set; the built-in classical case is
    q = 1 with C the identity, where all four reduce to Weyl-algebra
    identities.  Each row is held to 1e-12.
    """
    space, n, d = gens.space, gens.n, gens.space.dim
    a_row, ap_row = (sparse.hstack(ops, format="csr") for ops in (gens.a_ops, gens.aplus_ops))
    a_col, ap_col = (sparse.vstack(ops, format="csr") for ops in (gens.a_ops, gens.aplus_ops))
    # C_ij A^j and C^ij A+_j down the column, and the invariants contracted with them
    c_a, c_ap = kron_eye(c_lower, d) @ a_col, kron_eye(c_upper, d) @ ap_col
    aca = a_row @ (kron_eye(c_lower.T, d) @ a_col)
    apcap = ap_row @ c_ap
    aca_n, apcap_n = eye_kron(n, aca), eye_kron(n, apcap)
    factor = 1.0 + q ** (2 - n)
    defects = [aca_n @ a_col - a_col @ aca,
               apcap_n @ ap_col - ap_col @ apcap,
               aca_n @ ap_col - q**2 * (ap_col @ aca) - factor * c_a,
               a_col @ apcap - q**2 * (apcap_n @ a_col) - factor * c_ap]
    names = ["metric_inv_aa_commute", "metric_inv_apap_commute",
             "metric_inv_cross_lower", "metric_inv_cross_upper"]
    return [CaseResult(name, projected_norms(space, defect, 2), 1e-12, {"safe_degree": 2})
            for name, defect in zip(names, defects)]


# ---------------------------------------------------------------------------
# invariants vs the commutant of sigma
# ---------------------------------------------------------------------------


def invariant_commutant_check(gens: DeformedGenerators, data: LieData,
                              tol: float = 1e-11) -> list[CaseResult]:
    """|| [sigma(X), N_h] || over every Lie basis element X.  Invariance
    under the classical and the deformed action are equivalent to
    membership in this commutant.
    """
    space = gens.space
    nh = gens.number_operator()
    sigma = sigma_basis(space, data)
    labels = len(data.basis_labels)
    return [CaseResult("commutant[qnumber_operator]",
                       projected_norms(space, sigma @ nh - eye_kron(labels, nh) @ sigma, 2),
                       tol, {"safe_degree": 2})]
