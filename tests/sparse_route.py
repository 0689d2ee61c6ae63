"""The sparse route of the dressed-ladder checks, kept as the oracle of
the ladder-table route in ``qheis.fock``, ``qheis.liealg``,
``qheis.verify`` and ``qheis.deform``.

These are the definitions the package used before the ladder tables, as
they were: every ladder and generator is a CSR array (:func:`csr_list`
reads them off :func:`column`), every defect is a sparse CSR product of
the stacked generators, measured by :func:`projected_norms`.
``quadratic_residual_matrices`` takes lists of sparse generators and
sparse N^2 D x N^2 D relation operators, so it also serves relations
whose entries are Fock operators (``tests/test_kz.py``).

The package itself holds no CSR array and no sparsity-graph norm: the
CSR writers (:func:`column`, :func:`row`, :func:`diag`, :func:`eye_kron`,
:func:`kron_eye`) and the exact norm of a sparse matrix
(:func:`projected_norms`, through :func:`norm_of_entries`, one SVD per
connected component of the sparsity graph) live here, and :func:`dense`
writes a block operator of the package (``fock.BlockOperator``) as a
dense array.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from qheis.fock import FockSpace, Statistics
from qheis.liealg import LieData, rho
from qheis.qspecial import qnum
from qheis.verify import CaseResult


def _stored(present: np.ndarray, cols: np.ndarray, vals: np.ndarray,
            shape: tuple[int, int]) -> sparse.csr_array:
    """The CSR array whose row r stores vals[r, e] in column cols[r, e] for
    each e with present[r, e], in increasing e (R x E arrays, R rows),
    written directly."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    return sparse.csr_array((vals[present].astype(complex), cols[present].astype(np.int32),
                             indptr), shape=shape)


def column(table) -> sparse.csr_array:
    """The N D x D column whose block i is operator i of the ladder table,
    with every entry of a row that has one stored, also one of value 0."""
    n, d = table.cols.shape[0], table.cols.shape[1] - 1
    cols = table.cols[:, :d].reshape(-1, 1)
    return _stored(cols < d, cols, table.vals[:, :d].reshape(-1, 1), (n * d, d))


def row(table) -> sparse.csr_array:
    """The D x N D row whose block i is operator i of the table: row s
    stores the entries of the N operators in increasing i."""
    n, d = table.cols.shape[0], table.cols.shape[1] - 1
    cols = table.cols[:, :d].T
    return _stored(cols < d, cols + d * np.arange(n), table.vals[:, :d].T, (d, n * d))


def diag(values: np.ndarray) -> sparse.csr_array:
    """Diagonal CSR array with the given entries, one per basis state; zero
    entries are not stored.  Raises ValueError on a non-finite entry."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise ValueError(f"entry not finite at state {np.argmin(np.isfinite(values))}")
    return _stored((values != 0)[:, None], np.arange(values.size)[:, None], values[:, None],
                   (values.size,) * 2)


def eye_kron(n: int, x) -> sparse.csr_array:
    """1_n (x) x: n copies of the sparse x down the diagonal, each row
    stored in the order x stores it."""
    x = sparse.csr_array(x)
    nnz, (rows, cols) = x.nnz, x.shape
    copies = np.arange(n)[:, None]
    indptr = np.concatenate([[0], (x.indptr[1:] + nnz * copies).ravel()])
    return sparse.csr_array((np.tile(x.data[:nnz], n), (x.indices[:nnz] + cols * copies).ravel(),
                             indptr), shape=(n * rows, n * cols))


def kron_eye(r: np.ndarray, d: int) -> sparse.csr_array:
    """R (x) 1_d for a numeric matrix R: row (i, s) holds R_ij in column
    (j, s) for each nonzero R_ij, in increasing j."""
    r = np.asarray(r)
    i, j = np.nonzero(r)
    s = np.arange(d)
    rows = (i[:, None] * d + s).ravel()
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(r.shape[0] * d + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=r.shape[0] * d), out=indptr[1:])
    return sparse.csr_array((np.repeat(r[i, j], d)[order].astype(complex),
                             (j[:, None] * d + s).ravel()[order], indptr),
                            shape=(r.shape[0] * d, r.shape[1] * d))


def entries(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value of each stored entry of the sparse m, with
    duplicates summed.  The caller's matrix is left as it was:
    ``csr_array`` shares its buffers, which ``sum_duplicates`` would sort."""
    m = sparse.csr_array(m)
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data


def norm_of_entries(rows, cols, vals, mask: np.ndarray) -> float:
    """Spectral norm of the matrix with entries vals at (rows, cols),
    restricted to the rows and columns in mask.  The connected components
    of its sparsity graph, which joins row r to column c for every
    entry, are disjoint in rows and in columns, so the norm is the
    largest over the components: an entry alone in its row and its
    column reads its modulus, and every other component takes one
    np.linalg.svd of its own dense block.  Raises ValueError when a kept
    entry is not finite."""
    keep = mask[rows] & mask[cols] & (vals != 0)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if not np.isfinite(vals).all():
        raise ValueError("a kept entry is not finite")
    alone = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    spec = float(np.abs(vals[alone]).max(initial=0.0))
    rows, cols, vals = rows[~alone], cols[~alone], vals[~alone].astype(complex)
    if vals.size == 0:
        return spec
    n = mask.size  # rows are nodes 0..n-1, columns n..2n-1
    graph = sparse.coo_array((np.ones(rows.size), (rows, cols + n)), shape=(2 * n, 2 * n))
    comp = connected_components(graph, directed=False)[1][rows]
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
    """The largest spectral norm of P b P over the D x D blocks b of the
    sparse m, with P the projector onto the states of ``safe_mask`` at
    creator degree `degree`, exact by the components of the sparsity
    graph (:func:`norm_of_entries`).

    m may be one Fock operator or any grid of them (each side a multiple
    of D).  Block (r, c) of an R x C grid is moved onto the diagonal at
    offset (r C + c) D, and the mask is tiled, so the whole grid is one
    direct sum with the same graph components as its blocks."""
    d = space.dim
    (n_r, rest_r), (n_c, rest_c) = divmod(m.shape[0], d), divmod(m.shape[1], d)
    if rest_r or rest_c:
        raise ValueError(f"shape {m.shape} is not a grid of {d} x {d} blocks")
    rows, cols, vals = entries(m)
    offset = (rows // d * n_c + cols // d) * d
    return norm_of_entries(offset + rows % d, offset + cols % d, vals,
                           np.tile(space.safe_mask(degree), n_r * n_c))


def dense(op) -> np.ndarray:
    """The stack of L operators of the block operator op as one dense
    L D x D column whose block l is operator l."""
    sec, lay = op.partition, op.layout
    d = sec.of.size
    out = np.zeros((lay.moves.shape[0] * d, d), dtype=op.data.dtype)
    for (src, dst, stack), (b0, b1, _, _) in zip(op.stacks(), lay.groups):
        for label, s, t, block in zip(lay.label[b0:b1], src, dst, stack):
            rows = label * d + sec.members[sec.start[t]:sec.start[t] + sec.size[t]]
            out[np.ix_(rows, sec.members[sec.start[s]:sec.start[s] + sec.size[s]])] = block
    return out


def csr_list(table) -> list:
    """The N operators of a ladder table as D x D CSR arrays: the blocks
    of :func:`column`."""
    col = column(table)
    d = col.shape[1]
    return [col[i * d:(i + 1) * d] for i in range(col.shape[0] // d)]


def _one_per_row(present: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: tuple[int, int]) -> sparse.csr_array:
    """The CSR array whose row r holds vals[r] in column cols[r] where
    present[r], and nothing elsewhere, written directly."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(present, out=indptr[1:])
    return sparse.csr_array((vals[present].astype(complex), cols[present].astype(np.int32),
                             indptr), shape=shape)


def _ladder(occ: np.ndarray, cols: np.ndarray, fermi: bool, k: int,
            step: int) -> sparse.csr_array:
    """Read-only mode-(k+1) annihilator (step +1) or creator (step -1).
    Row t holds its one entry in the column of t + step e_k, cols[t] from
    :func:`_unit_steps`, when that state exists.  Bose amplitude
    sqrt(max n_k); Fermi: the Jordan-Wigner sign (-1)**(n_1 + ... + n_k),
    which makes the anticommutation relations exact on the full space."""
    dim = occ.shape[0]
    cols = cols[:dim]
    if fermi:
        vals = np.where(occ[:, :k].sum(axis=1) % 2, -1.0, 1.0)
    else:
        vals = np.sqrt(np.maximum(occ[:, k], occ[:, k] + step).astype(float))
    m = _one_per_row(cols < dim, cols, vals, (dim, dim))
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m


def grade_defect(space: FockSpace, op, grade: int) -> float:
    """Relative Frobenius norm of [n_tot, X] - g X; zero for an X of grade
    g.  Entry (r, c) of [n_tot, X] is (shell_r - shell_c) X_rc."""
    m = sparse.coo_array(op)
    shell = space.shell
    num = np.linalg.norm((shell[m.row] - shell[m.col] - grade) * m.data)
    den = np.linalg.norm(m.data)
    return float(num / den) if den > 0 else 0.0


def sigma_basis(space: FockSpace, data: LieData) -> sparse.csr_array:
    """The bilinear oscillator realization sigma(x) = rho(x)^i_j a+_i a^j
    of every basis label, as one (L D) x D column whose block k is
    sigma(x) for the k-th label of data.basis_labels (built afresh on
    every call).

    Two products, whatever N: the column of the a+_i a^j (block
    j N + i) is (1_N (x) column of the a+_i) times the column of the a^j,
    and the coefficients rho(x)^i_j enter as (C (x) 1_D), row k of C
    holding rho(x_k) at column j N + i.  An entry of sigma(x) sums
    several pairs only on the diagonal, where i = j, so it adds the same
    terms in the same order as the definition, to the last bit."""
    if space.modes != data.n:
        raise ValueError(f"space has {space.modes} modes, algebra needs {data.n}")
    pairs = eye_kron(data.n, column(space.ap)) @ column(space.an)
    coef = np.array([rho(data, lbl).T.ravel() for lbl in data.basis_labels])
    return kron_eye(coef, space.dim) @ pairs


def number_operator(gens) -> sparse.csr_array:
    """N_h = sum_i A+_i A^i (grade 0): the row of the A+_i times the
    column of the A^i, one product."""
    return (sparse.hstack(csr_list(gens.ap), format="csr")
            @ sparse.vstack(csr_list(gens.a), format="csr"))


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
        csr_list(gens.a), csr_list(gens.ap), kron_eye(rel.annihilating_projector, d),
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
    a_col, ap_col = (sparse.vstack(csr_list(t), format="csr") for t in (gens.a, gens.ap))
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
    return projected_norms(gens.space, sparse.vstack(csr_list(gens.a), format="csr").conj().T
                           - sparse.hstack(csr_list(gens.ap), format="csr"), 0)
