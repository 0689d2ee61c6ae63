"""The residual engine: every algebraic identity becomes a number.

Each check returns CaseResult rows (name, residual, tolerance, pass,
metadata).  Residuals are spectral norms of the identity's defect
restricted to the safe states (:meth:`fock.FockSpace.safe_mask`) of the
identity's creator degree.  No defect is a dense D x D matrix.

Dressed ladders: one shift per defect block.  The paper realizes each
deformation as a change of generators A^i = a^i d_i(n), A+_i = d_i(n)
a+_i: a diagonal dressing times a ladder.  So A^i sends each Fock state
to the one state s + e_i, A+_i to s - e_i, and a product or sum of such
terms in which every term moves s by the same vector v is a weighted
shift: row s holds one entry, in the column of s + v.  Distinct rows then
have distinct columns, so the block is a partial permutation times a
diagonal, and its spectral norm is exactly its largest modulus over the
rows whose row state and target state are both safe
(:func:`shift_norm`).  The checks of the sl(N) generator sets are built
this way on the sets' ladder tables (``deform.DeformedGenerators.a`` and
``.ap``, ``fock.LadderTable``), the one stored form of a dressed ladder:
each entry of a defect is a few gathers and entrywise sums, and the
target of each block comes from the occupation keys of its shift
(``FockSpace.shift_targets``), never from the path of a product, which
a zero dressing or a fermionic creator on an occupied mode would cut.  Every
entry sums the same products, with the same factors in the same order,
as the sparse products of the stacked generators did, so each residual
is that route's to the last bit (``tests/sparse_route.py`` keeps it as
the oracle).  These checks make no sparse product and no BLAS call:
:func:`dcr_residuals` (through :func:`quadratic_residual_matrices`),
:func:`number_op_check`, :func:`invariant_commutant_check` and
``deform.hermiticity_residual``.  A generator set cannot hold anything
but dressed ladders (its tables are on the space's ladder columns), and
a relation matrix that couples pairs of different weight is rejected
with ValueError: its blocks would not be one shift.

The generator distance of ``sl2-bose`` (:func:`generator_distance`) is
the difference of two such sets, normed the same way.

Block operators: one block per sector.  The so(N) defects (the
commutators and shift operators of ``soshift`` and the metric invariants,
:func:`metric_invariant_check`) mix the states of a shell, but each
keeps or flips the parity of each mode's occupation by a fixed rule, so
it maps every (shell, parity) sector to one sector and no two sectors to
one (``fock.BlockOperator``).  It is then the orthogonal direct sum of
its blocks, and its spectral norm is the largest block norm, exactly; a
sector lies in one shell, so the safe projector keeps or drops whole
blocks.  A block's norm lies between its largest row 2-norm and its
Frobenius norm, so a kept block whose Frobenius norm is below the largest
row norm of any kept block cannot hold the maximum; only the others are
factorized, the blocks of one shape in one batched SVD
(:func:`projected_norms`).  No block is padded.  The N relations of a
check run down the stack of a block operator, so the number of block
products does not depend on N.

The entries of sigma(x) (``liealg.sigma_entries``) are normed by the
components of their sparsity graph (:func:`component_stacks`), which are
disjoint in rows and in columns: an entry alone in its row and its
column reads its modulus, and the other components are stacked by shape,
one batched SVD each (:func:`invariant_commutant_check`).

The quadratic exchange relations (:func:`quadratic_residual_matrices`).
Pairs of mode indices (i, j) are numbered i N + j, and a relation matrix
is a numeric N^2 x N^2 matrix R.  For a relation matrix R and a cross
candidate X, the three defects are

  annihilators:   sum_{kl} R^{ij}_{kl} A^l A^k        (shift e_i + e_j)
  creators:       sum_{kl} A+_k A+_l R^{kl}_{ij}      (shift -e_i - e_j)
  cross:          A^i A+_j - delta^i_j - s sum_{hk} A+_h X^{ih}_{jk} A^k
                                                      (shift e_i - e_j)

with s = +1 (Weyl) or -1 (Clifford).  A term moves s by the weight of
its pair, so a relation that couples only pairs of one weight gives one
shift per block.  The deforming maps use R = Pi, the annihilating
projector, and X = Pt, a cross candidate (:func:`dcr_residuals`).  The
flip in the annihilator contraction mirrors the transposed index pattern
of the exchange relations; both patterns are fixed once by the explicit
sl(2) maps and then apply uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .braid import RelationMatrices
from .deform import DeformedGenerators
from .fock import BlockOperator, LadderTable, Statistics, _sum_rows, diagonal
from .liealg import LieData, sigma_entries
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
    its sparsity graph (module docstring).  Raises ValueError when a kept
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
    for _, _, stack in component_stacks(rows, cols, vals, mask.size):
        spec = max(spec, float(np.linalg.svd(stack, compute_uv=False)[:, 0].max()))
    return spec


def projected_norms(space, m: BlockOperator, degree: int) -> float:
    """The largest spectral norm of P b P over the operators b of the stack
    m of block operators (``fock.BlockOperator``), with P the projector
    onto the states of :meth:`fock.FockSpace.safe_mask` at creator degree
    `degree`.

    Each operator maps every sector to one sector, and no two sectors to
    the same one, so it is the direct sum of its blocks; a sector lies in
    one shell, so P keeps or drops whole blocks, and the norm is the
    largest over the kept blocks.

    Only the blocks that can hold that largest norm are factorized.  The
    norm of block b lies between the largest 2-norm l_b of its rows and
    its Frobenius norm f_b, both read off the squared entries by two
    reductions over the layout's rows (``BlockLayout.row_starts``).  A
    block with f_b^2 <= (1 - 1e-9) max_b l_b^2 has a norm below another's,
    far beyond rounding, so the others take one batched SVD per shape,
    the same LAPACK call each would take alone: the result is the largest
    over all kept blocks to the last bit.  Raises ValueError when a kept
    block holds an entry that is not finite, where no norm is meaningful
    (an SVD would read nan or fail to converge)."""
    lay, sectors = m.layout, m.sectors
    safe = space.safe_mask(degree)[sectors.members[sectors.start]]
    kept = safe[lay.src] & safe[lay.dst]
    if not kept.any():
        return 0.0
    starts, first = lay.row_starts
    with np.errstate(over="ignore"):
        rows = np.add.reduceat(np.abs(m.data) ** 2, starts)
        frobenius = np.add.reduceat(rows, first)
    lower = np.maximum.reduceat(rows, first)[kept].max()
    if not np.isfinite(frobenius[kept]).all():
        if not np.isfinite(m.data[np.repeat(kept, lay.height * lay.width)]).all():
            raise ValueError("a kept block holds a non-finite entry")
        lower = 0.0  # finite entries whose squares overflow: factorize every block
    wanted = kept & (frobenius > (1 - 1e-9) * lower)
    spec = 0.0
    for (b0, b1, _, _), (_, _, stack) in zip(lay.groups, m.stacks()):
        picked = stack[wanted[b0:b1]]
        if picked.size:
            spec = max(spec, float(np.linalg.svd(picked, compute_uv=False)[:, 0].max()))
    return spec


# ---------------------------------------------------------------------------
# deformed commutation relations
# ---------------------------------------------------------------------------


def shift_norm(space, vals: np.ndarray, targets: np.ndarray, degree: int) -> float:
    """The largest spectral norm of P b P over the blocks b of a stack of
    weighted shifts, with P the projector onto the states of
    :meth:`fock.FockSpace.safe_mask` at creator degree `degree`: row s of
    block b holds vals[b, s] in column targets[b, s] (D for none), and
    targets[b] is s -> s + v_b for one shift v_b per block.  Distinct rows
    of a block then have distinct columns, so b is a partial permutation
    times a diagonal, and its norm is its largest modulus over the rows
    whose row state and target state are both safe (module docstring)."""
    safe = np.append(space.safe_mask(degree), False)
    return float(np.abs(vals[safe[:-1] & safe[targets]]).max(initial=0.0))


def generator_distance(g1: DeformedGenerators, g0: DeformedGenerators) -> float:
    """The largest spectral norm of A^i_1 - A^i_0 and of A+_i,1 - A+_i,0
    over i, on the whole space (creator degree 0).  Both sets are dressed
    ladders on the space's ladder columns, so each difference is a
    weighted shift (:func:`shift_norm`)."""
    d = g1.space.dim
    vals = np.concatenate([g1.a.vals - g0.a.vals, g1.ap.vals - g0.ap.vals])
    targets = np.concatenate([g1.a.cols, g1.ap.cols])
    return shift_norm(g1.space, vals[:, :d], targets[:, :d], 0)


def _pair_entries(m, n: int):
    """Row, column and value of each nonzero entry of the numeric
    N^2 x N^2 relation matrix m, in row-major order.  Raises ValueError on
    an entry that couples two pairs of mode indices of different weight
    ({i, j} and {k, l} differ), whose defect block would not be one
    shift."""
    m = np.asarray(m, dtype=complex)
    r, c = np.nonzero(m)
    (i, j), (k, l) = divmod(r, n), divmod(c, n)
    bad = (np.minimum(i, j) != np.minimum(k, l)) | (np.maximum(i, j) != np.maximum(k, l))
    if bad.any():
        raise ValueError(f"relation entry ({r[bad][0]}, {c[bad][0]}) couples pairs of "
                         f"different weight")
    return r, c, m[r, c]


def quadratic_residual_matrices(a, ap, rel, cross: dict, sign: int):
    """The stacked defects of the three quadratic exchange relations of the
    generators with gather tables a (the A^i) and ap (the A+_i), for the
    numeric N^2 x N^2 relation matrix rel and each numeric cross candidate
    X in the dict cross (module docstring).  Each defect is an N^2 x D
    array of values: row s of block b = i N + j holds its one entry in the
    column of s + e_i + e_j (annihilators), s - e_i - e_j (creators) or
    s + e_i - e_j (cross).  Returns (annihilator defect, creator defect,
    {name: cross defect}).

    Each entry sums the terms that the sparse products of the stacked
    generators summed, with the same factors in the same order
    (:func:`_sum_rows`): the nonzeros of rel in row-major order, and the
    cross terms of a diagonal block over decreasing h, the order in which
    the product of the stacks stored them.  Raises ValueError when rel or
    a candidate couples pairs of different weight."""
    n, d = a.vals.shape[0], a.vals.shape[1] - 1
    i, j = divmod(np.arange(n * n), n)

    def product(x, first, then):
        # row s of (operator first[e]) (operator then[e]), for each e
        return x.vals[first, :d] * x.vals[then[:, None], x.cols[first, :d]]

    r, c, v = _pair_entries(rel, n)
    (k_r, l_r), (k_c, l_c) = divmod(r, n), divmod(c, n)
    ann = _sum_rows(r, v[:, None] * product(a, l_c, k_c), n * n)   # R^{ij}_{kl} A^l A^k
    cre = _sum_rows(c, product(ap, k_r, l_r) * v[:, None], n * n)  # A+_k A+_l R^{kl}_{ij}
    direct = a.vals[i, :d] * ap.vals[j[:, None], a.cols[i, :d]]  # A^i A+_j - delta
    direct[i == j] -= 1
    out = {}
    for name, x in cross.items():
        r, c, v = _pair_entries(x, n)
        (i_x, h), (j_x, k) = divmod(r, n), divmod(c, n)
        # A+_h X^{ih}_{jk} A^k into block (i, j), over decreasing h
        terms = (ap.vals[h, :d] * v[:, None]) * a.vals[k[:, None], ap.cols[h, :d]]
        out[name] = direct - sign * _sum_rows((i_x * n + j_x)[::-1], terms[::-1], n * n)
    return ann, cre, out


def dcr_residuals(gens: DeformedGenerators, rel: RelationMatrices,
                  tol: float = 1e-10) -> list[CaseResult]:
    """Residual rows for the deformed commutation relations, identities of
    creator degree 2.

    Three groups: annihilating projector against A (x) A, against
    A+ (x) A+, and the cross relation for each carried candidate.  Raises
    ValueError when a relation matrix couples pairs of different weight.
    """
    if rel.n != gens.n:
        raise ValueError("generator set and relation matrices disagree on N")
    if abs(rel.q - gens.params.q) > 1e-12 or rel.sign != gens.params.sign:
        raise ValueError("generator set and relation matrices disagree on (q, sign)")
    space, n = gens.space, gens.n
    ann, cre, cross = quadratic_residual_matrices(
        gens.a, gens.ap, rel.annihilating_projector, rel.cross_candidates, rel.sign)
    eye = np.eye(n, dtype=int)
    weight = (eye[:, None] + eye[None, :]).reshape(n * n, n)
    moved = (eye[:, None] - eye[None, :]).reshape(n * n, n)
    up, down, across = np.split(space.shift_targets(np.concatenate([weight, -weight, moved])), 3)

    def case(name, m, targets):
        return CaseResult(name, shift_norm(space, m, targets, 2), tol, {"safe_degree": 2})

    return [case("dcr_aa", ann, up), case("dcr_apap", cre, down)] + \
        [case(f"dcr_cross[{name}]", m, across) for name, m in cross.items()]


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
    identities of creator degree 2.  N_h of dressed ladders is diagonal
    (:meth:`deform.DeformedGenerators.number_diagonal`), so block i of
    each relation's defect moves s by -e_i or by +e_i alone.
    """
    space, d = gens.space, gens.space.dim
    q2s = gens.params.q ** (2 * gens.params.sign)
    a, ap = gens.a, gens.ap
    nh = gens.number_diagonal()
    eye = np.eye(gens.n, dtype=int)
    up, down = np.split(space.shift_targets(np.concatenate([eye, -eye])), 2)
    av, apv = a.vals[:, :d], ap.vals[:, :d]
    out = [
        CaseResult("qnumber_creator_relation",
                   shift_norm(space, nh[:d] * apv - apv - q2s * (apv * nh[down]), down, 2),
                   tol, {"safe_degree": 2}),
        CaseResult("qnumber_annihilator_relation",
                   shift_norm(space, nh[:d] * av - (1.0 / q2s) * (-av + av * nh[up]), up, 2),
                   tol, {"safe_degree": 2}),
    ]

    if gens.space.statistics is Statistics.BOSE:
        expected = np.array([qnum(t, q2s).real for t in space.shell.astype(float)])
        raw = float(np.abs(nh[:d].real - expected).max())
        scale = max(1.0, float(np.abs(expected).max()))
        out.append(CaseResult("qnumber_spectrum", raw / scale, 1e-12,
                              {"safe_degree": 0, "raw_residual": raw, "scale": scale}))
    return out


# ---------------------------------------------------------------------------
# quadratic metric invariants (so(N)-shaped sets)
# ---------------------------------------------------------------------------


def _metric_diagonal(c: np.ndarray, n: int) -> np.ndarray:
    """The diagonal of the N x N metric c; ValueError when c has an
    off-diagonal entry."""
    c = np.asarray(c)
    off = c - np.diag(np.diag(c))
    if c.shape != (n, n) or off.any():
        raise ValueError("the metric invariant checks take a diagonal metric: an "
                         "off-diagonal entry would map a sector to several sectors")
    return np.diag(c)


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

    The defects are block operators on the (shell, parity) sectors
    (``fock.BlockOperator``), the N relations of a row one stack.  A
    diagonal C keeps ACA and A+CA+ on one sector each, since
    A^i A^i moves (k, p) to (k - 2, p); an off-diagonal entry would not, and
    raises ValueError.
    """
    space, n = gens.space, gens.n
    a, ap = gens.a, gens.ap
    c_a = LadderTable(a.cols, _metric_diagonal(c_lower, n)[:, None] * a.vals)     # C_ii A^i
    c_ap = LadderTable(ap.cols, _metric_diagonal(c_upper, n)[:, None] * ap.vals)  # C^ii A+_i
    eye = diagonal(space, np.ones(space.dim))
    c_a_blocks, c_ap_blocks = c_a @ eye, c_ap @ eye
    aca = (c_a_blocks @ a).sum_labels()        # sum_i C_ii A^i A^i
    apcap = (c_ap_blocks @ ap).sum_labels()    # sum_i C^ii A+_i A+_i
    factor = 1.0 + q ** (2 - n)
    defects = [aca @ a - a @ aca,
               apcap @ ap - ap @ apcap,
               aca @ ap - q**2 * (ap @ aca) - factor * c_a_blocks,
               a @ apcap - q**2 * (apcap @ a) - factor * c_ap_blocks]
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

    N_h is diagonal, so entry (s, c) of the defect is sigma(X)_sc
    (N_h[c] - N_h[s]), on the stored entries of sigma(X)
    (``liealg.sigma_entries``).  A sl(N) basis element has one piece, an
    so(N) one has two, so the defect stack is measured by the exact
    component norm, which reads the modulus of each entry of a one-shift
    block.
    """
    space, d = gens.space, gens.space.dim
    nh = gens.number_diagonal()
    label, rows, cols, sigma = sigma_entries(space, data)
    defect = sigma * nh[cols] - nh[rows] * sigma
    mask = np.tile(space.safe_mask(2), len(data.basis_labels))
    norm = _norm_of_entries(label * d + rows, label * d + cols, defect, mask)
    return [CaseResult("commutant[qnumber_operator]", norm, tol, {"safe_degree": 2})]
