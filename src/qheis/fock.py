"""Truncated Fock spaces: the occupation basis and its ladder tables.

The carrier space for everything in this package is a Fock space over N
bosonic or fermionic modes, truncated at a maximum total occupation.
Basis states are occupation tuples (n_1, ..., n_N) in lexicographic
order, so reports are bit-for-bit reproducible.  A :class:`FockSpace` is
the one way to reach its objects: the read-only occupation table
:attr:`FockSpace.occ` (D x N, one row per basis state), the shells
(total occupations) :attr:`FockSpace.shell`, the state s + v that a
shift v reaches from each s (:meth:`FockSpace.shift_targets`), and the N
annihilators and N creators, built once, as the read-only
:attr:`FockSpace.an` and :attr:`FockSpace.ap` (0-based mode index).

Stored form: a ladder, and a generator that dresses it (``deform``),
stores at most one entry per basis state, so it is stored as a
:class:`LadderTable`, the column and the value of each row's entry, on
which the checks of dressed generators gather and add (``verify``).  A
dressing is an array indexed by occupation.  The particle-number grade g
of an operator X ([n_tot, X] = g X) is not stored; :func:`grade_defect`
measures it.

Block operators: an operator that moves the shell by a fixed step and
flips the parities of the occupations of a fixed set of modes (l^2 and l
of ``soshift``, a.a, a+.a+, a^i, and their products) maps each
(shell, parity) sector (:class:`Sectors`,
:attr:`FockSpace.sectors`) to one sector.  A :class:`BlockOperator`
stores a stack of such operators as one unpadded dense block per
(operator, source sector), the blocks of one shape stacked in one flat
array (:class:`BlockLayout`).  A product with a ladder table is one
gather, a product of two block operators one batched product per shape
(:func:`block_product`), and a diagonal is one block per sector
(:func:`diagonal`); the layouts and the gather plans are built once per
space.

Direct construction: the tables are written from index arrays, with no
Python loop over the basis (each neighbour state is found by its
mixed-radix key, and the bosonic basis is built only from the states
that exist).

Truncation contract: on a bosonic space an operator identity of
creator-degree d is exact only on the subspace with total occupation
<= cutoff - d; a fermionic space is not truncated, so every identity is
exact on all of it.  :meth:`FockSpace.safe_mask` marks the states of
that subspace; the verification modules measure every residual
restricted to it (``verify.shift_norm``, ``verify.projected_norms``),
and each check states only the creator degree of its identity.  Defects
of the truncation are confined to the discarded top bosonic shells.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import NamedTuple

import numpy as np


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


def _bose_basis(modes: int, cutoff: int) -> np.ndarray:
    """The occupation rows with sum <= cutoff in lexicographic order, one
    mode at a time: each prefix, in order, is followed by every value its
    remaining budget allows, in increasing order, so only the states that
    exist are ever built."""
    prefixes = np.zeros((1, 0), dtype=int)
    for _ in range(modes):
        room = cutoff - prefixes.sum(axis=1) + 1
        first = np.cumsum(room) - room
        values = np.arange(room.sum()) - np.repeat(first, room)
        prefixes = np.column_stack([np.repeat(prefixes, room, axis=0), values])
    return prefixes


def _fermi_basis(modes: int) -> np.ndarray:
    return np.array(list(product(range(2), repeat=modes)), dtype=int)


class LadderTable(NamedTuple):
    """N operators that store at most one entry per row, as gather tables:
    row s of operator i holds vals[i, s] in column cols[i, s].  Both have
    D + 1 columns.  A row with no entry, and the appended sink row D,
    hold column D and value 0, so a chain of gathers needs no mask: row s
    of the product of operators l and k holds vals[l, s] vals[k, c] in
    column cols[k, c], c = cols[l, s]."""

    cols: np.ndarray
    vals: np.ndarray


@dataclass(frozen=True)
class FockSpace:
    """Occupation-number basis for N modes with a total-occupation cutoff,
    with its mode ladders.  (modes, statistics, cutoff) fix the space, so
    they alone are compared.

    For fermions the cutoff is forced to N (each mode holds 0 or 1).
    """

    modes: int
    statistics: Statistics
    cutoff: int
    occ: np.ndarray = field(repr=False, compare=False)  # D x N occupations
    shell: np.ndarray = field(repr=False, compare=False)  # n_tot per state
    an: LadderTable = field(repr=False, compare=False)  # a^1 .. a^N
    ap: LadderTable = field(repr=False, compare=False)  # a+_1 .. a+_N

    @property
    def dim(self) -> int:
        return self.occ.shape[0]

    @functools.cached_property
    def sectors(self) -> Sectors:
        """The (shell, parity) sectors of the space, built on first use."""
        return Sectors(self)

    def state_index(self, occ) -> int:
        """The index of the basis state with occupations occ; KeyError when
        it is not a state of the space."""
        hit = np.flatnonzero((self.occ == np.asarray(occ)).all(axis=1))
        if hit.size == 0:
            raise KeyError(tuple(occ))
        return int(hit[0])

    def safe_mask(self, degree: int) -> np.ndarray:
        """Basis states on which an identity of creator-degree `degree` is
        exact: total occupation <= cutoff - degree on a bosonic space,
        every state on a fermionic one."""
        if self.statistics is Statistics.FERMI:
            return np.ones(self.dim, dtype=bool)
        return self.shell <= self.cutoff - degree

    def shift_targets(self, shifts) -> np.ndarray:
        """The state s + v for every basis state s and every row v of the
        integer S x N array shifts, as an S x D array of state indices that
        holds D where s + v is not a state of the space.

        Each target is reached by single steps s -> s -+ e_k, lowering
        first (the columns of the creators, then of the annihilators).
        Lowering first, every occupation moves monotonically from that of
        s to that of s + v, and the total never exceeds the larger of
        their totals, so every state on the way exists whenever s + v
        does: the target is there whether or not a product of dressed
        ladders reaches it."""
        shifts = np.asarray(shifts)
        targets = np.tile(np.arange(self.dim), (len(shifts), 1))
        for steps, count in ((self.ap.cols, -shifts), (self.an.cols, shifts)):
            for k in range(self.modes):
                for r in range(count[:, k].max(initial=0)):
                    move = count[:, k] > r
                    targets[move] = steps[k, targets[move]]
        return targets


def build_space(modes: int, statistics: Statistics, cutoff: int | None = None) -> FockSpace:
    """Build a truncated Fock space and its N annihilators and N creators.

    Bose: all occupation tuples with sum <= cutoff, dim = C(N+cutoff, N).
    Fermi: the full hypercube {0,1}^N, dim = 2^N (cutoff ignored).
    """
    if modes < 1:
        raise ValueError("need at least one mode")
    fermi = statistics is Statistics.FERMI
    if fermi:
        occ = _fermi_basis(modes)
        cutoff = modes
    else:
        if cutoff is None or cutoff < 1:
            raise ValueError("bosonic space needs cutoff >= 1")
        occ = _bose_basis(modes, cutoff)
        assert len(occ) == math.comb(modes + cutoff, modes)
    shell = occ.sum(axis=1)
    an, ap = _ladders(occ, _unit_steps(occ, cutoff), fermi)
    for arr in (occ, shell, *an, *ap):
        arr.flags.writeable = False
    return FockSpace(modes, statistics, cutoff, occ, shell, an, ap)


def _unit_steps(occ: np.ndarray, cutoff: int) -> np.ndarray:
    """The 2 x N x (D + 1) table of single steps: [0, k, s] is the state
    s - e_k and [1, k, s] the state s + e_k, D where that state does not
    exist, and the sink D maps to itself.  The basis is in lexicographic
    order, so the keys sum_k n_k (cutoff + 1)^(N-1-k) of its states
    increase and searchsorted finds each neighbour; a step is kept when
    the moved occupation lies in 0..cutoff (else its key could name
    another state) and its key is a state's."""
    dim, modes = occ.shape
    radix = (cutoff + 1) ** np.arange(modes - 1, -1, -1)
    keys = (occ * radix).sum(axis=1)
    target = keys + np.concatenate([-radix, radix])[:, None]
    moved = np.concatenate([occ.T - 1, occ.T + 1])
    cols = np.minimum(np.searchsorted(keys, target), dim - 1)
    steps = np.where((moved >= 0) & (moved <= cutoff) & (keys[cols] == target), cols, dim)
    return np.column_stack([steps, np.full(2 * modes, dim)]).reshape(2, modes, dim + 1)


def _ladders(occ: np.ndarray, steps: np.ndarray,
             fermi: bool) -> tuple[LadderTable, LadderTable]:
    """The tables of the N annihilators and of the N creators.  Row t of
    a^k holds its one entry in the column of t + e_k, and row t of a+_k in
    that of t - e_k (the steps of :func:`_unit_steps`), when that state
    exists.  Bose amplitudes sqrt(n_k + 1) and sqrt(n_k); Fermi: the
    Jordan-Wigner sign (-1)**(n_1 + ... + n_{k-1}) of the modes before k,
    which makes the anticommutation relations exact on the full space."""
    dim = occ.shape[0]
    sign = np.where((np.cumsum(occ, axis=1) - occ) % 2, -1.0, 1.0)
    tables = []
    for cols, step in ((steps[1], +1), (steps[0], -1)):
        amp = sign if fermi else np.sqrt(np.maximum(occ, occ + step).astype(float))
        vals = np.zeros(cols.shape, dtype=complex)
        vals[:, :dim] = np.where(cols[:, :dim] < dim, amp.T, 0.0)
        tables.append(LadderTable(cols, vals))
    return tables[0], tables[1]


class Sectors:
    """The (shell, parity of each mode's occupation) sectors of a space,
    with the layouts and gather plans of the block operators on them, each
    built on first use and kept with the space.

    Sector k holds the states members[start[k]:start[k] + size[k]] in
    increasing index, and state s is the place[s]-th state of sector
    of[s].  The sectors are numbered in the increasing order of the key
    shell 2^N + sum_i (n_i mod 2) 2^i, so the sector that a shift of the
    shell by dk and of the parities by the bits flip reaches from key K is
    found by searching for K + dk 2^N with its parity bits xor flip."""

    def __init__(self, space: FockSpace):
        dim, modes = space.dim, space.modes
        self.radix = 1 << modes
        bits = (space.occ % 2) @ (1 << np.arange(modes))
        self.keys, self.of = np.unique(space.shell * self.radix + bits, return_inverse=True)
        self.size = np.bincount(self.of)
        self.start = np.cumsum(self.size) - self.size
        self.members = np.argsort(self.of, kind="stable")
        self.place = np.empty(dim, dtype=int)
        self.place[self.members] = np.arange(dim) - np.repeat(self.start, self.size)
        # (columns, the columns of the inverse shift, shell step) of each ladder:
        # the entry of an annihilator's table in column c is in row c - e_i,
        # the creator's column of c, and the other way round
        self.ladders = ((space.an.cols, space.ap.cols, -1), (space.ap.cols, space.an.cols, +1))
        self._layouts: dict = {}
        self._plans: dict = {}

    def layout(self, dk: np.ndarray, flip: np.ndarray) -> BlockLayout:
        """The layout of a stack of operators whose operator l moves the
        shell by dk[l] and the parity bits by flip[l]."""
        key = (tuple(dk.tolist()), tuple(flip.tolist()))
        if key not in self._layouts:
            shell, bits = np.divmod(self.keys, self.radix)
            want = (shell + dk[:, None]) * self.radix + (bits ^ flip[:, None])
            at = np.minimum(np.searchsorted(self.keys, want), self.keys.size - 1)
            self._layouts[key] = BlockLayout(dk, flip, np.where(self.keys[at] == want, at, -1),
                                             self.size)
        return self._layouts[key]

    def plan(self, key, build):
        """The gather or product plan stored under key, from build() on
        first use."""
        if key not in self._plans:
            self._plans[key] = build()
        return self._plans[key]

    def ladder(self, table: LadderTable):
        """(columns, inverse columns, shell step) of the space's ladder whose
        columns the table holds; ValueError for any other table."""
        for ladder in self.ladders:
            if table.cols is ladder[0]:
                return ladder
        raise ValueError("a block product takes a ladder table on the columns of the "
                         "space's own annihilators or creators")


class BlockLayout:
    """Where the blocks of a stack of L operators on the sectors lie in one
    flat array.  Operator l moves each sector (k, p) to the one sector
    (k + dk[l], p xor flip[l]), so it holds one block, a dense
    size(target) x size(source) matrix, per source whose target exists
    (target[l, source], -1 where there is none).  Block b belongs to
    operator label[b] and maps sector src[b] to dst[b]; its
    height x width entries are row-major from offset[b].  The blocks are
    ordered by shape, then by operator and source, so the blocks of one
    shape form one (B, height, width) stack: the groups (first block,
    last block + 1, height, width)."""

    def __init__(self, dk: np.ndarray, flip: np.ndarray, target: np.ndarray, size: np.ndarray):
        self.dk, self.flip = dk, flip
        label, src = np.nonzero(target >= 0)
        dst = target[label, src]
        height, width = size[dst], size[src]
        order = np.lexsort((src, label, width, height))
        self.label, self.src, self.dst = label[order], src[order], dst[order]
        self.height, self.width = height[order], width[order]
        area = self.height * self.width
        self.offset = np.cumsum(area) - area
        self.total = int(area.sum())
        self.at = np.full(target.shape, -1)  # block of (operator, source), -1 for none
        self.at[self.label, self.src] = np.arange(self.label.size)
        self.groups = [(b0, b1, int(self.height[b0]), int(self.width[b0]))
                       for b0, b1 in _runs(self.height, self.width)]

    @functools.cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The block, row and column of each flat entry."""
        area = self.height * self.width
        block = np.repeat(np.arange(area.size), area)
        row, col = np.divmod(np.arange(self.total) - self.offset[block], self.width[block])
        return block, row, col


@dataclass(frozen=True, eq=False, repr=False)
class BlockOperator:
    """A stack of operators on the sector blocks of a space (see
    :class:`BlockLayout`): the values of its blocks, flat.  Block
    operators of one layout add and scale entry by entry; ``@`` multiplies
    two block operators, or a block operator and a ladder table of the
    space (:func:`block_product`).  A stack of one operator broadcasts
    against a stack of L."""

    sectors: Sectors
    layout: BlockLayout
    data: np.ndarray

    __array_ufunc__ = None  # a numpy scalar on the left defers to __rmul__

    @property
    def size(self) -> int:
        """The number of stored block entries."""
        return self.data.size

    def stacks(self):
        """(source sectors, target sectors, (B, height, width) view of the
        blocks) for each shape."""
        lay = self.layout
        for b0, b1, m, n in lay.groups:
            first = lay.offset[b0]
            yield (lay.src[b0:b1], lay.dst[b0:b1],
                   self.data[first:first + (b1 - b0) * m * n].reshape(b1 - b0, m, n))

    def sum_labels(self) -> BlockOperator:
        """The sum of the operators of the stack, which must move the
        sectors alike: each shape then holds the same run of sources for
        every operator, one after the other."""
        lay = self.layout
        if (lay.dk != lay.dk[0]).any() or (lay.flip != lay.flip[0]).any():
            raise ValueError("the operators of the stack move the sectors differently")
        out = self.sectors.layout(lay.dk[:1], lay.flip[:1])
        parts = [stack.reshape(lay.dk.size, -1).sum(axis=0) for _, _, stack in self.stacks()]
        return BlockOperator(self.sectors, out,
                             np.concatenate(parts) if parts else self.data[:0])

    def _values(self, other) -> np.ndarray:
        """The values of other, a block operator of the same layout."""
        if not isinstance(other, BlockOperator) or other.layout is not self.layout:
            raise ValueError("block operators of different layouts")
        return other.data

    def __add__(self, other):
        return BlockOperator(self.sectors, self.layout, self.data + self._values(other))

    def __sub__(self, other):
        return BlockOperator(self.sectors, self.layout, self.data - self._values(other))

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return BlockOperator(self.sectors, self.layout, scalar * self.data)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return block_product(self, other)

    def __rmatmul__(self, other):
        return block_product(other, self)


def diagonal(space: FockSpace, values: np.ndarray) -> BlockOperator:
    """The diagonal operator with entry values[s] at state s, as one block
    per sector."""
    sec = space.sectors
    lay = sec.layout(np.zeros(1, dtype=int), np.zeros(1, dtype=int))
    block, row, col = lay.entries
    on = row == col
    data = np.zeros(lay.total, dtype=np.result_type(values, float))
    data[on] = values[sec.members[sec.start[lay.src[block[on]]] + row[on]]]
    return BlockOperator(sec, lay, data)


def _runs(*keys: np.ndarray) -> list[tuple[int, int]]:
    """(first, last + 1) of each run of equal key tuples in the sorted
    arrays keys."""
    first = np.flatnonzero(np.diff(np.stack(keys), axis=1, prepend=-1).any(axis=0))
    return list(zip(first.tolist(), np.append(first[1:], keys[0].size).tolist()))


def _composed(sec: Sectors, first: BlockLayout, dk: np.ndarray, flip: np.ndarray):
    """The layout of a product of two stacks, one of layout first and one
    whose operator l moves the sectors by (dk[l], flip[l]), with the
    operator of each factor that each operator of the product takes."""
    n_1, n_2 = first.dk.size, dk.size
    if n_1 != n_2 and 1 not in (n_1, n_2):
        raise ValueError(f"stacks of {n_1} and {n_2} operators do not multiply")
    labels = np.arange(max(n_1, n_2))
    p_1, p_2 = np.minimum(labels, n_1 - 1), np.minimum(labels, n_2 - 1)
    return sec.layout(first.dk[p_1] + dk[p_2], first.flip[p_1] ^ flip[p_2]), p_1, p_2


def block_product(x, y) -> BlockOperator:
    """x y, for two block operators or a block operator and a ladder table
    on the columns of the space's own ladders, as a block operator.

    A product with a ladder is a gather: row r of T_i X is T_i[r] times
    row r + e_i (annihilator) of X, and column c of X T_i is T_i[c - e_i]
    times column c - e_i of X, each from the block of X that the sector
    shift names, and zero where that state is not in the space.  A
    product of two block operators multiplies the blocks that each source
    passes through, in one batched product per shape (height, inner,
    width); a block whose middle sector does not exist is zero."""
    if isinstance(x, LadderTable):
        return _gather(y, x, rows=True)
    if isinstance(y, LadderTable):
        return _gather(x, y, rows=False)
    sec = x.sectors
    if y.sectors is not sec:
        raise ValueError("block operators of different spaces")
    lay, p_x, p_y = _composed(sec, x.layout, y.layout.dk, y.layout.flip)
    plan = sec.plan(("product", x.layout, y.layout), lambda: _product_plan(lay, p_x, p_y,
                                                                          x.layout, y.layout))
    data = np.zeros(lay.total, dtype=np.result_type(x.data, y.data))
    for out, at_x, at_y, (count, m, k, n) in plan:
        data[out] = (x.data[at_x].reshape(count, m, k)
                     @ y.data[at_y].reshape(count, k, n)).reshape(count, -1)
    return BlockOperator(sec, lay, data)


def _product_plan(lay: BlockLayout, p_x, p_y, x: BlockLayout, y: BlockLayout) -> list:
    """For each shape (height, inner, width) of the blocks of x y: the
    flat places of the product's blocks and of their factors."""
    if y.total == 0:
        return []
    label = lay.label
    b_y = y.at[p_y[label], lay.src]
    b_x = x.at[p_x[label], y.dst[b_y]]
    sel = np.flatnonzero((b_y >= 0) & (b_x >= 0))
    b_x, b_y = b_x[sel], b_y[sel]
    m, k, n = lay.height[sel], y.height[b_y], lay.width[sel]
    order = np.lexsort((n, k, m))
    sel, b_x, b_y, m, k, n = (v[order] for v in (sel, b_x, b_y, m, k, n))
    plan = []
    for f, e in _runs(m, k, n):
        mm, kk, nn = int(m[f]), int(k[f]), int(n[f])
        plan.append((lay.offset[sel[f:e], None] + np.arange(mm * nn),
                     x.offset[b_x[f:e], None] + np.arange(mm * kk),
                     y.offset[b_y[f:e], None] + np.arange(kk * nn), (e - f, mm, kk, nn)))
    return plan


def _gather(x: BlockOperator, table: LadderTable, rows: bool) -> BlockOperator:
    """table x (rows) or x table, by one gather from the flat values of x
    (:func:`block_product`)."""
    sec = x.sectors
    cols, inverse, step = sec.ladder(table)
    n_t = cols.shape[0]
    lay, p_x, p_t = _composed(sec, x.layout, np.full(n_t, step), 1 << np.arange(n_t))

    def build():
        # each row (T X) or column (X T) of the product is a line of x, the
        # line of state t, scaled by the table's entry in row s
        d, of_x = cols.shape[1] - 1, x.layout
        if not of_x.total:  # x holds no block: the product is zero
            return np.zeros(lay.total, dtype=int), np.full(lay.total, d)
        block, row, col = lay.entries
        along, across = (col, row) if rows else (row, col)
        first = np.flatnonzero(along == 0)  # the first entry of each line
        b, k = block[first], across[first]
        label = lay.label[b]
        if rows:  # row r of T_i X: T_i[r] times row t of X, t the column of that entry
            s = sec.members[sec.start[lay.dst[b]] + k]
            t = cols[p_t[label], s]
        else:  # column c of X T_i: T_i[s] times column s of X, s the row whose entry is in c
            s = t = inverse[p_t[label], sec.members[sec.start[lay.src[b]] + k]]
        hit = np.minimum(t, d - 1)
        b_x = of_x.at[p_x[label], lay.src[b] if rows else sec.of[hit]]
        found = (t < d) & (b_x >= 0)
        width = of_x.width[b_x]
        begin = np.where(found, of_x.offset[b_x] + sec.place[hit] * (width if rows else 1),
                         of_x.total)
        stride = np.where(found, 1 if rows else width, 0)
        if rows:  # the entries of a row are consecutive
            line = np.repeat(np.arange(first.size), lay.width[b])
        else:
            line = (np.cumsum(lay.width) - lay.width)[block] + col
        place = begin[line] + along * stride[line]
        return place.astype(np.int32), (p_t[label] * (d + 1) + s)[line].astype(np.int32)

    place, weight = sec.plan(("gather", rows, step, x.layout), build)
    return BlockOperator(sec, lay, np.append(x.data, 0)[place] * table.vals.reshape(-1)[weight])


def _sum_rows(rows: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """out[r] = the sum of the terms[e] with rows[e] == r, added from 0 in
    the order of e (np.add.at on the flat index adds one at a time): the
    entries of a sum of products of ladder tables, in the order a sparse
    product adds them."""
    d = terms.shape[1]
    out = np.zeros(size * d, dtype=complex)
    np.add.at(out, (rows[:, None] * d + np.arange(d)).ravel(), terms.ravel())
    return out.reshape(size, d)


def grade_defect(space: FockSpace, table: LadderTable, grade: int) -> float:
    """The largest relative Frobenius norm of [n_tot, X] - g X over the
    operators X of the table; zero when each has grade g.  Entry (r, c) of
    [n_tot, X] is (shell_r - shell_c) X_rc, over the stored entries."""
    d = space.dim
    worst = 0.0
    for cols, vals in zip(table.cols[:, :d], table.vals[:, :d]):
        rows = np.flatnonzero(cols < d)
        data = vals[rows]
        num = np.linalg.norm((space.shell[rows] - space.shell[cols[rows]] - grade) * data)
        den = np.linalg.norm(data)
        worst = max(worst, float(num / den) if den > 0 else 0.0)
    return worst
