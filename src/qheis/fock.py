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

Block operators: a :class:`Partition` splits a basis into parts keyed
by integer vectors (a coordinate may be taken modulo an integer), and an
operator that moves every key by one vector maps each part to one part.
The Fock sectors (:attr:`FockSpace.sectors`) are keyed by
(shell, n_N mod 2, ..., n_1 mod 2), so l^2 and l of ``soshift``, a.a,
a+.a+, a^i and their products map each sector to one sector; the weight
blocks of ``kz`` are keyed by the sl(N) weight.  A :class:`BlockOperator`
stores a stack of such operators as one unpadded dense block per
(operator, source part), the blocks of one shape stacked in one flat
array (:class:`BlockLayout`), and is built from its entries
(:meth:`BlockOperator.from_entries`, :func:`diagonal`, and
:func:`ladder_stack` for the operators of a ladder table, as the space's
own ladders :attr:`FockSpace.ladder_blocks`) or as a product of two
block operators, one batched product per shape (:func:`block_product`).
A ladder block holds at most one entry per row and per column, so each
entry of a product with it is one product of two entries plus exact
zeros.  The layouts and the plans are built once per partition.

One space per process: :func:`build_space` returns the same
:class:`FockSpace` for the same (modes, statistics, cutoff), so its
sectors, ladder blocks, pair targets, layouts and product plans are
built once per process, not once per suite call.  It keeps the
SPACES_HELD = 8 spaces asked for most recently (an LRU cache; invalid
arguments raise on every call).  What another module builds from a
space alone, with no q in it (``soshift``'s orbital data, ``kz``'s
operator system, ``liealg``'s sigma entries), it keeps on the space
through :meth:`FockSpace.derived`, so it is built on first use and
freed with the space.  Shared operands are read-only.  A space held
after a call keeps its memory (tracemalloc): about 6 MB after
``slN`` (6, 10), 58 MB after ``slN`` (6, 16), 24 MB after
``soN-orbital`` (3, 20) and 4 MB after ``kz-operator`` (3, 8); the bound
counts spaces, not bytes.  A process that makes one suite call gains
nothing from this; a process that makes many (tests, sweeps, the
benchmark) builds each space once.

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


WEYL, CLIFFORD = +1, -1  # the sign s of the Weyl (bosonic) and the Clifford (fermionic) algebra


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"

    @property
    def sign(self) -> int:  # the sign s of the algebra on a space of these statistics
        return WEYL if self is Statistics.BOSE else CLIFFORD


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
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.occ.shape[0]

    @functools.cached_property
    def sectors(self) -> Partition:
        """The (shell, parity) sectors of the space, built on first use:
        the partition keyed by (shell, n_N mod 2, ..., n_1 mod 2)."""
        keys = np.vstack([np.ones(self.modes, dtype=int), np.eye(self.modes, dtype=int)[::-1]])
        return Partition(self.occ @ keys.T, [0] + [2] * self.modes, self.shell)

    @functools.cached_property
    def ladder_blocks(self) -> tuple[BlockOperator, BlockOperator]:
        """The N annihilators and the N creators as block operators on the
        sectors (:func:`ladder_stack`), with their real amplitudes,
        read-only and built on first use."""
        return (ladder_stack(self, LadderTable(self.an.cols, self.an.vals.real)).read_only(),
                ladder_stack(self, LadderTable(self.ap.cols, self.ap.vals.real)).read_only())

    @functools.cached_property
    def pair_targets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The states s + e_i + e_j, s - e_i - e_j and s + e_i - e_j of every
        basis state s (:meth:`shift_targets`), three N^2 x D arrays with
        the pair (i, j) in row i N + j, read-only and built on first use:
        the targets of the quadratic exchange relations, which every
        generator set on the space shares.  The indices are at most D, so
        they are held as int32, half the size of the default integers."""
        eye = np.eye(self.modes, dtype=int)
        weight = (eye[:, None] + eye[None, :]).reshape(-1, self.modes)
        moved = (eye[:, None] - eye[None, :]).reshape(-1, self.modes)
        targets = self.shift_targets(np.concatenate([weight, -weight, moved])).astype(np.int32)
        return _read_only(*np.split(targets, 3))

    def derived(self, key, build):
        """The object stored under key, from build() on first use, kept
        with the space: the q-independent operands that other modules
        build on it, as ``soshift``'s orbital data and ``kz``'s operator
        system, which live exactly as long as the space."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

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
        return self.safe_shells(self.shell, degree)

    def safe_shells(self, shell: np.ndarray, degree: int) -> np.ndarray:
        """Which of the total occupations `shell` are those of safe states
        at creator degree `degree` (:meth:`safe_mask`)."""
        if self.statistics is Statistics.FERMI:
            return np.ones(np.shape(shell), dtype=bool)
        return shell <= self.cutoff - degree

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


# The most spaces that build_space keeps, each with everything built on it
SPACES_HELD = 8


def build_space(modes: int, statistics: Statistics, cutoff: int | None = None) -> FockSpace:
    """The truncated Fock space of (modes, statistics, cutoff), with its N
    annihilators and N creators: one space per process while it is among
    the SPACES_HELD most recently asked for (module docstring).

    Bose: all occupation tuples with sum <= cutoff, dim = C(N+cutoff, N).
    Fermi: the full hypercube {0,1}^N, dim = 2^N (cutoff ignored).
    """
    if statistics is Statistics.FERMI:
        cutoff = modes
    return _interned_space(modes, statistics, cutoff)


def _new_space(modes: int, statistics: Statistics, cutoff: int | None) -> FockSpace:
    """The space of (modes, statistics, cutoff), built anew, the fermionic
    cutoff already set to N: the builder behind :func:`build_space`."""
    if modes < 1:
        raise ValueError("need at least one mode")
    fermi = statistics is Statistics.FERMI
    if fermi:
        occ = _fermi_basis(modes)
    else:
        if cutoff is None or cutoff < 1:
            raise ValueError("bosonic space needs cutoff >= 1")
        occ = _bose_basis(modes, cutoff)
        assert len(occ) == math.comb(modes + cutoff, modes)
    shell = occ.sum(axis=1)
    an, ap = _ladders(occ, _unit_steps(occ, cutoff), fermi)
    _read_only(occ, shell, *an, *ap)
    return FockSpace(modes, statistics, cutoff, occ, shell, an, ap)


_interned_space = functools.lru_cache(maxsize=SPACES_HELD)(_new_space)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


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


class Partition:
    """A partition of a basis into parts, with the layouts and product
    plans of the block operators on it, each built on first use and kept
    with the partition.

    Each state has a key, an integer vector whose coordinate c is taken
    modulo moduli[c] where that is not 0, and a part is the set of states
    of one key.  The parts are numbered in the lexicographic order of
    their keys (key[k], the first coordinate leading); part k holds the
    states members[start[k]:start[k] + size[k]] in increasing index, state
    s is the place[s]-th state of part of[s], and shell[k] is the total
    occupation of the Fock states of part k, which must be one per part.

    An operator moves the parts by a key vector v when it maps each part
    k to the part keyed key[k] + v, where there is one, and to nothing
    where there is none (:class:`BlockLayout`); moves compose by addition."""

    def __init__(self, keys, moduli, shell):
        self.moduli = np.asarray(moduli)
        keys = self._reduced(np.asarray(keys))
        # each key as the mixed-radix number of its offsets from the least
        # key, the first coordinate leading, so the numbers sort as the keys
        # do; a coordinate modulo m has the digits 0..m-1
        cyclic = self.moduli > 0
        self.low = np.where(cyclic, 0, keys.min(axis=0))
        self.span = np.where(cyclic, self.moduli, keys.max(axis=0) - self.low + 1)
        self.radix = np.append(np.cumprod(self.span[:0:-1])[::-1], 1)
        self.codes, self.of = np.unique((keys - self.low) @ self.radix, return_inverse=True)
        self.size = np.bincount(self.of)
        self.start = np.cumsum(self.size) - self.size
        self.members = np.argsort(self.of, kind="stable")
        self.place = np.empty(self.of.size, dtype=int)
        self.place[self.members] = np.arange(self.of.size) - np.repeat(self.start, self.size)
        self.key = keys[self.members[self.start]]
        self.shell = np.asarray(shell)[self.members[self.start]]
        self._layouts: dict = {}
        self._plans: dict = {}

    def _reduced(self, keys: np.ndarray) -> np.ndarray:
        """keys with each coordinate that has a modulus taken modulo it."""
        return np.where(self.moduli > 0, keys % np.maximum(self.moduli, 1), keys)

    def layout(self, moves) -> BlockLayout:
        """The layout of a stack of operators whose operator l moves the
        parts by the key vector moves[l]."""
        moves = self._reduced(np.asarray(moves))
        key = tuple(map(tuple, moves.tolist()))
        if key not in self._layouts:
            target = self._reduced(self.key + moves[:, None, :]) - self.low
            want = target @ self.radix
            at = np.minimum(np.searchsorted(self.codes, want), self.codes.size - 1)
            found = ((target >= 0) & (target < self.span)).all(axis=2) & (self.codes[at] == want)
            self._layouts[key] = BlockLayout(moves, np.where(found, at, -1), self.size)
        return self._layouts[key]

    def plan(self, key, build):
        """The product plan stored under key, with the layout of its
        product, from build() on first use."""
        if key not in self._plans:
            self._plans[key] = build()
        return self._plans[key]


class BlockLayout:
    """Where the blocks of a stack of L operators on the parts of a
    partition lie in one flat array.  Operator l moves each part by the
    key vector moves[l], so it holds one block, a dense
    size(target) x size(source) matrix, per source part whose target
    exists (target[l, source], -1 where there is none).  Block b belongs
    to operator label[b] and maps part src[b] to dst[b]; its
    height x width entries are row-major from offset[b].  The blocks are
    ordered by shape, then by operator and source, so the blocks of one
    shape form one (B, height, width) stack: the groups (first block,
    last block + 1, height, width)."""

    def __init__(self, moves: np.ndarray, target: np.ndarray, size: np.ndarray):
        self.moves = moves
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
    def row_starts(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat offset of the first entry of each row of each block,
        block after block, and the place of each block's first row in it:
        the cuts of np.add.reduceat over the entries, then over the rows."""
        first = np.cumsum(self.height) - self.height
        block = np.repeat(np.arange(self.height.size), self.height)
        row = np.arange(block.size) - first[block]
        return self.offset[block] + row * self.width[block], first


@dataclass(frozen=True, eq=False, repr=False)
class BlockOperator:
    """A stack of operators on the blocks of a partition (see
    :class:`BlockLayout`): the values of its blocks, flat.  Block
    operators of one layout add and scale entry by entry; ``@`` multiplies
    two block operators of one partition (:func:`block_product`).  A
    stack of one operator broadcasts against a stack of L."""

    partition: Partition
    layout: BlockLayout
    data: np.ndarray

    __array_ufunc__ = None  # a numpy scalar on the left defers to __rmul__

    @classmethod
    def from_entries(cls, parts: Partition, rows, cols, vals, label=0) -> BlockOperator:
        """The stack whose operator label[e] holds vals[e] in row rows[e]
        and column cols[e], for each entry e (label may be one number), the
        entries of one place summed in the order of e.  An operator moves
        the parts as any one of its entries does, from the part of its
        column to the part of its row, and an operator without entries
        keeps them; ValueError when another entry of the operator does
        not agree, as when the operator maps one part to two parts."""
        rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals)
        label = np.broadcast_to(label, rows.shape)
        src, dst = parts.of[cols], parts.of[rows]
        ops, one = np.unique(label, return_index=True)  # an entry of each operator
        moves = np.zeros((label.max(initial=0) + 1, parts.key.shape[1]), dtype=int)
        moves[ops] = parts.key[dst[one]] - parts.key[src[one]]
        lay = parts.layout(moves)
        b = lay.at[label, src]
        bad = (b < 0) | (lay.dst[b] != dst)
        if bad.any():
            raise ValueError(f"operator {label[bad][0]} maps part {src[bad][0]} to two parts, "
                             f"or two parts by different moves")
        data = np.zeros(lay.total, dtype=np.result_type(vals, float))
        np.add.at(data, lay.offset[b] + parts.place[rows] * lay.width[b] + parts.place[cols], vals)
        return cls(parts, lay, data)

    @property
    def size(self) -> int:
        """The number of stored block entries."""
        return self.data.size

    def read_only(self) -> BlockOperator:
        """This stack with its values made read-only, so that an operand
        shared between calls cannot be changed under a later one."""
        _read_only(self.data)
        return self

    def stacks(self):
        """(source parts, target parts, (B, height, width) view of the
        blocks) for each shape."""
        lay = self.layout
        for b0, b1, m, n in lay.groups:
            first = lay.offset[b0]
            yield (lay.src[b0:b1], lay.dst[b0:b1],
                   self.data[first:first + (b1 - b0) * m * n].reshape(b1 - b0, m, n))

    def sum_labels(self) -> BlockOperator:
        """The sum of the operators of the stack, which must move the
        parts alike: each shape then holds the same run of sources for
        every operator, one after the other."""
        lay = self.layout
        if (lay.moves != lay.moves[0]).any():
            raise ValueError("the operators of the stack move the parts differently")
        out = self.partition.layout(lay.moves[:1])
        sums = [stack.reshape(lay.moves.shape[0], -1).sum(axis=0)
                for _, _, stack in self.stacks()]
        return BlockOperator(self.partition, out,
                             np.concatenate(sums) if sums else self.data[:0])

    def _values(self, other) -> np.ndarray:
        """The values of other, a block operator of the same layout."""
        if not isinstance(other, BlockOperator) or other.layout is not self.layout:
            raise ValueError("block operators of different layouts")
        return other.data

    def __add__(self, other):
        return BlockOperator(self.partition, self.layout, self.data + self._values(other))

    def __sub__(self, other):
        return BlockOperator(self.partition, self.layout, self.data - self._values(other))

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return BlockOperator(self.partition, self.layout, scalar * self.data)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, BlockOperator):
            return NotImplemented
        return block_product(self, other)


def diagonal(partition: Partition, values: np.ndarray) -> BlockOperator:
    """The diagonal operator with entry values[s] at state s, as one block
    per part."""
    states = np.arange(partition.of.size)
    return BlockOperator.from_entries(partition, states, states, values)


def ladder_stack(space: FockSpace, table: LadderTable) -> BlockOperator:
    """The N operators of a ladder table on the columns of the space's own
    ladders, as a stack of block operators on its sectors: each moves the
    sectors as its mode's ladder does."""
    d = space.dim
    label, rows = np.nonzero(table.cols[:, :d] < d)
    return BlockOperator.from_entries(space.sectors, rows, table.cols[label, rows],
                                      table.vals[label, rows], label)


def _runs(*keys: np.ndarray) -> list[tuple[int, int]]:
    """(first, last + 1) of each run of equal key tuples in the sorted
    arrays keys."""
    stacked = np.stack(keys)
    cuts = (np.flatnonzero((stacked[:, 1:] != stacked[:, :-1]).any(axis=0)) + 1).tolist()
    bounds = [0, *cuts, stacked.shape[1]] if stacked.shape[1] else []
    return list(zip(bounds[:-1], bounds[1:]))


def block_product(x: BlockOperator, y: BlockOperator) -> BlockOperator:
    """x y, for two block operators of one partition, as a block operator.

    Operator l of the product is x_l y_l, where a stack of one operator
    stands for each l.  Each block of the product multiplies the blocks
    that its source passes through, in one batched product per shape
    (height, inner, width); a block whose middle part does not exist is
    zero."""
    parts = x.partition
    if y.partition is not parts:
        raise ValueError("block operators of different partitions")
    lay, plan = parts.plan(("product", x.layout, y.layout),
                           lambda: _product_plan(parts, x.layout, y.layout))
    data = np.zeros(lay.total, dtype=np.result_type(x.data, y.data))
    for out, at_x, at_y, (count, m, k, n) in plan:
        data[out] = (x.data[at_x].reshape(count, m, k)
                     @ y.data[at_y].reshape(count, k, n)).reshape(-1)
    return BlockOperator(parts, lay, data)


def _product_plan(parts: Partition, x: BlockLayout, y: BlockLayout):
    """The layout of x y and, for each shape (height, inner, width) of its
    blocks, the flat places of the product's blocks and of their
    factors."""
    n_x, n_y = x.moves.shape[0], y.moves.shape[0]
    if n_x != n_y and 1 not in (n_x, n_y):
        raise ValueError(f"stacks of {n_x} and {n_y} operators do not multiply")
    labels = np.arange(max(n_x, n_y))
    p_x, p_y = np.minimum(labels, n_x - 1), np.minimum(labels, n_y - 1)
    lay = parts.layout(x.moves[p_x] + y.moves[p_y])
    if y.total == 0:
        return lay, []
    label = lay.label
    b_y = y.at[p_y[label], lay.src]
    b_x = x.at[p_x[label], y.dst[b_y]]
    sel = np.flatnonzero((b_y >= 0) & (b_x >= 0))
    b_x, b_y = b_x[sel], b_y[sel]
    m, k, n = lay.height[sel], y.height[b_y], lay.width[sel]
    order = np.lexsort((n, k, m))
    sel, b_x, b_y, m, k, n = (v[order] for v in (sel, b_x, b_y, m, k, n))
    out, at_x, at_y = lay.offset[sel], x.offset[b_x], y.offset[b_y]
    heights, inners, widths = m.tolist(), k.tolist(), n.tolist()
    plan = []
    for f, e in _runs(m, k, n):
        mm, kk, nn = heights[f], inners[f], widths[f]
        plan.append((_places(out[f:e], mm * nn), _places(at_x[f:e], mm * kk),
                     _places(at_y[f:e], kk * nn), (e - f, mm, kk, nn)))
    return lay, plan


def _places(first: np.ndarray, area: int):
    """The flat places of the entries of blocks of one area that start at
    first: a slice, which reads a view, when each block follows the one
    before it, else an index array."""
    starts = first.tolist()
    if all(b - a == area for a, b in zip(starts, starts[1:])):
        return slice(starts[0], starts[-1] + area)
    return (first[:, None] + np.arange(area)).reshape(-1)


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
