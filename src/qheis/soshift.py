"""so(N) orbital machinery: the generator l and its shift operators.

On the N-mode bosonic space the extended invariant

    l^2 = (n + N/2 - 1)^2 - (a+.a+)(a.a)

is positive semidefinite, commutes with n, a.a and a+.a+, and its
spectral square root l labels joint (n, l) eigenspaces.  l^2 moves
occupation between modes in pairs, so it also keeps the parity of each
mode's occupation: it is block diagonal on the (shell, parity) sectors,
and l is built from one batched eigh per sector size (build_orbital).
The shift operators

    alpha^i_s   = a^i (n + N/2 - 1 + s l) - a+_i (a.a)
    alpha+_i,s  = a+_i (n + N/2 - 1 + s l) - (a+.a+) a_i        (s = +-1)

move l by -+1 / +-1 and n by -+1, which lets functional equations in
(n, l) be checked pointwise on the realized joint spectrum.  The four
equations solved by the so(N) dressing ratio y (with
beta = (1 + q^(N-2))/2, s_pm = n + N/2 + 1 +- l, t_pm = n + N/2 - 1 +- l):

  E1: 2 beta = s_- y(n+1,l+1)/y(n+2,l) - q^2 t_- y(n-1,l+1)/y(n,l)
  E2: 2 beta = s_+ y(n+1,l-1)/y(n+2,l) - q^2 t_+ y(n-1,l-1)/y(n,l)
  E3: 2 beta = s_- y(n,l)/y(n+1,l-1)   - q^2 t_- y(n-2,l)/y(n-1,l-1)
  E4: 2 beta = s_+ y(n,l)/y(n+1,l+1)   - q^2 t_+ y(n-2,l)/y(n-1,l+1)

Every y-ratio telescopes to elementary factors (qspecial.y_son_ratio),
each equation reduces to (x)_{q^2} - q^2 (x-1)_{q^2} = 1, and at q = 1
each collapses to s_pm - t_pm = 2.  Cartesian metric c = identity
throughout.

Every operator here is a block operator on the (shell, parity) sectors
of the space (``fock.BlockOperator``): l^2, l, a.a and a+.a+ map each
sector to one sector, a^i and a+_i move (k, p) to (k -+ 1, p xor e_i),
and a product or sum of them maps each sector to one sector again.  l^2
and l are one block per sector; the a^i and a+_i are the space's ladders
in block form with real amplitudes (``FockSpace.ladder_blocks``, built
once per space), so every product is one batched block product, and the
N modes run down the stack of a block operator, so a check makes the
same number of products at every N.  The commutator and shift-operator
checks take their shared operands (the ladders and their products with
a.a and a+.a+) from one StructureOperands, which builds each once.  The
orbital data (l^2, l, a.a, a+.a+ and the spectral grid) depend on the
space alone, so ``soN-orbital`` keeps them on the space
(``FockSpace.derived``) and builds them once per process for each space
it holds; a StructureOperands is freed with its unit, since at (3, 20)
its products are large.
verify_y_son looks up the shifted arguments of every grid point at once,
by searchsorted on the grid sorted by (shell, l).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fock import BlockOperator, FockSpace, Statistics, diagonal
from .qspecial import checked_q, y_son_ratio
from .verify import CaseResult, projected_norms


@dataclass
class OrbitalData:
    space: FockSpace
    l2: BlockOperator
    l: BlockOperator
    spectral_grid: list  # (n, l, multiplicity) triples
    aa: BlockOperator     # a.a with the identity metric
    apap: BlockOperator   # a+.a+


def build_orbital(space: FockSpace) -> OrbitalData:
    """Diagonalize l^2 on each (shell, parity) sector and take the
    spectral square root.

    l^2 commutes with the total number and with the parity of each mode's
    occupation, and a sector is a block of it: at N = 3, cutoff 10, 40
    blocks of at most 21 states, where the shells reach 66.
    Diagonalizing sector by sector keeps l free of rounding noise between
    sectors; the sectors of one size share one batched eigh.  The
    spectral grid lists (n, l, multiplicity) per shell, with the levels of
    a shell's sectors merged at 1e-8.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything below -1e-10
    signals a bug (l^2 is expected positive semidefinite here) and raises.
    The operators are read-only: the suite keeps one orbital set per space
    (``FockSpace.derived``) and shares it between its calls.
    """
    if space.statistics is not Statistics.BOSE or space.modes < 3:
        raise ValueError("orbital data needs a bosonic space with N >= 3 modes")
    if space.cutoff < 4:
        raise ValueError("cutoff >= 4 required for the shift-equation grid")
    an, ap = space.ladder_blocks
    aa = (an @ an).sum_labels().read_only()
    apap = (ap @ ap).sum_labels().read_only()
    l2 = (diagonal(space.sectors, (space.shell + space.modes / 2.0 - 1.0) ** 2)
          - apap @ aa).read_only()

    shell = space.sectors.shell
    roots = []
    levels: dict[int, list[float]] = {}
    for src, _, blocks in l2.stacks():
        evals, evecs = np.linalg.eigh(blocks)
        if evals.min() < -1e-10:
            worst = np.argmin(evals.min(axis=1))
            raise ValueError(f"l^2 eigenvalue {evals.min():.3e} below -1e-10 "
                             f"in the n={shell[src[worst]]} block")
        lvals = np.sqrt(np.clip(evals, 0.0, None))
        roots.append(((evecs * lvals[:, None, :]) @ evecs.transpose(0, 2, 1)).ravel())
        for n_val, lv in zip(shell[src], lvals):
            levels.setdefault(int(n_val), []).extend(lv)
    grid: list[tuple[float, float, int]] = []
    for n_val, lvals in levels.items():
        distinct: dict[float, int] = {}  # distinct l of this shell -> multiplicity
        for lv in sorted(lvals):
            gl = next((gl for gl in distinct if abs(gl - lv) < 1e-8), float(lv))
            distinct[gl] = distinct.get(gl, 0) + 1
        grid += [(float(n_val), gl, m) for gl, m in distinct.items()]
    lmat = BlockOperator(l2.partition, l2.layout, np.concatenate(roots)).read_only()
    return OrbitalData(space, l2, lmat, sorted(grid), aa, apap)


class StructureOperands:
    """The operands that the structure checks of one orbital set share,
    each built on first use and kept while this object lives (the
    checks of one ``soN-orbital`` unit): the four stacks of a ladder
    times a.a or a+.a+.  The ladders themselves are the space's
    (``FockSpace.ladder_blocks``)."""

    def __init__(self, orb: OrbitalData):
        self.orb = orb

    @property
    def ladders(self) -> tuple[BlockOperator, BlockOperator]:
        return self.orb.space.ladder_blocks

    @functools.cached_property
    def ap_aa(self) -> BlockOperator:
        return self.ladders[1] @ self.orb.aa          # block i: a+_i (a.a)

    @functools.cached_property
    def a_apap(self) -> BlockOperator:
        return self.ladders[0] @ self.orb.apap        # block i: a^i (a+.a+)

    @functools.cached_property
    def aa_ap(self) -> BlockOperator:
        return self.orb.aa @ self.ladders[1]          # (a.a) a+_i

    @functools.cached_property
    def apap_a(self) -> BlockOperator:
        return self.orb.apap @ self.ladders[0]        # (a+.a+) a^i


def l2_commutator_residuals(ops: StructureOperands) -> list[CaseResult]:
    """[l^2, a.a] = 0 = [l^2, a+.a+], plus the mixed commutator formulas

        [l^2, a^i]  = -a^i (2n - 3 + N) + 2 a+_i (a.a)
                    = -a^i (2n + 1 + N) + 2 (a.a) a+_i
        [l^2, a+_i] =  a+_i (2n - 1 + N) - 2 (a+.a+) a^i
                    =  a+_i (2n + 3 + N) - 2 a^i (a+.a+)

    in both equivalent orderings; the commuting rows are held to 1e-12,
    the mixed ones to 1e-11.  A mixed row is the larger norm of its two
    orderings' defects.
    """
    orb = ops.orb
    space = orb.space
    nn = space.modes
    l2 = orb.l2
    rows = [CaseResult(f"l2_commutes_{name}", projected_norms(space, l2 @ x - x @ l2, 2),
                       1e-12, {"safe_degree": 2})
            for name, x in (("aa", orb.aa), ("apap", orb.apap))]

    a, ap = ops.ladders
    d_a1, d_a2, d_p1, d_p2 = (diagonal(space.sectors, 2.0 * space.shell + nn + c)
                              for c in (-3, 1, -1, 3))
    comm_a, comm_ap = l2 @ a - a @ l2, l2 @ ap - ap @ l2
    form_a1 = 2 * ops.ap_aa - a @ d_a1
    form_a2 = 2 * ops.aa_ap - a @ d_a2
    form_p1 = ap @ d_p1 - 2 * ops.apap_a
    form_p2 = ap @ d_p2 - 2 * ops.a_apap
    for name, defects in (("a", [comm_a - form_a1, comm_a - form_a2]),
                          ("aplus", [comm_ap - form_p1, comm_ap - form_p2])):
        rows.append(CaseResult(f"l2_mixed_commutator_{name}",
                               max(projected_norms(space, m, 2) for m in defects),
                               1e-11, {"safe_degree": 2}))
    return rows


def shift_operators(ops: StructureOperands,
                    sign: int) -> tuple[BlockOperator, BlockOperator]:
    """The l-shifting combinations s = sign, as stacks of N block
    operators whose operator i is alpha^i_s (first) or alpha+_i,s
    (second).

    Purely classical objects (no q anywhere).  Built from the first
    of the two equivalent orderings; their agreement is a separate check.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    orb, space = ops.orb, ops.orb.space
    a, ap = ops.ladders
    shifted = diagonal(space.sectors, space.shell + space.modes / 2.0 - 1.0) + sign * orb.l
    return a @ shifted - ops.ap_aa, ap @ shifted - ops.apap_a


def shift_operator_residuals(ops: StructureOperands, sign: int) -> list[CaseResult]:
    """Two checks per sign: the double equalities defining each alpha
    (its two equivalent orderings agree), and the eigen-shift relations

        l alpha+_i,s = alpha+_i,s (l + s),   l alpha^i_s = alpha^i_s (l - s),

    each row the larger norm of its two defects.
    """
    orb = ops.orb
    space, l = orb.space, orb.l
    down, up = shift_operators(ops, sign)
    a, ap = ops.ladders
    diag2 = diagonal(space.sectors, space.shell + space.modes / 2.0 + 1.0) + sign * l
    order = [down - (a @ diag2 - ops.aa_ap), up - (ap @ diag2 - ops.a_apap)]
    eigen = [l @ up - up @ l - sign * up, l @ down - down @ l + sign * down]
    return [
        CaseResult(f"shift_orderings_agree[s={sign:+d}]",
                   max(projected_norms(space, m, 2) for m in order),
                   1e-12, {"safe_degree": 2}),
        CaseResult(f"shift_eigen_relations[s={sign:+d}]",
                   max(projected_norms(space, m, 2) for m in eigen),
                   1e-10, {"safe_degree": 2}),
    ]


def _grid_by_n(grid):
    """The (n, l) points of a spectral grid sorted by shell round(n) and
    then by l, as (width, keys, n, l) arrays with the sort key
    round(n) width + l.  The width is a power of two above the spread of
    the l values plus 2, so the keys of a shell lie in one interval and
    the intervals of two shells are more than 2 apart."""
    gn, gl = (np.array([p[k] for p in grid], dtype=float) for k in (0, 1))
    width = 2.0 ** np.ceil(np.log2(np.ptp(gl) + 2.0))
    keys = np.round(gn) * width + gl
    order = np.argsort(keys, kind="stable")
    return width, keys[order], gn[order], gl[order]


def _on_grid(by_n, n, l) -> np.ndarray:
    """Whether each (n, l) is within 1e-6 in both coordinates of a grid
    point of its shell round(n) (n and l arrays of one shape).  searchsorted
    places the key of (n, l) among the sorted keys; a point within the
    window, if there is one, lies in the key interval of the shell, so the
    nearest grid point below or above the key is within it too, and only
    those two are tested."""
    width, keys, gn, gl = by_n
    n, l = np.asarray(n, dtype=float), np.asarray(l, dtype=float)
    shell = np.round(n)
    at = np.searchsorted(keys, shell * width + l)
    found = np.zeros(n.shape, dtype=bool)
    for near in (np.maximum(at - 1, 0), np.minimum(at, keys.size - 1)):
        found |= ((np.round(gn[near]) == shell) & (np.abs(gn[near] - n) < 1e-6)
                  & (np.abs(gl[near] - l) < 1e-6))
    return found


# The four functional equations: the (n, l) offsets of the arguments
# (top1, bot1, top2, bot2) of their two y-ratios, and the sign of l in
# their coefficients s and t (module docstring)
_EQUATIONS = (
    (((1, 1), (2, 0), (-1, 1), (0, 0)), -1),
    (((1, -1), (2, 0), (-1, -1), (0, 0)), +1),
    (((0, 0), (1, -1), (-2, 0), (-1, -1)), -1),
    (((0, 0), (1, 1), (-2, 0), (-1, 1)), +1),
)


def verify_y_son(orb: OrbitalData, q: float) -> list[CaseResult]:
    """Evaluate the four functional equations pointwise on the joint
    (n, l) spectrum at the deformation parameter q, with all y-ratios
    computed by telescoped recurrences.

    A point contributes to an equation only if every shifted argument it
    references is also realized on the grid; the arguments of all points
    are looked up at once (:func:`_on_grid`).  Each equation is held to
    1e-10.  Raises ValueError unless q is a real number > 0.
    """
    q = checked_q(q)
    if len(orb.spectral_grid) == 0:
        raise ValueError("empty spectral grid")
    nn = orb.space.modes
    rhs = 1.0 + q ** (nn - 2)
    by_n = _grid_by_n(orb.spectral_grid)
    grid_n, grid_l = by_n[2], by_n[3]
    offsets = {o for args, _ in _EQUATIONS for o in args}
    realized = {(dn, dl): _on_grid(by_n, grid_n + dn, grid_l + dl) for dn, dl in offsets}
    rows = []
    for k, (args, sign) in enumerate(_EQUATIONS):
        worst, count = 0.0, 0
        for at in np.flatnonzero(np.logical_and.reduce([realized[o] for o in args])):
            n, l = float(grid_n[at]), float(grid_l[at])
            top1, bot1, top2, bot2 = ((n + dn, l + dl) for dn, dl in args)
            coeff1 = n + nn / 2.0 + 1.0 + sign * l   # s_-+
            coeff2 = n + nn / 2.0 - 1.0 + sign * l   # t_-+
            r1 = y_son_ratio(*bot1, *top1, nn, q)    # y(top1) / y(bot1)
            r2 = y_son_ratio(*bot2, *top2, nn, q)
            val = coeff1 * r1 - q**2 * coeff2 * r2
            worst = max(worst, abs(val - rhs))
            count += 1
        if count == 0:
            raise ValueError(f"grid too small: functional equation {k+1} never realized")
        rows.append(CaseResult(f"y_so_functional_eq{k+1}", worst, 1e-10, {"points": count}))
    return rows
