"""so(N) orbital machinery: the generator l and its shift operators.

On the N-mode bosonic space the extended invariant

    l^2 = (n + N/2 - 1)^2 - (a+.a+)(a.a)

is positive semidefinite, commutes with n, a.a and a+.a+, and its
spectral square root l labels joint (n, l) eigenspaces.  The shift
operators

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fock import FockSpace, LinOp, Statistics, _diag, annihilator, creator
from .qspecial import DeformParams, y_son_ratio
from .verify import CaseResult, max_norms, projected_norms


@dataclass
class OrbitalData:
    space: FockSpace
    l2: LinOp
    l: LinOp
    spectral_grid: list  # (n, l, multiplicity) triples
    aa: sparse.csr_array     # a.a with the identity metric
    apap: sparse.csr_array   # a+.a+
    an: list                 # annihilator matrices a^1 .. a^N
    ap: list                 # creator matrices a+_1 .. a+_N


def build_orbital(space: FockSpace, clamp: float = 1e-10) -> OrbitalData:
    """Diagonalize l^2 within each total-number eigenspace and take the
    spectral square root.

    Eigenvalues in [-clamp, 0) are clamped to zero; anything below -clamp
    signals a bug (l^2 is expected positive semidefinite here) and raises.
    """
    if space.statistics is not Statistics.BOSE or space.modes < 3:
        raise ValueError("orbital data needs a bosonic space with N >= 3 modes")
    if space.cutoff < 4:
        raise ValueError("cutoff >= 4 required for the shift-equation grid")
    n_modes = space.modes
    an = [annihilator(space, i).matrix for i in range(1, n_modes + 1)]
    ap = [creator(space, i).matrix for i in range(1, n_modes + 1)]
    aa = sum(a @ a for a in an)
    apap = aa.conj().T.tocsr()
    ntot = space.total_occupations()
    shift = (ntot + n_modes / 2.0 - 1.0) ** 2
    l2 = _diag(shift) - apap @ aa

    # l is block diagonal over the shells: assemble it from the shell blocks
    rows, cols, vals = [], [], []
    grid: dict[tuple[float, float], int] = {}
    for n_val in sorted(set(ntot)):
        sel = np.where(ntot == n_val)[0]
        block = l2[sel][:, sel].toarray()
        evals, evecs = np.linalg.eigh(block)
        if evals.min() < -clamp:
            raise ValueError(f"l^2 eigenvalue {evals.min():.3e} below -{clamp:g} "
                             f"in the n={n_val} block")
        evals = np.clip(evals, 0.0, None)
        lvals = np.sqrt(evals)
        rows.append(np.repeat(sel, sel.size))
        cols.append(np.tile(sel, sel.size))
        vals.append(((evecs * lvals) @ evecs.conj().T).ravel())
        for lv in lvals:
            key = None
            for (gn, gl) in list(grid):
                if gn == n_val and abs(gl - lv) < 1e-8:
                    key = (gn, gl)
                    break
            if key is None:
                grid[(float(n_val), float(lv))] = 1
            else:
                grid[key] += 1
    spectral_grid = sorted((n, l, m) for (n, l), m in grid.items())
    lmat = sparse.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=l2.shape)
    return OrbitalData(space, LinOp(space, l2, grade=0), LinOp(space, lmat, grade=0),
                       spectral_grid, aa, apap, an, ap)


def l2_commutator_residuals(orb: OrbitalData, tol: float = 1e-12) -> list[CaseResult]:
    """[l^2, a.a] = 0 = [l^2, a+.a+], plus the mixed commutator formulas

        [l^2, a^i]  = -a^i (2n - 3 + N) + 2 a+_i (a.a)
                    = -a^i (2n + 1 + N) + 2 (a.a) a+_i
        [l^2, a+_i] =  a+_i (2n - 1 + N) - 2 (a+.a+) a^i
                    =  a+_i (2n + 3 + N) - 2 a^i (a+.a+)

    in both equivalent orderings.
    """
    space = orb.space
    nn = space.modes
    l2 = orb.l2.matrix
    nvec = space.total_occupations()
    rows = []
    s, f = projected_norms(space, l2 @ orb.aa - orb.aa @ l2, 2)
    rows.append(CaseResult("l2_commutes_aa", s, tol, {"frobenius": f, "safe_degree": 2}))
    s, f = projected_norms(space, l2 @ orb.apap - orb.apap @ l2, 2)
    rows.append(CaseResult("l2_commutes_apap", s, tol, {"frobenius": f, "safe_degree": 2}))

    d_a1, d_a2, d_p1, d_p2 = (_diag(2 * nvec + nn + c) for c in (-3, 1, -1, 3))
    norms_a, norms_ap = [], []
    for i in range(1, nn + 1):
        ai, api = orb.an[i - 1], orb.ap[i - 1]
        comm_a = l2 @ ai - ai @ l2
        comm_ap = l2 @ api - api @ l2
        form_a1 = -ai @ d_a1 + 2 * (api @ orb.aa)
        form_a2 = -ai @ d_a2 + 2 * (orb.aa @ api)
        form_p1 = api @ d_p1 - 2 * (orb.apap @ ai)
        form_p2 = api @ d_p2 - 2 * (ai @ orb.apap)
        norms_a += [projected_norms(space, comm_a - form, 2) for form in (form_a1, form_a2)]
        norms_ap += [projected_norms(space, comm_ap - form, 2) for form in (form_p1, form_p2)]
    rows.append(CaseResult("l2_mixed_commutator_a", max_norms(norms_a)[0], 10 * tol,
                           {"safe_degree": 2}))
    rows.append(CaseResult("l2_mixed_commutator_aplus", max_norms(norms_ap)[0], 10 * tol,
                           {"safe_degree": 2}))
    return rows


def shift_operators(orb: OrbitalData, sign: int) -> tuple[list[LinOp], list[LinOp]]:
    """The l-shifting combinations (alpha^i_s list, alpha+_i,s list), s = sign.

    Purely classical objects (no q anywhere).  Built from the first
    of the two equivalent orderings; their agreement is a separate check.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    space = orb.space
    nn = space.modes
    diag = _diag(space.total_occupations() + nn / 2.0 - 1.0) + sign * orb.l.matrix
    alpha_down, alpha_up = [], []
    for i in range(1, nn + 1):
        ai, api = orb.an[i - 1], orb.ap[i - 1]
        alpha_down.append(LinOp(space, ai @ diag - api @ orb.aa, grade=-1))
        alpha_up.append(LinOp(space, api @ diag - orb.apap @ ai, grade=+1))
    return alpha_down, alpha_up


def shift_operator_residuals(orb: OrbitalData, sign: int,
                             tol_order: float = 1e-12,
                             tol_eige: float = 1e-10) -> list[CaseResult]:
    """Two checks per sign: the double equalities defining each alpha
    (its two equivalent orderings agree), and the eigen-shift relations

        l alpha+_i,s = alpha+_i,s (l + s),   l alpha^i_s = alpha^i_s (l - s).
    """
    space = orb.space
    nn = space.modes
    alpha_down, alpha_up = shift_operators(orb, sign)
    diag2 = _diag(space.total_occupations() + nn / 2.0 + 1.0) + sign * orb.l.matrix
    lmat = orb.l.matrix
    eye = sparse.eye_array(space.dim, format="csr")
    norms_order, norms_eige = [], []
    for i in range(1, nn + 1):
        ai, api = orb.an[i - 1], orb.ap[i - 1]
        down, up = alpha_down[i - 1].matrix, alpha_up[i - 1].matrix
        norms_order += [projected_norms(space, down - (ai @ diag2 - orb.aa @ api), 2),
                        projected_norms(space, up - (api @ diag2 - ai @ orb.apap), 2)]
        norms_eige += [projected_norms(space, lmat @ up - up @ (lmat + sign * eye), 2),
                       projected_norms(space, lmat @ down - down @ (lmat - sign * eye), 2)]
    return [
        CaseResult(f"shift_orderings_agree[s={sign:+d}]", max_norms(norms_order)[0],
                   tol_order, {"safe_degree": 2}),
        CaseResult(f"shift_eigen_relations[s={sign:+d}]", max_norms(norms_eige)[0],
                   tol_eige, {"safe_degree": 2}),
    ]


def _on_grid(grid, n, l) -> bool:
    return any(abs(gn - n) < 1e-6 and abs(gl - l) < 1e-6 for gn, gl, _ in grid)


def verify_y_son(orb: OrbitalData, params: DeformParams,
                 tol: float = 1e-10) -> list[CaseResult]:
    """Evaluate the four functional equations pointwise on the joint
    (n, l) spectrum, with all y-ratios computed by telescoped recurrences.

    A point contributes to an equation only if every shifted argument it
    references is also realized on the grid.
    """
    if len(orb.spectral_grid) == 0:
        raise ValueError("empty spectral grid")
    nn = orb.space.modes
    q = params.q_real
    rhs = 1.0 + q ** (nn - 2)

    def ratio(n1, l1, n2, l2):
        # y(n2, l2) / y(n1, l1)
        return y_son_ratio(n1, l1, n2, l2, nn, q)

    worst = [0.0, 0.0, 0.0, 0.0]
    counts = [0, 0, 0, 0]
    for n, l, _ in orb.spectral_grid:
        sm, sp = n + nn / 2.0 + 1.0 - l, n + nn / 2.0 + 1.0 + l
        tm, tp = n + nn / 2.0 - 1.0 - l, n + nn / 2.0 - 1.0 + l
        eqs = [
            (0, (n + 1, l + 1), (n + 2, l), (n - 1, l + 1), (n, l), sm, tm),
            (1, (n + 1, l - 1), (n + 2, l), (n - 1, l - 1), (n, l), sp, tp),
            (2, (n, l), (n + 1, l - 1), (n - 2, l), (n - 1, l - 1), sm, tm),
            (3, (n, l), (n + 1, l + 1), (n - 2, l), (n - 1, l + 1), sp, tp),
        ]
        for k, top1, bot1, top2, bot2, coeff1, coeff2 in eqs:
            pts = [top1, bot1, top2, bot2]
            if not all(_on_grid(orb.spectral_grid, *p) for p in pts):
                continue
            r1 = ratio(*bot1, *top1)
            r2 = ratio(*bot2, *top2)
            val = coeff1 * r1 - q**2 * coeff2 * r2
            worst[k] = max(worst[k], abs(val - rhs))
            counts[k] += 1
    rows = []
    for k in range(4):
        if counts[k] == 0:
            raise ValueError(f"grid too small: functional equation {k+1} never realized")
        rows.append(CaseResult(f"y_so_functional_eq{k+1}", worst[k], tol,
                               {"points": counts[k]}))
    return rows
