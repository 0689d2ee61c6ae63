"""Suite registry, execution, and deterministic report emission.

A suite is a named bundle of residual checks over a validated
configuration.  Reports serialize to JSON with sorted keys and floats
printed with 17 significant digits, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import braid, deform, liealg, soshift, verify
from .fock import Statistics, build_space, grade_defect
from .qspecial import (CLIFFORD, WEYL, DeformParams, connection_residual,
                       gauss_2f1, gauss_2f1_deriv, hyper_ode_residual, qgamma,
                       qgamma_tilde, qnum, qbracket, reflection_residual,
                       y_sln, y_son_ratio)
from .verify import CaseResult, Report, projected_norms

# The suite parameters: name -> (type, takes several values, help text).
PARAMS = {
    "q": (float, True, "deformation parameter values"),
    "cutoff": (int, False, "maximum total occupation of the Fock space"),
    "modes": (int, False, "number of modes N"),
    "n": (float, True, "number eigenvalues for the scalar KZ suite"),
    "hbar2": (complex, True, "scalar KZ deformation parameters (complex, e.g. 0.1j)"),
}

# The parameters each suite reads, with their defaults.
DEFAULTS = {
    "sl2-bose": {"q": (0.7, 1.3), "cutoff": 8},
    "sl2-fermi": {"q": (0.7, 1.3)},
    "slN": {"q": (1.3,), "cutoff": 5, "modes": 3},
    "soN-orbital": {"q": (0.7, 1.3), "cutoff": 6, "modes": 3},
    "qspecial": {"q": (0.5, 0.9, 1.1, 2.0)},
    "kz-scalar": {"n": (2.0, 3.0, 5.0), "hbar2": (0.05, 0.1j)},
    "kz-operator": {"q": (math.e**0.1,), "cutoff": 5, "modes": 2},
    "braid": {"q": (0.7, 1.3)},
}
SUITE_IDS = tuple(DEFAULTS)

# Smallest sizes at which every negative control can fail: a degree-2 safe
# subspace beyond the vacuum, a deformed sl(N), the so(N) shift grid.
MINIMA = {
    "sl2-bose": {"cutoff": 3},
    "slN": {"cutoff": 3, "modes": 2},
    "soN-orbital": {"cutoff": 4, "modes": 3},
    "kz-operator": {"cutoff": 3, "modes": 2},
}

# Suites that refuse q = 1, with the reason.
_ONE_MAP = ("both cross candidates derive the classical map, so "
            "cross_negative_control cannot fail")
Q_ONE_REFUSED = {
    "sl2-bose": _ONE_MAP + ", nor onesided_hermiticity_nonzero_control on a hermitian map",
    "sl2-fermi": _ONE_MAP,
    "slN": _ONE_MAP,
    "kz-operator": "at h = ln q = 0, M = 1 and the h^2 scaling ratio of M - 1 is 0/0",
}


@dataclass(frozen=True)
class SuiteConfig:
    """The parameters of one suite run, as make_config checked them; a
    parameter the suite does not read is None."""

    suite: str
    q: tuple | None = None
    cutoff: int | None = None
    modes: int | None = None
    n: tuple | None = None
    hbar2: tuple | None = None


def _coerce(name: str, value):
    """A value as PARAMS declares it: a tuple when the parameter takes
    several values, a single value otherwise.  Raises ValueError for a
    boolean, which would pass as the number 0 or 1."""
    typ, many, _ = PARAMS[name]
    values = value if isinstance(value, (list, tuple)) else [value]
    if any(isinstance(v, bool) for v in values):  # bool is an int subclass
        raise ValueError(f"{name} takes numbers, not {value!r}")
    if many:
        if not values:
            raise ValueError(f"{name} needs at least one value")
        return tuple(map(typ, values))
    if typ is int and isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} takes one int, not {value!r}")
    if isinstance(value, (list, tuple)) or (typ is int and int(value) != value):
        raise ValueError(f"{name} takes one {typ.__name__}, not {value!r}")
    return typ(value)


def make_config(suite: str, **overrides) -> SuiteConfig:
    """The suite's DEFAULTS with overrides applied.  Raises ValueError for
    an unknown suite, a parameter the suite does not read, a value that is
    not finite (either part of a complex value), a value out of range, or
    q = 1 for a suite of Q_ONE_REFUSED."""
    if suite not in SUITE_IDS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_IDS}")
    declared = DEFAULTS[suite]
    unread = sorted(set(overrides) - set(declared))
    if unread:
        raise ValueError(f"{suite} does not read {', '.join(unread)}; "
                         f"it reads {', '.join(declared)}")
    values = {**declared, **{k: _coerce(k, v) for k, v in overrides.items()}}
    for name in ("q", "n", "hbar2"):
        if not all(map(cmath.isfinite, values.get(name, ()))):
            raise ValueError(f"{name} values must be finite")
    if any(q <= 0 for q in values.get("q", ())):
        raise ValueError("q values must be positive")
    if suite in Q_ONE_REFUSED and 1.0 in values["q"]:
        raise ValueError(f"{suite} needs q != 1: {Q_ONE_REFUSED[suite]}")
    for name, least in MINIMA.get(suite, {}).items():
        if values[name] < least:
            raise ValueError(f"{suite} needs {name} >= {least}; below it a "
                             f"negative control cannot fail")
    return SuiteConfig(suite=suite, **values)


def _negative_control(name: str, residual: float, floor: float = 1e-2,
                      **meta) -> CaseResult:
    """Encode 'this residual must be LARGE' as pass <=> floor/residual <= 1."""
    val = floor / residual if residual > 0 else float("inf")
    if not np.isfinite(val):
        val = 1e30
    meta = dict(meta)
    meta["raw_residual"] = residual
    meta["required_floor"] = floor
    return CaseResult(name, val, 1.0, meta)


def _derived_dcr(space, rel, tol):
    """The sl(N) generator set that each cross candidate of rel determines
    (``deform.derive_map``), checked against that candidate alone.  Returns
    the set of the candidate whose worst row is smaller, the winner, with
    its dcr_aa, dcr_apap and dcr_cross_winner rows, and a negative control
    on the worst row of the other, the loser."""
    checked = {}
    for name, x in rel.cross_candidates.items():
        gens = deform.derive_map(space, rel, name)
        rows = verify.dcr_residuals(gens, replace(rel, cross_candidates={name: x}), tol=tol)
        checked[name] = gens, rows, max(r.residual for r in rows)
    winner, loser = sorted(checked, key=lambda name: checked[name][2])
    gens, rows, _ = checked[winner]
    rows = [replace(r, name="dcr_cross_winner" if r.name.startswith("dcr_cross") else r.name,
                    metadata={**r.metadata, "candidate": winner}) for r in rows]
    rows.append(_negative_control("cross_negative_control", checked[loser][2], candidate=loser))
    return gens, rows


# ---------------------------------------------------------------------------
# suite bodies
# ---------------------------------------------------------------------------


def _suite_sl2_bose(cfg: SuiteConfig):
    space = build_space(2, Statistics.BOSE, cfg.cutoff)
    data = liealg.LieData("sl", 2)

    @functools.cache
    def derived(q):
        # the derived map and its DCR rows, shared by the q unit and its alpha unit
        return _derived_dcr(space, braid.build_relations("sl", 2, q, WEYL), tol=1e-10)

    def unit(q):
        gens, rows = derived(q)
        rows = rows + verify.number_op_check(gens, tol=1e-10)
        rows.append(CaseResult("hermiticity", deform.hermiticity_residual(gens), 1e-12))
        rows += verify.invariant_commutant_check(gens, data, tol=1e-11)
        rows.append(CaseResult(
            "grade_bookkeeping",
            max(grade_defect(space, gens.a, -1), grade_defect(space, gens.ap, +1)), 1e-13))
        return rows

    def alpha_unit(q):
        # conjugating by alpha must reproduce the one-sided generators; its
        # own unit, so that a failure here erases no sibling row
        gens, _ = derived(q)
        alpha = deform.sl2_alpha_intertwiner(space, gens.params)
        conj, cond = deform.inner_automorphism(gens, alpha)
        oneside = deform.sl2_bose_onesided_map(space, gens.params)
        return [
            CaseResult("alpha_reproduces_onesided_map",
                       verify.generator_distance(conj, oneside), 1e-12, {"cond_alpha": cond}),
            _negative_control("onesided_hermiticity_nonzero_control",
                              deform.hermiticity_residual(oneside), floor=1e-3,
                              note="one-sided dressing is not *-compatible"),
        ]

    units = []
    for q in cfg.q:
        units.append((f"q={q:g}", lambda q=q: unit(q)))
        units.append((f"q={q:g}/alpha", lambda q=q: alpha_unit(q)))

    def extra():
        # classical-limit scaling: deviation from identity is O(q - 1), on
        # the candidate that every q unit selects
        def devnorm(e):
            g1 = deform.derive_map(space, braid.build_relations("sl", 2, 1.0 + e, WEYL), "qR")
            g0 = deform.classical_generators(space, DeformParams(1.0, WEYL))
            return verify.generator_distance(g1, g0)
        ratio = devnorm(1e-3) / devnorm(5e-4)
        return [CaseResult("classical_limit_linear_scaling", abs(ratio - 2.0), 0.5,
                           {"ratio": ratio})]

    units.append(("classical-limit", extra))
    return {"family": "sl", "N": 2, "statistics": "bose", "cutoff": cfg.cutoff,
            "q": list(cfg.q), "sign": WEYL}, units


def _suite_sl2_fermi(cfg: SuiteConfig):
    space = build_space(2, Statistics.FERMI)
    data = liealg.LieData("sl", 2)

    def unit(q):
        gens, rows = _derived_dcr(space, braid.build_relations("sl", 2, q, CLIFFORD), tol=1e-12)
        rows += verify.number_op_check(gens, tol=1e-12)
        rows.append(CaseResult("hermiticity", deform.hermiticity_residual(gens), 1e-12))
        rows += verify.invariant_commutant_check(gens, data, tol=1e-12)
        return rows

    units = [(f"q={q:g}", lambda q=q: unit(q)) for q in cfg.q]
    return {"family": "sl", "N": 2, "statistics": "fermi", "q": list(cfg.q),
            "sign": CLIFFORD}, units


def _suite_sln(cfg: SuiteConfig):
    space = build_space(cfg.modes, Statistics.BOSE, cfg.cutoff)

    def unit(q):
        return _derived_dcr(space, braid.build_relations("sl", cfg.modes, q, WEYL), tol=1e-10)[1]

    units = [(f"q={q:g}", lambda q=q: unit(q)) for q in cfg.q]
    return {"family": "sl", "N": cfg.modes, "statistics": "bose",
            "cutoff": cfg.cutoff, "q": list(cfg.q), "sign": WEYL}, units


def _suite_son_orbital(cfg: SuiteConfig):
    space = build_space(cfg.modes, Statistics.BOSE, cfg.cutoff)
    orb = space.derived("orbital", lambda: soshift.build_orbital(space))

    def structural():
        # one set of shared operands for the unit's checks, freed with it
        ops = soshift.StructureOperands(orb)
        rows = soshift.l2_commutator_residuals(ops)
        for s in (+1, -1):
            rows += soshift.shift_operator_residuals(ops, s)
        return rows

    def functional(q):
        return soshift.verify_y_son(orb, DeformParams(q, WEYL))

    def classical_metric():
        # the four metric-invariant relations for the classical generators
        params = DeformParams(1.0, WEYL)
        gens = deform.classical_generators(space, params)
        eye = np.eye(cfg.modes, dtype=complex)
        return verify.metric_invariant_check(gens, eye, eye, 1.0)

    units = [("structure", structural)]
    units += [(f"q={q:g}", lambda q=q: functional(q)) for q in cfg.q]
    units.append(("classical", classical_metric))
    return {"family": "so", "N": cfg.modes, "statistics": "bose",
            "cutoff": cfg.cutoff, "q": list(cfg.q), "sign": WEYL}, units


def _suite_qspecial(cfg: SuiteConfig):
    def gammas():
        rows = []
        worst_prod = 0.0
        for q in (0.5, 0.9):
            for a in (0.5, 0.75, 1.5, 2.5, 7.25, 13.5, 19.5):
                lhs = qgamma(a + 1, q)
                rhs = qnum(a, q) * qgamma(a, q)
                worst_prod = max(worst_prod, abs(lhs - rhs) / abs(lhs))
        rows.append(CaseResult("qgamma_product_recurrence", worst_prod, 1e-12))
        worst = 0.0
        for q in cfg.q:
            for a in range(1, 21):
                lhs = qgamma(a + 1, q)
                rhs = qnum(a, q) * qgamma(a, q)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
        rows.append(CaseResult("qgamma_integer_recurrence", worst, 1e-12))
        worst = 0.0
        for q in (0.5, 0.9):
            for a in (0.75, 1.5, 2.5, 5.0, 7.25, 10.25, 19.5):
                lhs = qgamma_tilde(a + 1, q)
                rhs = qbracket(a, q) * qgamma_tilde(a, q)
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
        rows.append(CaseResult("qgamma_tilde_recurrence", worst, 1e-12))
        return rows

    def reflection():
        pts = [0.3 + 0.1j, -1.7 + 0.4j, 2.2 - 0.9j, 0.05 + 1.0j]
        pts += [a + b * 1j for a in (0.25, 0.75, 1.25, 1.75)
                for b in (-0.5, 0.1, 0.5, 1.5)]
        pts += [a + b * 1j for a in (0.25, 0.7, 1.3, -1.6, 2.2)
                for b in (-0.9, 0.1, 0.5, 1.5)]
        worst = max(reflection_residual(p) for p in pts)
        return [CaseResult("gamma_reflection_identity", worst, 1e-12,
                           {"grid_points": len(pts)})]

    def hyper():
        rows = []
        rows.append(CaseResult("hyper_value_at_zero",
                               abs(gauss_2f1(0.3, -0.2, 1.1, 0.0) - 1.0), 1e-15))
        z = 0.5
        exact = -np.log(1 - z) / z
        rows.append(CaseResult("hyper_log_series",
                               abs(gauss_2f1(1, 1, 2, z) - exact), 1e-13))
        h = 1e-5
        fd = (gauss_2f1(0.3, -0.2, 1.1, z + h) - gauss_2f1(0.3, -0.2, 1.1, z - h)) / (2 * h)
        rows.append(CaseResult("hyper_derivative_vs_central_diff",
                               abs(gauss_2f1_deriv(0.3, -0.2, 1.1, z) - fd), 1e-10))
        rows.append(CaseResult("hyper_connection_selfconsistency",
                               connection_residual(0.1, -0.1, 1.3, 0.5), 1e-10))
        worst = max(hyper_ode_residual(0.1, -0.1, 1.3, z)
                    for z in np.linspace(0.05, 0.65, 13))
        rows.append(CaseResult("hyper_ode_termwise", worst, 1e-9))
        return rows

    def dressings():
        rows = []
        worst = 0.0
        for q in (0.7, 1.3, 2.0):
            q2 = q * q
            for n in range(0, 12):
                lhs = y_sln(n + 1, q) / y_sln(n, q)
                rhs = (n + 1.0) / qnum(n + 1, q2)
                worst = max(worst, abs(lhs - rhs))
        rows.append(CaseResult("y_sl_recurrence", worst, 1e-12))
        rows.append(CaseResult("y_sl_base", abs(y_sln(0, 1.7) - 1.0), 0.0))
        worst = 0.0
        for q in (0.7, 1.3):
            for big_n in (3, 4):
                for (n, l) in ((2, 2.5), (3, 1.5), (4, 3.0)):
                    # composing two unit shifts must match the double shift
                    via = (y_son_ratio(n, l, n + 1, l + 1, big_n, q)
                           * y_son_ratio(n + 1, l + 1, n + 2, l, big_n, q))
                    direct = y_son_ratio(n, l, n + 2, l, big_n, q)
                    worst = max(worst, abs(via - direct) / abs(direct))
                    worst = max(worst, abs(y_son_ratio(n, l, n, l, big_n, q) - 1.0))
        rows.append(CaseResult("y_so_ratio_telescoping", worst, 1e-12))
        return rows

    units = [("gamma-recurrences", gammas), ("reflection", reflection),
             ("hypergeometric", hyper), ("dressings", dressings)]
    return {"q": list(cfg.q)}, units


def _suite_kz_scalar(cfg: SuiteConfig):
    from . import kz  # only the kz suites need kz; its scalar side loads scipy.special
    # built here, so that an out-of-range n or hbar2 is a usage error
    params = [kz.KZScalarParams(n=n, hbar2=hbar2, sign=sign)
              for n in cfg.n for hbar2 in cfg.hbar2 for sign in (+1, -1)]
    # c - a - b of the closed forms' connection formula is s n hbar2 (+ 1)
    for n in cfg.n:
        for hbar2 in cfg.hbar2:
            if abs(n * hbar2 - round((n * hbar2).real)) < 1e-12:
                raise ValueError(f"n*hbar2 = {n * hbar2} is an integer, where the "
                                 f"closed forms' connection formula is degenerate")

    def unit(p):
        xs = np.linspace(0.02, 0.98, 33)
        m = kz.scalar_connection(p)
        f = kz.scalar_trajectory(p, m, xs)
        sup = np.abs(f - np.array([kz.closed_form_f(p, x) for x in xs])).max()
        ref = np.array(kz.limits_reference(p))
        return [
            CaseResult("trajectory_vs_closed_forms", float(sup), 1e-10),
            CaseResult("combination_identity", kz.combination_identity_residual(p, f, xs), 1e-10),
            CaseResult("closed_forms_satisfy_ode",
                       kz.scalar_ode_residual(p, (0.2, 0.5, 0.8)), 1e-9),
            CaseResult("limits_closed_route",
                       float(np.abs(np.array(kz.limits_closed_route(p)) - ref).max()), 1e-10),
            CaseResult("limits_from_connection",
                       float(np.abs(np.array(kz.limits_from_connection(p, m)) - ref).max()),
                       1e-10),
        ]

    units = [(f"n={p.n:g},hbar2={p.hbar2},s={p.sign:+d}", lambda p=p: unit(p))
             for p in params]
    return {"n": list(cfg.n), "hbar2": [str(h) for h in cfg.hbar2]}, units


def _suite_kz_operator(cfg: SuiteConfig):
    if len(cfg.q) != 1:
        raise ValueError(f"kz-operator takes one q value, not {len(cfg.q)}")
    from . import kz
    space = build_space(cfg.modes, Statistics.BOSE, cfg.cutoff)
    system = space.derived("kz", lambda: kz.build_operator_system(space))
    q = cfg.q[0]
    h = math.log(q)

    def hbar2_of(hh):
        return hh / (math.pi * 1j)

    @functools.cache
    def coassociators():
        # M(h) and M(h/2) from one batched series, on first use by a unit,
        # so that a series error fails each unit that needs it
        return kz.coassociator_matrices(system, (hbar2_of(h), hbar2_of(h / 2)))

    def scaling():
        def norm(x):
            return projected_norms(space, x, 0)

        m_h, m_h2 = (m - system.eye for m in coassociators())
        n1, n2 = norm(m_h), norm(m_h2)
        ratio = n1 / n2
        # M - 1 = zeta(2) eta^2 [P, A] + O(h^3), read off the half-h matrix
        h2_term = math.pi**2 / 6 * hbar2_of(h / 2)**2 * (
            system.p @ system.a - system.a @ system.p)
        scale = norm(h2_term)

        def h2_defect(sign):
            return norm(m_h2 - sign * h2_term) / scale

        return [CaseResult("coassoc_h2_scaling", abs(ratio - 4.0), 0.8,
                           {"ratio": ratio, "norm_h": n1, "norm_half_h": n2}),
                CaseResult("coassoc_h2_coefficient", h2_defect(+1), 0.3,
                           {"norm_h2_term": scale}),
                _negative_control("coassoc_h2_coefficient_wrong_sign_control",
                                  h2_defect(-1), floor=0.3)]

    def main_checks():
        m = coassociators()[0]
        rows = [CaseResult("coassoc_acts_trivially_on_aa",
                           kz.acts_trivially_residual(system, m), 1e-12),
                CaseResult("coassoc_invariance",
                           kz.invariance_residual(system, m), 1e-12)]
        # wrong-statistics control: the Clifford sign must fail badly
        weyl, wrong = kz.coassociator_relation_check(
            system, (DeformParams(q, WEYL), DeformParams(q, CLIFFORD)), m)
        rows += weyl
        rows.append(_negative_control(
            "coassoc_wrong_sign_control",
            max(r.residual for r in wrong)))
        return rows

    def classical_control():
        m = kz.coassociator_matrices(system, (0.0,))[0]
        return kz.coassociator_relation_check(system, (DeformParams(1.0, WEYL),), m)[0]

    units = [("scaling", scaling), ("main", main_checks), ("q=1", classical_control)]
    return {"family": "sl", "N": cfg.modes, "cutoff": cfg.cutoff, "q": q,
            "h": h}, units


def _suite_braid(cfg: SuiteConfig):
    combos = [("sl", 2), ("sl", 3), ("so", 3), ("so", 4)]

    def unit(family, n, q):
        d = braid.relation_diagnostics(braid.build_relations(family, n, q, WEYL))
        rows = [
            CaseResult("yang_baxter", d["yang_baxter"], 1e-12),
            CaseResult("characteristic", d["characteristic"], 1e-12),
            CaseResult("projector_completeness", d["projector_completeness"], 1e-12),
            CaseResult("projector_orthogonality",
                       d["projector_orthogonality"], 1e-12,
                       {"ranks": d["projector_ranks"]}),
        ]
        rel1 = braid.build_relations(family, n, 1.0 + 1e-8, WEYL)
        rows.append(CaseResult(
            "classical_limit",
            float(np.linalg.norm(rel1.rhat - liealg.permutation_matrix(n), 2)),
            1e-6))
        if family == "so":
            rows.append(CaseResult("metric_normalization",
                                   d["metric_normalization"], 1e-12))
            rows.append(CaseResult("metric_vs_trace_projector",
                                   d["trace_projector_vs_metric"], 1e-10))
            rows.append(CaseResult(
                "metric_classical_limit",
                float(np.linalg.norm(rel1.metric_lower - np.eye(n), 2)), 1e-6))
        return rows

    units = [(f"{fam}{n}/q={q:g}", lambda f=fam, m=n, q=q: unit(f, m, q))
             for fam, n in combos for q in cfg.q]
    return {"families": [f"{f}{n}" for f, n in combos], "q": list(cfg.q)}, units


_BUILDERS = {
    "sl2-bose": _suite_sl2_bose,
    "sl2-fermi": _suite_sl2_fermi,
    "slN": _suite_sln,
    "soN-orbital": _suite_son_orbital,
    "qspecial": _suite_qspecial,
    "kz-scalar": _suite_kz_scalar,
    "kz-operator": _suite_kz_operator,
    "braid": _suite_braid,
}


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute a suite.  Each case is named <unit>/<row>.  A unit that
    raises is recorded as a failed case with the diagnostic, and the run
    continues.  Raises ValueError, before any unit runs, when two units
    share a name (say, two q values that print alike)."""
    params, units = _BUILDERS[cfg.suite](cfg)
    names = [name for name, _ in units]
    if len(set(names)) < len(names):
        raise ValueError(f"{cfg.suite}: two units share a name in {names}")
    cases: list[CaseResult] = []
    for name, unit in units:
        try:
            cases.extend(replace(r, name=f"{name}/{r.name}") for r in unit())
        except Exception as exc:  # noqa: BLE001 - converted into a failed case
            cases.append(CaseResult(f"{name}/EXECUTION", 1e30, 0.0,
                                    {"error": f"{type(exc).__name__}: {exc}"}))
    return Report(suite=cfg.suite, params=params, cases=cases)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _json_scalar(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not math.isfinite(f):
            raise ValueError("non-finite number in report")
        return format(f, ".17g")
    if isinstance(v, complex):
        return json.dumps(str(v))
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v)}")


def _json_value(v) -> str:
    if isinstance(v, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_json_value(v[k])}"
                         for k in sorted(v, key=str))
        return "{" + inner + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    return _json_scalar(v)


def report_to_json(report: Report) -> str:
    """Canonical JSON: sorted keys, floats at 17 significant digits."""
    doc = {
        "suite": report.suite,
        "version": report.version,
        "params": report.params,
        "cases": [
            {"name": c.name, "residual": c.residual, "tolerance": c.tolerance,
             "pass": c.passed, "metadata": c.metadata}
            for c in report.cases
        ],
    }
    return _json_value(doc) + "\n"


def emit_report(report: Report, path: str) -> None:
    text = report_to_json(report)
    json.loads(text)  # guarantee well-formedness before touching the file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
