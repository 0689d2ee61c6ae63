"""Suite registry, execution, and deterministic report emission.

A suite is a named bundle of residual checks over a validated
configuration.  Reports serialize to JSON with sorted keys and floats
printed with 17 significant digits, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import braid, deform, kz, liealg, soshift, verify
from .fock import Statistics, build_space, grade_defect
from .qspecial import (CLIFFORD, WEYL, DeformParams, connection_residual,
                       gauss_2f1, gauss_2f1_deriv, hyper_ode_residual, qgamma,
                       qgamma_tilde, qnum, qbracket, reflection_residual,
                       y_sln, y_son_ratio)
from .verify import CaseResult, Report

SUITE_IDS = ("sl2-bose", "sl2-fermi", "slN", "soN-orbital", "qspecial",
             "kz-scalar", "kz-operator", "braid")


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    q: tuple = (0.7, 1.3)
    cutoff: int = 8
    modes: int = 2
    sign: int = WEYL
    eps: tuple = (1e-6,)
    n: tuple = (2.0, 3.0, 5.0)        # scalar KZ number eigenvalues
    hbar2: tuple = (0.05, 0.1j)       # scalar KZ deformation parameters
    tol: float | None = None          # global tolerance override
    out: str | None = None

    def __post_init__(self):
        if self.suite not in SUITE_IDS:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITE_IDS}")
        if self.sign not in (WEYL, CLIFFORD):
            raise ValueError("sign must be +1 or -1")
        if any(q <= 0 for q in self.q):
            raise ValueError("q values must be positive")
        if self.cutoff < 1 or self.modes < 1:
            raise ValueError("cutoff and modes must be positive")


DEFAULTS = {
    "sl2-bose": {"cutoff": 8, "modes": 2, "q": (0.7, 1.3), "sign": WEYL},
    "sl2-fermi": {"cutoff": 2, "modes": 2, "q": (0.7, 1.3), "sign": CLIFFORD},
    "slN": {"cutoff": 5, "modes": 3, "q": (1.3,), "sign": WEYL},
    "soN-orbital": {"cutoff": 6, "modes": 3, "q": (0.7, 1.3), "sign": WEYL},
    "qspecial": {"q": (0.5, 0.9, 1.1, 2.0)},
    "kz-scalar": {"eps": (1e-8,)},
    "kz-operator": {"cutoff": 5, "modes": 2, "q": (math.e**0.1,), "sign": WEYL,
                    "eps": (1e-6,)},
    "braid": {"q": (0.7, 1.3)},
}


def make_config(suite: str, **overrides) -> SuiteConfig:
    """SuiteConfig with per-suite defaults applied, then user overrides."""
    base = dict(DEFAULTS.get(suite, {}))
    base.update({k: v for k, v in overrides.items() if v is not None})
    return SuiteConfig(suite=suite, **base)


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


def _dcr_with_oracle(gens, rel, tol, degree=2):
    """dcr rows with the two cross candidates folded into a winner row and
    a negative-control row (exactly one candidate is expected to pass)."""
    rows = verify.dcr_residuals(gens, rel, tol=tol, degree=degree)
    oracle = verify.cross_oracle(rows)
    rows = [r for r in rows if not r.name.startswith("dcr_cross")]
    rows.append(CaseResult("dcr_cross_winner", oracle["winner_residual"], tol,
                           {"candidate": oracle["winner"],
                            "loser_residual": oracle["loser_residual"]}))
    rows.append(_negative_control("cross_negative_control",
                                  oracle["loser_residual"],
                                  winner=oracle["winner"]))
    return rows


# ---------------------------------------------------------------------------
# suite bodies
# ---------------------------------------------------------------------------


def _suite_sl2_bose(cfg: SuiteConfig):
    space = build_space(2, Statistics.BOSE, cfg.cutoff)
    data = liealg.LieData("sl", 2)

    def unit(q):
        params = DeformParams(q, WEYL)
        gens = deform.sl2_bose_map(space, params)
        rel = braid.build_relations("sl", 2, q, WEYL)
        rows = _dcr_with_oracle(gens, rel, tol=1e-10)
        rows += verify.number_op_check(gens, tol=1e-10)
        rows.append(CaseResult("hermiticity", deform.hermiticity_residual(gens), 1e-12))
        rows += verify.invariant_commutant_check(gens, data, tol=1e-11)
        rows.append(CaseResult(
            "grade_bookkeeping",
            max(grade_defect(x) for x in gens.a_ops + gens.aplus_ops), 1e-13))
        return rows

    def generator_distance(g1, g0):
        # largest spectral norm of a generator difference, on the whole space
        return max(verify.projected_norms(space, a.matrix - b.matrix, 0)[0]
                   for a, b in zip(g1.a_ops + g1.aplus_ops, g0.a_ops + g0.aplus_ops))

    def alpha_unit(q):
        # conjugating by alpha must reproduce the one-sided generators; its
        # own unit, so that an ill-conditioned alpha erases no sibling row
        params = DeformParams(q, WEYL)
        gens = deform.sl2_bose_map(space, params)
        alpha = deform.sl2_alpha_intertwiner(space, params)
        conj, cond = deform.inner_automorphism(gens, alpha)
        oneside = deform.sl2_bose_onesided_map(space, params)
        return [
            CaseResult("alpha_reproduces_onesided_map",
                       generator_distance(conj, oneside), 1e-12, {"cond_alpha": cond}),
            CaseResult("onesided_hermiticity_nonzero_control",
                       1.0 / max(deform.hermiticity_residual(oneside), 1e-30), 1e3,
                       {"note": "one-sided dressing is not *-compatible"}),
        ]

    units = []
    for q in cfg.q:
        units.append((f"q={q:g}", lambda q=q: unit(q)))
        units.append((f"q={q:g}/alpha", lambda q=q: alpha_unit(q)))

    def extra():
        # classical-limit scaling: deviation from identity is O(q - 1)
        def devnorm(e):
            g1 = deform.sl2_bose_map(space, DeformParams(1.0 + e, WEYL))
            g0 = deform.classical_generators(space, DeformParams(1.0, WEYL))
            return generator_distance(g1, g0)
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
        params = DeformParams(q, CLIFFORD)
        gens = deform.sl2_fermi_map(space, params)
        rel = braid.build_relations("sl", 2, q, CLIFFORD)
        rows = _dcr_with_oracle(gens, rel, tol=1e-12, degree=0)
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
        rel = braid.build_relations("sl", cfg.modes, q, WEYL)
        params = DeformParams(q, WEYL)
        results = {}
        for ordering in ("above", "below"):
            gens = deform.sln_candidate_map(space, params, ordering)
            full = verify.dcr_residuals(gens, rel, tol=1e-10)
            oracle = verify.cross_oracle(full)
            worst = max(r.residual for r in full
                        if not r.name.startswith("dcr_cross")
                        or r.name == f"dcr_cross[{oracle['winner']}]")
            results[ordering] = (worst, oracle)
        passing = min(results, key=lambda k: results[k][0])
        failing = "below" if passing == "above" else "above"
        return [
            CaseResult(f"candidate_dcr[{passing}]", results[passing][0], 1e-10,
                       {"cross_winner": results[passing][1]["winner"]}),
            _negative_control(f"candidate_negative_control[{failing}]",
                              results[failing][0]),
        ]

    units = [(f"q={q:g}", lambda q=q: unit(q)) for q in cfg.q]
    return {"family": "sl", "N": cfg.modes, "statistics": "bose",
            "cutoff": cfg.cutoff, "q": list(cfg.q), "sign": WEYL}, units


def _suite_son_orbital(cfg: SuiteConfig):
    space = build_space(cfg.modes, Statistics.BOSE, cfg.cutoff)
    orb = soshift.build_orbital(space)

    def structural():
        rows = soshift.l2_commutator_residuals(orb)
        for s in (+1, -1):
            rows += soshift.shift_operator_residuals(orb, s)
        return rows

    def functional(q):
        return soshift.verify_y_son(orb, DeformParams(q, WEYL), tol=1e-10)

    def classical_metric():
        # the four metric-invariant relations for the classical generators
        params = DeformParams(1.0, WEYL)
        gens = deform.classical_generators(space, params)
        eye = np.eye(cfg.modes, dtype=complex)
        return verify.metric_invariant_check(gens.a_ops, gens.aplus_ops, eye, eye,
                                             1.0, tol=1e-12)

    units = [("structure", structural)]
    units += [(f"q={q:g}", lambda q=q: functional(q)) for q in cfg.q]
    units.append(("q=1", classical_metric))
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
    eps = min(cfg.eps)

    def unit(n, hbar2, sign):
        p = kz.KZScalarParams(n=n, hbar2=hbar2, sign=sign, eps=eps)
        traj = kz.integrate_scalar(p, x_lo=1e-8)
        xs = np.linspace(0.02, 0.98, 33)
        sup = max(np.abs(np.array(traj(x)) - np.array(kz.closed_form_f(p, x))).max()
                  for x in xs)
        rows = [
            CaseResult("trajectory_vs_closed_forms", float(sup), 1e-10),
            CaseResult("combination_identity",
                       kz.combination_identity_residual(p, traj, xs), 1e-10),
            CaseResult("riccati", kz.riccati_residual(p, traj, xs[::4]), 1e-8),
            CaseResult("closed_forms_satisfy_ode",
                       kz.scalar_ode_residual(p, (0.2, 0.5, 0.8)), 1e-9),
        ]
        lims = kz.extract_limits(p, traj)
        ref = np.array(lims["reference"])
        rows.append(CaseResult("limits_closed_route",
                               float(np.abs(np.array(lims["closed"]) - ref).max()),
                               1e-10))
        rows.append(CaseResult("limits_trajectory_route",
                               float(np.abs(np.array(lims["trajectory"]) - ref).max()),
                               1e-6))
        return rows

    units = []
    for n in cfg.n:
        for hbar2 in cfg.hbar2:
            for sign in (+1, -1):
                units.append((f"n={n:g},hbar2={hbar2},s={sign:+d}",
                              lambda n=n, h=hbar2, s=sign: unit(n, h, s)))
    return {"n": list(cfg.n), "hbar2": [str(h) for h in cfg.hbar2],
            "eps": eps}, units


def _suite_kz_operator(cfg: SuiteConfig):
    space = build_space(cfg.modes, Statistics.BOSE, cfg.cutoff)
    system = kz.build_operator_system(space)
    data = liealg.LieData("sl", cfg.modes)
    q = cfg.q[0]
    h = math.log(q)
    eps = min(cfg.eps)

    def hbar2_of(hh):
        return hh / (math.pi * 1j)

    def scaling():
        blocks = system.blocks

        def m_minus_one(hh):  # flat weight blocks of M - 1
            return kz.coassociator_matrix(system, hbar2_of(hh), 1e-5) - blocks.eye

        m_h, m_h2 = m_minus_one(h), m_minus_one(h / 2)
        n1, n2 = blocks.norm(m_h), blocks.norm(m_h2)
        ratio = n1 / n2
        # M - 1 = zeta(2) eta^2 [P, A] + O(h^3), read off the half-h matrix
        h2_term = math.pi**2 / 6 * hbar2_of(h / 2)**2 * (
            blocks.matmul(system.p, system.a) - blocks.matmul(system.a, system.p))
        scale = blocks.norm(h2_term)

        def h2_defect(sign):
            return blocks.norm(m_h2 - sign * h2_term) / scale

        return [CaseResult("coassoc_h2_scaling", abs(ratio - 4.0), 0.8,
                           {"ratio": ratio, "norm_h": n1, "norm_half_h": n2}),
                CaseResult("coassoc_h2_coefficient", h2_defect(+1), 0.3,
                           {"norm_h2_term": scale}),
                _negative_control("coassoc_h2_coefficient_wrong_sign_control",
                                  h2_defect(-1), floor=0.3)]

    def main_checks():
        m, err = kz.coassociator_with_error(system, hbar2_of(h), 2 * eps)
        params = DeformParams(q, WEYL)
        rows = [CaseResult("coassoc_eps_stability", err, 1e-6,
                           {"eps_pair": (2 * eps, eps)})]
        rows.append(CaseResult("coassoc_acts_trivially_on_aa",
                               kz.acts_trivially_residual(system, m), 1e-6))
        rows.append(CaseResult("coassoc_invariance",
                               kz.invariance_residual(system, m, data), 1e-6))
        rows += kz.coassociator_relation_check(system, params, m, tol=1e-6)
        # wrong-statistics control: the Clifford sign must fail badly
        wrong = kz.coassociator_relation_check(
            system, DeformParams(q, CLIFFORD), m, tol=1e-6)
        rows.append(_negative_control(
            "coassoc_wrong_sign_control",
            max(r.residual for r in wrong)))
        return rows

    def classical_control():
        m = kz.coassociator_matrix(system, 0.0, eps)
        return kz.coassociator_relation_check(system, DeformParams(1.0, WEYL), m,
                                              tol=1e-12)

    units = [("scaling", scaling), ("main", main_checks), ("q=1", classical_control)]
    return {"family": "sl", "N": cfg.modes, "cutoff": cfg.cutoff, "q": q,
            "h": h, "eps": eps}, units


def _suite_braid(cfg: SuiteConfig):
    combos = [("sl", 2), ("sl", 3), ("so", 3), ("so", 4)]

    def unit(family, n, q):
        rel = braid.build_relations(family, n, q, WEYL)
        d = rel.diagnostics
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
    continues."""
    params, units = _BUILDERS[cfg.suite](cfg)
    cases: list[CaseResult] = []
    for name, unit in units:
        try:
            cases.extend(replace(r, name=f"{name}/{r.name}") for r in unit())
        except Exception as exc:  # noqa: BLE001 - converted into a failed case
            cases.append(CaseResult(f"{name}/EXECUTION", 1e30, 0.0,
                                    {"error": f"{type(exc).__name__}: {exc}"}))
    if cfg.tol is not None:
        cases = [replace(c, tolerance=cfg.tol) for c in cases]
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
