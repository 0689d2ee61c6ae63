"""Acceptance criteria, one test per criterion.

Each criterion is a thin assertion over the rows of a suite report, so
every check is defined once, in the suites.  Each report is computed
once per module and timed; a criterion's runtime bound applies to the
run_suite call that produced its report.  Each test prints a single
CRITERION line so a bare `pytest -s tests/test_acceptance.py` doubles as
the acceptance report.  Thresholds are fixed here, not configurable.
"""

import time
from functools import lru_cache

from qheis import suites


@lru_cache(maxsize=None)
def _run(suite, **overrides):
    """(report, run_suite seconds) for a suite at its defaults plus overrides."""
    cfg = suites.make_config(suite, **overrides)
    t0 = time.perf_counter()
    report = suites.run_suite(cfg)
    return report, time.perf_counter() - t0


def _rows(report, *names):
    """The cases whose name, after any unit prefix, is one of names."""
    rows = [c for c in report.cases if c.name.rsplit("/", 1)[-1] in names]
    assert rows, f"{report.suite} has no case named {names}"
    return rows


def _worst(report, *names):
    return max(c.residual for c in _rows(report, *names))


def _report(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {num:>2} [{status}] {label}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_sl2_fermi_dcr():
    report, dt = _run("sl2-fermi")
    worst = _worst(report, "dcr_aa", "dcr_apap", "dcr_cross_winner")
    _report(1, "fermionic sl(2) map, full 4-dim space",
            worst < 1e-12 and dt < 1.0,
            f"max residual {worst:.2e} (tol 1e-12), runtime {dt:.2f}s (< 1s)")


def test_criterion_02_sl2_bose_dcr():
    report, dt = _run("sl2-bose")
    worst = _worst(report, "dcr_aa", "dcr_apap", "dcr_cross_winner")
    # exactly one cross candidate passes: the winner does, the loser does not
    unique = (_worst(report, "dcr_cross_winner") <= 1e-10
              < min(c.metadata["raw_residual"]
                    for c in _rows(report, "cross_negative_control")))
    _report(2, "bosonic sl(2) map, cutoff 8, safe subspace",
            worst < 1e-10 and unique and dt < 10.0,
            f"max residual {worst:.2e} (tol 1e-10), exactly-one-candidate: "
            f"{unique}, runtime {dt:.2f}s (< 10s)")


def test_criterion_03_qnumber_operator():
    report, _ = _run("sl2-bose")
    worst_spec = _worst(report, "qnumber_spectrum")
    worst_rel = _worst(report, "qnumber_creator_relation",
                       "qnumber_annihilator_relation")
    _report(3, "q-number operator spectrum and relations",
            worst_spec < 1e-12 and worst_rel < 1e-10,
            f"spectrum dev {worst_spec:.2e} (tol 1e-12), relation residual "
            f"{worst_rel:.2e} (tol 1e-10)")


def test_criterion_04_prior_work_reconciliation():
    # a spectral norm, so it bounds the entrywise deviation
    report, _ = _run("sl2-bose", cutoff=6)
    worst = _worst(report, "alpha_reproduces_onesided_map")
    _report(4, "alpha-conjugation reproduces the one-sided generators",
            worst < 1e-12, f"spectral-norm deviation {worst:.2e} (tol 1e-12)")


def test_criterion_05_hermiticity():
    worst = max(_worst(_run(suite)[0], "hermiticity")
                for suite in ("sl2-bose", "sl2-fermi"))
    _report(5, "*-structure of the sqrt(y)-dressed maps at real q",
            worst < 1e-12, f"max ||(A^i)+ - A+_i|| = {worst:.2e} (tol 1e-12)")


def test_criterion_06_sl3_derived_map():
    report, _ = _run("slN")
    good = _worst(report, "dcr_aa", "dcr_apap", "dcr_cross_winner")
    bad = min(c.metadata["raw_residual"] for c in _rows(report, "cross_negative_control"))
    _report(6, "sl(3) map derived from R-hat, one candidate holding",
            good < 1e-10 and bad > 1e-2,
            f"winning candidate residual {good:.2e} (tol 1e-10), losing "
            f"candidate residual {bad:.2e} (must exceed 1e-2)")


def test_criterion_07_braid_matrices():
    # classical_limit is a spectral norm, so it bounds the entrywise deviation
    report, _ = _run("braid")
    worst_alg = _worst(report, "yang_baxter", "characteristic")
    worst_lim = _worst(report, "classical_limit")
    _report(7, "braid matrices: Yang-Baxter, characteristic, q->1",
            worst_alg < 1e-12 and worst_lim < 1e-6,
            f"algebraic residual {worst_alg:.2e} (tol 1e-12), classical "
            f"limit {worst_lim:.2e} (tol 1e-6)")


def test_criterion_08_qspecial():
    report, _ = _run("qspecial")
    worst_rec = _worst(report, "qgamma_product_recurrence",
                       "qgamma_tilde_recurrence", "qgamma_integer_recurrence")
    worst_refl = _worst(report, "gamma_reflection_identity")
    worst_conn = _worst(report, "hyper_connection_selfconsistency")
    worst_ode = _worst(report, "hyper_ode_termwise")
    _report(8, "q-special functions",
            worst_rec < 1e-12 and worst_refl < 1e-12
            and worst_conn < 1e-10 and worst_ode < 1e-9,
            f"recurrences {worst_rec:.2e} (1e-12), reflection {worst_refl:.2e} "
            f"(1e-12), connection {worst_conn:.2e} (1e-10), ODE {worst_ode:.2e} (1e-9)")


def test_criterion_09_kz_scalar():
    report, dt = _run("kz-scalar")
    worst = {"traj": _worst(report, "trajectory_vs_closed_forms"),
             "comb": _worst(report, "combination_identity"),
             "closed": _worst(report, "limits_closed_route")}
    ok = (worst["traj"] < 1e-8 and worst["comb"] < 1e-8
          and worst["closed"] < 1e-10 and dt < 30.0)
    _report(9, "scalar KZ system over n in {2,3,5}, hbar2 in {0.05, 0.1i}",
            ok,
            f"traj-vs-closed {worst['traj']:.2e} (1e-8), combination "
            f"{worst['comb']:.2e} (1e-8), limits closed {worst['closed']:.2e} "
            f"(1e-10), runtime {dt:.1f}s (< 30s)")


def test_criterion_10_coassociator():
    report, dt = _run("kz-operator")
    relations = ("coassoc_relation_aa", "coassoc_relation_apap",
                 "coassoc_relation_cross")
    ratio = _rows(report, "coassoc_h2_scaling")[0].metadata["ratio"]
    triv = _worst(report, "coassoc_acts_trivially_on_aa")
    worst_rel = max(c.residual for c in _rows(report, *relations)
                    if not c.name.startswith("q=1/"))
    worst_cl = max(c.residual for c in _rows(report, *relations)
                   if c.name.startswith("q=1/"))
    ok = (3.2 < ratio < 4.8 and triv < 1e-12 and worst_rel < 1e-12
          and worst_cl < 1e-12 and dt < 120.0)
    _report(10, "coassociator matrix M (N=2, cutoff 5)",
            ok,
            f"h^2-scaling ratio {ratio:.2f} (in [3.2, 4.8]), M.aa {triv:.2e} "
            f"(1e-12), relations {worst_rel:.2e} (1e-12), q=1 control "
            f"{worst_cl:.2e} (1e-12), runtime {dt:.1f}s (< 2min)")


def test_criterion_11_so_orbital():
    reports = [_run("soN-orbital", cutoff=6, modes=n)[0] for n in (3, 4)]
    worst_eige = max(_worst(r, "shift_eigen_relations[s=+1]",
                            "shift_eigen_relations[s=-1]") for r in reports)
    worst_comm = max(_worst(r, "l2_commutes_aa", "l2_commutes_apap")
                     for r in reports)
    worst_y = max(_worst(r, *(f"y_so_functional_eq{k}" for k in range(1, 5)))
                  for r in reports)
    _report(11, "so(N) orbital machinery, N in {3,4}, cutoff 6",
            worst_eige < 1e-10 and worst_comm < 1e-12 and worst_y < 1e-10,
            f"shift relations {worst_eige:.2e} (1e-10), scalar commutators "
            f"{worst_comm:.2e} (1e-12), y functional equations {worst_y:.2e} (1e-10)")


def test_criterion_12_metric_invariants_classical():
    report, _ = _run("soN-orbital", cutoff=6, modes=3)
    worst = max(c.residual for c in report.cases
                if c.name.startswith("classical/metric_inv_"))
    _report(12, "quadratic metric invariants at q=1 (classical generators)",
            worst < 1e-12, f"max residual {worst:.2e} (tol 1e-12)")
