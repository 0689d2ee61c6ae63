import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qheis import cli, suites, verify
from qheis.verify import CaseResult, Report

ROOT = Path(__file__).resolve().parent.parent


def test_make_config_defaults_and_overrides():
    cfg = suites.make_config("sl2-bose")
    assert cfg.cutoff == 8 and cfg.q == (0.7, 1.3)
    cfg2 = suites.make_config("sl2-bose", cutoff=5, q=(1.3,))
    assert cfg2.cutoff == 5 and cfg2.q == (1.3,)
    with pytest.raises(ValueError):
        suites.make_config("no-such-suite")
    with pytest.raises(ValueError):
        suites.make_config("braid", q=(-1.0,))


def test_report_json_schema(tmp_path):
    rep = Report("demo", {"q": [1.3], "N": 2},
                 [CaseResult("b", 1e-13, 1e-10, {"frobenius": 2e-13}),
                  CaseResult("a", 5e-9, 1e-10)])
    path = tmp_path / "r.json"
    suites.emit_report(rep, str(path))
    doc = json.loads(path.read_text())
    assert set(doc) == {"suite", "version", "params", "cases"}
    assert [c["name"] for c in doc["cases"]] == ["a", "b"]  # sorted
    for case in doc["cases"]:
        assert set(case) == {"name", "residual", "tolerance", "pass", "metadata"}
        assert case["pass"] == (case["residual"] <= case["tolerance"])


def test_empty_report_is_valid():
    rep = Report("demo", {}, [])
    doc = json.loads(suites.report_to_json(rep))
    assert doc["cases"] == []


def test_report_roundtrip_and_determinism(tmp_path):
    cfg = suites.make_config("qspecial")
    text1 = suites.report_to_json(suites.run_suite(cfg))
    text2 = suites.report_to_json(suites.run_suite(cfg))
    assert text1 == text2
    doc = json.loads(text1)
    # floats survive the 17-significant-digit round trip exactly
    rep = suites.run_suite(cfg)
    for case, parsed in zip(rep.cases, doc["cases"]):
        assert parsed["residual"] == case.residual
        assert parsed["tolerance"] == case.tolerance


def test_dcr_products_built_once_per_generator_set(monkeypatch):
    built = []
    original = verify.quadratic_residual_matrices

    def counting(gens, rel):
        built.append(gens)
        return original(gens, rel)

    monkeypatch.setattr(verify, "quadratic_residual_matrices", counting)
    # slN: one set per ordering; sl2-*: one set per q
    for suite, sets in (("slN", 2), ("sl2-bose", 2), ("sl2-fermi", 2)):
        built.clear()
        suites.run_suite(suites.make_config(suite))
        assert len(built) == sets == len({id(g) for g in built}), suite


def test_tolerance_override():
    cfg = suites.make_config("qspecial", tol=1e-30)
    rep = suites.run_suite(cfg)
    assert all(c.tolerance == 1e-30 for c in rep.cases)
    assert not rep.all_passed


def test_failed_unit_becomes_failed_case(monkeypatch):
    cfg = suites.make_config("qspecial")

    def boom(_cfg):
        return {}, [("exploding", lambda: 1 / 0)]

    monkeypatch.setitem(suites._BUILDERS, "qspecial", boom)
    rep = suites.run_suite(cfg)
    assert len(rep.cases) == 1
    assert not rep.cases[0].passed
    assert "ZeroDivisionError" in rep.cases[0].metadata["error"]


def test_ill_conditioned_alpha_erases_no_sibling_row():
    # at cutoff 20, cond(alpha) at q=1.3 is about 8.7e15 and the guard in
    # deform.inner_automorphism raises; only the alpha unit may fail with it
    # (presence, not passing: some q=1.3 rows miss their absolute tolerance)
    report = suites.run_suite(suites.make_config("sl2-bose", cutoff=20))
    names = {c.name for c in report.cases}
    for row in ("dcr_aa", "dcr_apap", "dcr_cross_winner", "cross_negative_control",
                "qnumber_creator_relation", "qnumber_annihilator_relation",
                "qnumber_spectrum", "hermiticity", "commutant[qnumber_operator]",
                "grade_bookkeeping"):
        assert f"q=1.3/{row}" in names, row
    failed_units = [c for c in report.cases if c.name.endswith("/EXECUTION")]
    assert [c.name for c in failed_units] == ["q=1.3/alpha/EXECUTION"]
    assert "alpha" in failed_units[0].metadata["error"]
    assert "cond" in failed_units[0].metadata["error"]


@pytest.mark.parametrize("suite", suites.SUITE_IDS)
def test_case_names_start_with_their_unit(suite, monkeypatch):
    # run_suite names each case <unit>/<row>; the rows carry no prefix
    rows = {}
    build = suites._BUILDERS[suite]

    def recording(cfg):
        params, units = build(cfg)

        def record(name, unit):
            out = unit()
            rows[name] = [r.name for r in out]
            return out

        return params, [(name, lambda name=name, unit=unit: record(name, unit))
                        for name, unit in units]

    monkeypatch.setitem(suites._BUILDERS, suite, recording)
    names = [c.name for c in suites.run_suite(suites.make_config(suite)).cases]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(f"{unit}/{row}" for unit, unit_rows in rows.items()
                                   for row in unit_rows)
    assert not any(row.startswith(f"{unit}/")
                   for unit, unit_rows in rows.items() for row in unit_rows)


def test_cli_success_and_report(tmp_path):
    out = tmp_path / "rep.json"
    code = cli.main(["suite", "qspecial", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "qspecial"
    assert all(c["pass"] for c in doc["cases"])


def test_cli_failure_exit_code(tmp_path):
    out = tmp_path / "rep.json"
    code = cli.main(["suite", "qspecial", "--tol", "1e-30", "--out", str(out)])
    assert code == 1


@pytest.mark.parametrize("argv, config", [
    (["suite", "does-not-exist"], None),
    (["suite", "braid", "--jobs", "2"], None),
    (["suite", "braid"], {"jobs": 2}),
], ids=["unknown-suite", "jobs-flag", "jobs-config-key"])
def test_cli_unknown_suite_usage_error(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_cli_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"q": [1.1], "cutoff": 4}))
    out = tmp_path / "rep.json"
    code = cli.main(["suite", "sl2-bose", "--config", str(cfgfile),
                     "--q", "1.3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["q"] == [1.3]       # flag wins over the file
    assert doc["params"]["cutoff"] == 4      # file wins over the default


def test_cli_entry_point_installed():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "qheis.cli", "suite",
                           "qspecial"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["suite"] == "qspecial"
