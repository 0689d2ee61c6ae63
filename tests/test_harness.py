import json
import subprocess
import sys

import pytest

from qheis import cli, suites, verify
from qheis.verify import CaseResult, Report


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
    proc = subprocess.run([sys.executable, "-m", "qheis.cli", "suite",
                           "qspecial"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["suite"] == "qspecial"
