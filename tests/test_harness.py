import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qheis import braid, cli, deform, fock, kz, soshift, suites, verify
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

    def counting(a, ap, rel, cross, sign):
        built.append(a)
        return original(a, ap, rel, cross, sign)

    monkeypatch.setattr(verify, "quadratic_residual_matrices", counting)
    # one set per cross candidate and q: slN has one q, sl2-* have two
    for suite, sets in (("slN", 2), ("sl2-bose", 4), ("sl2-fermi", 4)):
        built.clear()
        suites.run_suite(suites.make_config(suite))
        assert len(built) == sets == len({id(g) for g in built}), suite


@pytest.mark.parametrize("suite", ["sl2-bose", "sl2-fermi", "slN", "soN-orbital",
                                   "kz-operator"])
def test_ladders_built_once_per_space(suite, monkeypatch):
    # every operator reuses the ladder tables its space built, over two calls
    # in one process: the second call gets the same space and builds none;
    # the held spaces are dropped first, so that test order does not matter
    spaces, ladders = [], []
    build_space, ladder = fock.build_space, fock._ladders

    def counting_build(*args, **kwargs):
        spaces.append(build_space(*args, **kwargs))
        return spaces[-1]

    def counting_ladders(*args, **kwargs):
        ladders.append(args)
        return ladder(*args, **kwargs)

    monkeypatch.setattr(suites, "build_space", counting_build)
    monkeypatch.setattr(fock, "_ladders", counting_ladders)
    fock._interned_space.cache_clear()
    for _ in range(2):
        assert all(c.passed for c in suites.run_suite(suites.make_config(suite)).cases)
    assert len(spaces) == 2 * len({id(s) for s in spaces}) > 0
    assert len(ladders) == len({id(s) for s in spaces})


@pytest.mark.parametrize("suite, module, builder", [
    ("soN-orbital", soshift, "build_orbital"), ("kz-operator", kz, "build_operator_system"),
    ("sl2-bose", verify, "sigma_entries"), ("sl2-fermi", verify, "sigma_entries"),
])
def test_space_operands_built_once_per_space_per_process(suite, module, builder, monkeypatch):
    # a suite builds the q-independent operands of its space on the first
    # call of the process only, and each call still gives the same report
    built = []
    original = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *args: built.append(args) or original(*args))
    fock._interned_space.cache_clear()
    cfg = suites.make_config(suite)
    first, second = (suites.report_to_json(suites.run_suite(cfg)) for _ in range(2))
    assert first == second
    assert len(built) == 1
    fock._interned_space.cache_clear()  # a dropped space takes its operands with it
    assert suites.report_to_json(suites.run_suite(cfg)) == first
    assert len(built) == 2


@pytest.mark.parametrize("sizes", ["defaults", "minima"])
def test_every_safe_subspace_a_check_uses_has_two_states(sizes, monkeypatch):
    # a check restricted to a single state (the vacuum) cannot tell an
    # invariant from a non-invariant operator, so its negative result is vacuous.
    # Every safe set goes through safe_shells: of the states (safe_mask), or
    # of the parts of a block operator's partition (projected_norms), each
    # part holding at least one state
    kept = []
    safe_shells = fock.FockSpace.safe_shells

    def recording(space, shell, degree):
        mask = safe_shells(space, shell, degree)
        kept.append((space.statistics, space.cutoff, degree, int(mask.sum())))
        return mask

    monkeypatch.setattr(fock.FockSpace, "safe_shells", recording)
    for suite in suites.SUITE_IDS:
        kept.clear()
        overrides = suites.MINIMA.get(suite, {}) if sizes == "minima" else {}
        suites.run_suite(suites.make_config(suite, **overrides))
        assert all(n >= 2 for *_, n in kept), (suite, min(kept, key=lambda k: k[-1]))
        if suite in ("sl2-bose", "sl2-fermi", "slN", "soN-orbital", "kz-operator"):
            assert kept, suite


def test_failed_unit_becomes_failed_case(monkeypatch):
    cfg = suites.make_config("qspecial")

    def boom(_cfg):
        return {}, [("exploding", lambda: 1 / 0)]

    monkeypatch.setitem(suites._BUILDERS, "qspecial", boom)
    rep = suites.run_suite(cfg)
    assert len(rep.cases) == 1
    assert not rep.cases[0].passed
    assert "ZeroDivisionError" in rep.cases[0].metadata["error"]


def test_ill_conditioned_alpha_erases_no_sibling_row(monkeypatch):
    # at cutoff 20, cond(alpha) at q=1.3 is about 8.7e15; the diagonal
    # conjugation is exact regardless, so the alpha row is measured
    # (presence, not passing: some q=1.3 rows miss their absolute tolerance)
    sibling_rows = ("dcr_aa", "dcr_apap", "dcr_cross_winner", "cross_negative_control",
                    "qnumber_creator_relation", "qnumber_annihilator_relation",
                    "qnumber_spectrum", "hermiticity", "commutant[qnumber_operator]",
                    "grade_bookkeeping")
    cases = {c.name: c for c in
             suites.run_suite(suites.make_config("sl2-bose", cutoff=20)).cases}
    assert not [name for name in cases if name.endswith("/EXECUTION")]
    assert cases["q=1.3/alpha/alpha_reproduces_onesided_map"].metadata["cond_alpha"] > 1e15

    # an alpha unit that raises fails alone; its sibling rows all stay
    def refuse(gens, alpha):
        raise ValueError("alpha refused")

    monkeypatch.setattr(deform, "inner_automorphism", refuse)
    report = suites.run_suite(suites.make_config("sl2-bose", cutoff=6))
    names = {c.name for c in report.cases}
    for q in ("0.7", "1.3"):
        for row in sibling_rows:
            assert f"q={q}/{row}" in names, row
    failed_units = [c for c in report.cases if c.name.endswith("/EXECUTION")]
    assert [c.name for c in failed_units] == ["q=0.7/alpha/EXECUTION",
                                              "q=1.3/alpha/EXECUTION"]
    assert all("alpha refused" in c.metadata["error"] for c in failed_units)


def test_onesided_hermiticity_control_discriminates(monkeypatch):
    # encoded like every negative control: floor / raw residual against 1
    def control_rows():
        report = suites.run_suite(suites.make_config("sl2-bose", cutoff=6))
        return [c for c in report.cases
                if c.name.endswith("/onesided_hermiticity_nonzero_control")]

    rows = control_rows()
    assert len(rows) == 2 and all(c.passed for c in rows)
    for c in rows:
        assert c.tolerance == 1.0 and c.metadata["required_floor"] == 1e-3
        assert c.residual == 1e-3 / c.metadata["raw_residual"]
    # a *-compatible map in place of the one-sided one must fail the control
    monkeypatch.setattr(deform, "sl2_bose_onesided_map", lambda space, params: deform.derive_map(
        space, braid.build_relations("sl", 2, params.q, params.sign), "qR"))
    rows = control_rows()
    assert len(rows) == 2 and not any(c.passed for c in rows)


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


def test_cli_son_orbital_at_q_1(tmp_path):
    # the classical-metric control unit is named apart from the q units
    out = tmp_path / "rep.json"
    code = cli.main(["suite", "soN-orbital", "--cutoff", "4", "--q", "1",
                     "--out", str(out)])
    assert code == 0
    units = {c["name"].split("/")[0] for c in json.loads(out.read_text())["cases"]}
    assert units == {"structure", "q=1", "classical"}


def test_cli_failure_exit_code(tmp_path, monkeypatch):
    def failing(_cfg):
        return {}, [("unit", lambda: [CaseResult("too_large", 1.0, 1e-3)])]

    monkeypatch.setitem(suites._BUILDERS, "qspecial", failing)
    out = tmp_path / "rep.json"
    code = cli.main(["suite", "qspecial", "--out", str(out)])
    assert code == 1
    assert [c["pass"] for c in json.loads(out.read_text())["cases"]] == [False]


@pytest.mark.parametrize("argv, config", [
    (["suite", "does-not-exist"], None),
    (["suite", "braid", "--jobs", "2"], None),
    (["suite", "braid"], {"jobs": 2}),
    (["suite", "qspecial", "--tol", "1e-8"], None),
    (["suite", "qspecial"], {"tol": 1e-8}),
    (["suite", "kz-operator", "--cutoff", "2"], None),
    (["suite", "sl2-bose", "--sign", "-"], None),
    (["suite", "slN", "--cutoff", "2"], None),
    (["suite", "slN", "--modes", "1"], None),
    (["suite", "sl2-bose", "--cutoff", "2"], None),
    (["suite", "soN-orbital", "--modes", "2"], None),
    (["suite", "kz-operator", "--q", "0.9", "1.2"], None),
    (["suite", "kz-operator", "--q", "1.0"], None),
    (["suite", "kz-scalar", "--eps", "1e-9"], None),
    (["suite", "kz-scalar", "--eps", "1e-6", "1e-7"], None),
    (["suite", "kz-scalar"], {"eps": [1e-6, 1e-7]}),
    (["suite", "kz-scalar", "--n", "0.5"], None),
    (["suite", "kz-scalar", "--hbar2", "0.5"], None),
    (["suite", "kz-scalar", "--n", "5", "--hbar2", "0.2"], None),
    (["suite", "kz-scalar", "--n", "10", "--hbar2", "0.1"], None),
    (["suite", "kz-scalar", "--hbar2", "0"], None),
    (["suite", "kz-operator", "--eps", "0"], None),
    (["suite", "kz-operator", "--eps", "0.3"], None),
    (["suite", "slN"], [1]),
    (["suite", "slN"], 5),
    (["suite", "slN"], "x"),
    (["suite", "slN"], {"q": []}),
    (["suite", "kz-scalar"], {"n": []}),
    (["suite", "kz-scalar"], {"hbar2": []}),
    (["suite", "slN", "--q", "1.3", "1.3"], None),
    (["suite", "slN", "--q", "1.2345671", "1.2345672"], None),
    (["suite", "slN"], {"out": 7}),
    (["suite", "slN"], {"out": ["a"]}),
    (["suite", "slN"], {"cutoff": float("inf")}),
    (["suite", "slN"], {"modes": float("nan")}),
], ids=["unknown-suite", "jobs-flag", "jobs-config-key", "tol-flag", "tol-config-key",
        "kz-operator-cutoff-2", "sign-flag", "slN-cutoff-2", "slN-modes-1",
        "sl2-bose-cutoff-2", "soN-orbital-modes-2", "kz-operator-two-q", "kz-operator-q-1",
        "kz-scalar-eps-1e-9", "kz-scalar-two-eps", "kz-scalar-two-eps-config-key",
        "kz-scalar-n-0.5", "kz-scalar-hbar2-0.5", "kz-scalar-n5-hbar2-0.2",
        "kz-scalar-n10-hbar2-0.1", "kz-scalar-hbar2-0", "kz-operator-eps-0",
        "kz-operator-eps-0.3", "config-list", "config-number", "config-string",
        "slN-empty-q", "kz-scalar-empty-n", "kz-scalar-empty-hbar2",
        "slN-repeated-q", "slN-q-alike-at-6-digits", "config-out-number", "config-out-list",
        "config-cutoff-infinity", "config-modes-nan"])
def test_cli_unknown_suite_usage_error(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("value", [7, ["a"], 1, "", None, True])
def test_cli_config_out_must_be_a_path_before_any_unit_runs(tmp_path, monkeypatch, value):
    # 1 would name stdout's file descriptor to open(), 7 a closed one
    ran = []
    monkeypatch.setattr(cli, "run_suite", ran.append)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out": value}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", "qspecial", "--config", str(path)])
    assert exc.value.code == 2 and not ran


@pytest.mark.parametrize("suite, config", [
    ("sl2-fermi", {"q": True}), ("slN", {"q": [1.3, True]}), ("slN", {"modes": True}),
    ("slN", {"cutoff": False}), ("kz-scalar", {"n": [True]}), ("kz-scalar", {"hbar2": True}),
], ids=["q-true", "q-list-with-true", "modes-true", "cutoff-false", "n-true", "hbar2-true"])
def test_cli_boolean_config_value_is_a_usage_error_before_any_unit_runs(
        tmp_path, monkeypatch, capsys, suite, config):
    # bool is an int subclass: {"q": true} would run at q = 1, {"modes": true} at N = 1
    ran = []
    monkeypatch.setattr(cli, "run_suite", ran.append)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", suite, "--config", str(path)])
    assert exc.value.code == 2 and not ran
    assert "takes numbers" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-directory", "a-directory", "config-key"])
def test_cli_unwritable_out_is_a_usage_error_before_any_unit_runs(
        tmp_path, monkeypatch, capsys, where):
    # found after every unit ran, it would raise and exit 1, which means
    # that a case failed
    ran = []
    monkeypatch.setattr(cli, "run_suite", ran.append)
    out = str(tmp_path if where == "a-directory" else tmp_path / "missing" / "x.json")
    argv = ["suite", "braid"]
    if where == "config-key":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"out": out}))
        argv += ["--config", str(path)]
    else:
        argv += ["--out", out]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2 and not ran
    assert out in capsys.readouterr().err


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("suite, name, values", [
    ("sl2-bose", "q", ["nan"]), ("sl2-bose", "q", ["inf"]), ("sl2-fermi", "q", ["nan"]),
    ("slN", "q", ["1.3", "nan"]), ("soN-orbital", "q", ["nan"]), ("qspecial", "q", ["nan"]),
    ("kz-operator", "q", ["nan"]), ("braid", "q", ["inf"]), ("kz-scalar", "n", ["inf"]),
    ("kz-scalar", "n", ["2", "nan"]), ("kz-scalar", "hbar2", ["nan"]),
    ("kz-scalar", "hbar2", ["inf"]), ("kz-scalar", "hbar2", ["0.1+infj"]),
    ("kz-scalar", "hbar2", ["nanj"]),
], ids=lambda v: "-".join(v) if isinstance(v, list) else v)
def test_cli_non_finite_value_is_a_usage_error_before_any_unit_runs(
        tmp_path, monkeypatch, suite, name, values, form):
    # a config file carries nan and inf as JSON NaN and Infinity, and a
    # complex value with a non-finite imaginary part as a string
    ran = []
    monkeypatch.setattr(cli, "run_suite", ran.append)
    argv = ["suite", suite, "--out", str(tmp_path / "rep.json")]
    if form == "flag":
        argv += [f"--{name}", *values]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: [v if "j" in v else float(v) for v in values]}))
        argv += ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2 and not ran


# parameters no suite reads any more: passing one stays a usage error
RETIRED = ("eps",)


def _pairs(declared):
    names = suites.PARAMS if declared else (*suites.PARAMS, *RETIRED)
    return [(suite, name) for suite in suites.SUITE_IDS for name in names
            if (name in suites.DEFAULTS[suite]) == declared]


def _changed_value(suite, name):
    """A JSON value of parameter `name` other than the suite's default."""
    if name in ("cutoff", "modes"):
        return suites.DEFAULTS[suite].get(name, 3) + 1
    return {"q": [1.1], "eps": 1e-5, "n": [4.0], "hbar2": [0.1]}[name]


def _cli_argv(tmp_path, suite, name, value, form):
    """argv setting `name` to `value` by a flag or by a config key."""
    argv = ["suite", suite, "--out", str(tmp_path / "rep.json")]
    if form == "flag":
        return argv + [f"--{name}", *map(str, value if isinstance(value, list) else [value])]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: value}))
    return argv + ["--config", str(path)]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("suite, name", _pairs(declared=False))
def test_cli_undeclared_parameter_usage_error(tmp_path, suite, name, form):
    with pytest.raises(SystemExit) as exc:
        cli.main(_cli_argv(tmp_path, suite, name, _changed_value(suite, name), form))
    assert exc.value.code == 2


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("suite, name", _pairs(declared=True))
def test_cli_declared_parameter_reaches_report(tmp_path, monkeypatch, suite, name, form):
    # the builder alone sets the report's params; its units are not run
    build = suites._BUILDERS[suite]
    monkeypatch.setitem(suites._BUILDERS, suite, lambda cfg: (build(cfg)[0], []))

    def params(argv):
        assert cli.main(argv) == 0
        return json.loads((tmp_path / "rep.json").read_text())["params"]

    default = params(["suite", suite, "--out", str(tmp_path / "rep.json")])
    changed = params(_cli_argv(tmp_path, suite, name, _changed_value(suite, name), form))
    assert changed != default


def _suite_subparser():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["suite"]


@pytest.mark.parametrize("doc", ["README.md", "cli docstring"])
def test_docs_synopsis_names_the_cli_flags(doc):
    text = (ROOT / doc).read_text() if doc == "README.md" else cli.__doc__
    synopsis = re.search(r"qheis suite <id> (.*?)(\n\n|```)", text, re.S).group(1)
    documented = {name: "..." in rest
                  for name, rest in re.findall(r"\[--(\w+)([^\]]*)\]", synopsis)}
    flags = {opt[2:]: action.nargs == "+" for action in _suite_subparser()._actions
             for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    assert documented == flags


def test_readme_parameter_table_matches_the_schema():
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 4 and cells[0].strip("`") in suites.SUITE_IDS:
            rows[cells[0].strip("`")] = cells
    assert sorted(rows) == sorted(suites.SUITE_IDS)
    for suite, cells in rows.items():
        defaults = {}
        for name, values in re.findall(r"`--(\w+) ([^`]*)`", cells[1]):
            typ, many, _ = suites.PARAMS[name]
            parsed = tuple(typ(v) for v in values.split())
            defaults[name] = parsed if many else parsed[0]
        assert defaults == suites.DEFAULTS[suite], suite
        minima = {name: int(v) for name, v in re.findall(r"`--(\w+) (\d+)`", cells[2])}
        assert minima == suites.MINIMA.get(suite, {}), suite


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("suite", ["sl2-bose", "sl2-fermi", "slN", "kz-operator"])
def test_cli_q_1_is_a_usage_error_before_any_unit_runs(
        tmp_path, monkeypatch, capsys, suite, form):
    # at q = 1 the sl(N) suites' two cross candidates derive one classical
    # map, so cross_negative_control cannot fail; kz-operator's checks are 0/0
    ran = []
    monkeypatch.setattr(cli, "run_suite", ran.append)
    with pytest.raises(SystemExit) as exc:
        cli.main(_cli_argv(tmp_path, suite, "q", [1.3, 1.0] if suite != "kz-operator"
                           else [1.0], form))
    assert exc.value.code == 2 and not ran
    assert f"{suite} needs q != 1" in capsys.readouterr().err


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    with pytest.raises(SystemExit):
        cli.main(["suite", "slN", "--cutoff", "2"])
    for _ in range(2):
        assert cli.main(["suite", "braid", "--out", str(tmp_path / "rep.json")]) == 0
    assert built == [1]
    cli._parser.cache_clear()


# each suite at its defaults, and the calls of the benchmark's passes
CALLS = [[suite] for suite in suites.SUITE_IDS] + [
    ["slN", "--modes", "4", "--cutoff", "7"], ["soN-orbital", "--modes", "3", "--cutoff", "10"],
    ["sl2-bose", "--cutoff", "12"], ["sl2-fermi"], ["kz-operator"]]


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_shared_spaces_leave_every_report_unchanged(tmp_path, argv):
    # a first and a second call in one process give the bytes of a call in a
    # fresh process, which shares nothing with an earlier call
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    fresh = subprocess.run([sys.executable, "-m", "qheis.cli", "suite", *argv],
                           env=env, capture_output=True, text=True).stdout
    fock._interned_space.cache_clear()
    out = tmp_path / "rep.json"
    for _ in range(2):
        cli.main(["suite", *argv, "--out", str(out)])
        assert out.read_text() == fresh


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
