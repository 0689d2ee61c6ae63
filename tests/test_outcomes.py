"""Pass/fail of every case of a fixed set of suite calls, against the map
checked in as tests/outcomes.json: every operator-algebra and
kz-coassociator call of the benchmark's plans for seeds 0-3
(perfbench/run.py), five ladder points beyond the benchmark's
(kz-operator at N = 3, cutoff 8, N = 4, cutoff 8, where M is filled
from one block per orbit of S_4, and N = 2, cutoff 12; soN-orbital at
N = 3, cutoff 14 and N = 4, cutoff 8, where its ladder products weigh
most), and four calls that hold known failures of absolute tolerances on
terms that grow with the cutoff (sl2-bose at cutoffs 20 and 24, slN at
N = 4, cutoff 24, and soN-orbital at N = 3, cutoff 20; ROADMAP item 2).
A refactor keeps the map; a change that flips a case rewrites it on
purpose (``python tests/test_outcomes.py``) and records the flip in
CHANGES.md."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qheis import cli, suites

ROOT = Path(__file__).resolve().parents[1]
MAP = Path(__file__).resolve().parent / "outcomes.json"
SEEDS = range(4)
WORKLOADS = ("operator-algebra", "kz-coassociator")
LADDER = (["suite", "kz-operator", "--modes", "3", "--cutoff", "8"],
          ["suite", "kz-operator", "--modes", "4", "--cutoff", "8"],
          ["suite", "kz-operator", "--modes", "2", "--cutoff", "12"],
          ["suite", "soN-orbital", "--modes", "3", "--cutoff", "14"],
          ["suite", "soN-orbital", "--modes", "4", "--cutoff", "8"])
KNOWN_FAILURES = (["suite", "sl2-bose", "--cutoff", "20"], ["suite", "sl2-bose", "--cutoff", "24"],
                  ["suite", "slN", "--modes", "4", "--cutoff", "24"],
                  ["suite", "soN-orbital", "--modes", "3", "--cutoff", "20"])


def benchmark_calls() -> list:
    """The argv of every call of the plans of WORKLOADS for SEEDS, in plan
    order, from perfbench/run.py as it stands."""
    bench = ROOT / "perfbench"
    sys.path.insert(0, str(bench))  # run.py imports its tracer
    try:
        spec = importlib.util.spec_from_file_location("benchmark_run", bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
    return [argv for workload in WORKLOADS for seed in SEEDS
            for _, argv in run.plan(workload, seed)]


def outcomes(argv, tmp: Path) -> dict:
    """case name -> pass of one call's report; the exit code agrees."""
    out = tmp / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    cases = {c["name"]: c["pass"] for c in json.loads(out.read_text())["cases"]}
    assert code == (0 if all(cases.values()) else 1)
    return cases


CALLS = [" ".join(argv) for argv in benchmark_calls() + list(LADDER) + list(KNOWN_FAILURES)]


def test_the_map_holds_these_calls():
    assert sorted(json.loads(MAP.read_text())) == sorted(CALLS)


@pytest.mark.parametrize("call", CALLS)
def test_pass_fail_is_the_recorded_map(call, tmp_path):
    assert outcomes(call.split(), tmp_path) == json.loads(MAP.read_text())[call]


def compare_reports():
    """tools/compare_reports.py as a module; loading it runs no call."""
    spec = importlib.util.spec_from_file_location("compare_reports",
                                                  ROOT / "tools" / "compare_reports.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_reports_runs_the_default_suites_and_the_map():
    # tools/compare_reports.py's calls, read without running any: each suite
    # at its defaults, then every call of the map
    tool = compare_reports()
    path = list(sys.path)
    got = tool.calls()
    assert sys.path == path
    defaults = [f"suite {suite}" for suite in suites.SUITE_IDS]
    assert len(defaults) == 8
    assert got == defaults + sorted(json.loads(MAP.read_text()))
    assert len(set(got)) == len(got) == 8 + len(CALLS)


def test_compare_reports_lists_the_cases_each_report_changes():
    def report(*cases):
        return json.dumps({"suite": "s", "cases": [
            {"name": name, "residual": residual, "tolerance": 1.0, "pass": passed,
             "metadata": meta} for name, residual, passed, meta in cases]}).encode()

    before = report(("u/kept", 0.5, True, {}), ("u/gone", 0.1, True, {}),
                    ("u/worse", 0.25, True, {}), ("u/relabelled", 0.75, True, {"k": 1}))
    after = report(("u/new", 0.0, True, {}), ("u/kept", 0.5, True, {}),
                   ("u/worse", 2.5, False, {}), ("u/relabelled", 0.75, True, {"k": 2}))
    assert compare_reports().case_diff(before, after) == [
        "  - u/gone",
        "  + u/new",
        "  ~ u/worse: residual 0.25 -> 2.5, pass True -> False",
        "  ~ u/relabelled: residual 0.75 -> 0.75, pass True -> True"]
    assert compare_reports().case_diff(after, after) == []


def test_known_failures_still_fail():
    recorded = json.loads(MAP.read_text())
    for argv in KNOWN_FAILURES:
        assert not all(recorded[" ".join(argv)].values()), argv


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        MAP.write_text(json.dumps({call: outcomes(call.split(), Path(tmp)) for call in CALLS},
                                  indent=1, sort_keys=True) + "\n")
