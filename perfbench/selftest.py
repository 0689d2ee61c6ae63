"""Tests of the benchmark itself: the tracer, the correctness gate, the
seeded inputs and BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def _bindings() -> dict:
    return {(layer, name): value
            for layer in tracer.LAYERS
            for name, value in vars(importlib.import_module(f"qheis.{layer}")).items()}


@pytest.fixture(scope="module")
def scalar_traced():
    """One untraced and two traced passes of scalar-special, with the
    package's bindings taken before and after."""
    r = run.Run(run.plan("scalar-special", 7))
    before = _bindings()
    r.one_pass()
    with tracer.Tracer() as t:
        during = _bindings()
        for i in range(2):
            r.one_pass(t, i)
    return r, t, before, during, _bindings()


def test_tracing_rebinds_from_imports_and_restores_every_name(scalar_traced):
    _, t, before, during, after = scalar_traced
    for key in [("kz", "solve_ivp"), ("kz", "projected_norms"),
                ("soshift", "projected_norms"), ("suites", "gauss_2f1"),
                ("cli", "run_suite"), ("qspecial", "gauss_2f1")]:
        assert during[key] is not before[key], key
        assert during[key].__wrapped__ is before[key], key
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {s[0] for s in t.spans}
    assert {"cli.main", "suites.run_suite", "ode.solve_ivp",
            "qspecial.gauss_2f1", "braid.build_relations"} <= names


def test_traced_reports_are_byte_identical_to_untraced(scalar_traced):
    r = scalar_traced[0]
    assert r.errors == []
    assert r.attempted == 3 * len(r.calls)


def test_self_times_sum_to_no_more_than_the_traced_wall(scalar_traced):
    t = scalar_traced[1]
    selfs = t.self_times()
    wall = sum(s[2] - s[1] for s in t.spans if s[0] == tracer.PASS_SPAN)
    inner = sum(x for s, x in zip(t.spans, selfs) if s[0] != tracer.PASS_SPAN)
    assert min(selfs) >= -1e-9
    assert 0 < inner <= wall
    for metrics in tracer.pass_layer_metrics(t).values():
        layer_s = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert layer_s + metrics["kz.ode_s"] + metrics["kz.expm_s"] <= metrics["wall_s"]


def test_ode_counts_repeat_exactly_across_traced_runs():
    counts = []
    for _ in range(2):
        r = run.Run(run.plan("kz-coassociator", 3))
        with tracer.Tracer() as t:
            r.one_pass(t, 0)
        m = tracer.pass_layer_metrics(t)[0]
        counts.append((m["kz.ode_nfev"], m["kz.ode_steps"], m["verify.norm_calls"]))
        assert not r.errors
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_gate_counts_a_doctored_failing_case():
    r = run.Run([("sl2-fermi", ["suite", "sl2-fermi"])])
    r.one_pass()
    assert r.failed_cases == 0 and r.errors == []
    doc = json.loads(r.reference[0])
    case = doc["cases"][3]
    case["residual"], case["pass"] = 10 * case["tolerance"] + 1.0, False
    r.paths[0].write_text(json.dumps(doc), encoding="utf-8")
    r._gate([1])
    assert r.failed_cases == 1
    assert r.failed_cases / r.cases > 0
    assert any("differs from the first pass" in e for e in r.errors)


def test_gate_rejects_contradictions_and_counts_execution_rows():
    row = {"name": "q=1/EXECUTION", "residual": 1e30, "tolerance": 0.0,
           "pass": False, "metadata": {}}
    ok = {"name": "x", "residual": 0.5, "tolerance": 1.0, "pass": True,
          "metadata": {}}
    text = json.dumps({"suite": "braid", "cases": [ok, row]})
    outcomes, execution, errors = run.check_report("braid", 1, text, None)
    assert outcomes == {"x": True, "q=1/EXECUTION": False}
    assert execution == 1 and errors == []
    liar = dict(ok, residual=2.0)
    text = json.dumps({"suite": "braid", "cases": [liar]})
    _, _, errors = run.check_report("braid", 0, text, None)
    assert any("contradicts" in e for e in errors)
    _, _, errors = run.check_report("braid", 0, "{not json", None)
    assert errors and "does not parse" in errors[0]
    _, _, errors = run.check_report("braid", 1, json.dumps(
        {"suite": "braid", "cases": [ok]}), None)
    assert any("exit code" in e for e in errors)


def test_plan_is_seeded_and_only_moves_q():
    for workload, calls in run.WORKLOADS.items():
        a, b = run.plan(workload, 11), run.plan(workload, 11)
        assert a == b
        assert sorted(s for s, _ in a) == sorted(s for s, _ in calls)
        flags = dict(calls)
        for suite, argv in a:
            assert argv[:2 + len(flags[suite])] == ["suite", suite, *flags[suite]]
            qs = [float(x) for x in argv[3 + len(flags[suite]):]]
            assert len(qs) == len(run.DEFAULT_Q.get(suite, ()))
            for q, q0 in zip(qs, run.DEFAULT_Q.get(suite, ())):
                assert abs(q / q0 - 1) <= run.Q_SPREAD + 1e-3


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar-special",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
