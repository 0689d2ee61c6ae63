"""The qheis benchmark: suite workloads driven through ``qheis.cli.main``.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qheis checkout; the package is imported from
``src/`` of that checkout.  One pass is the workload's list of suite
calls.  A single client runs passes in a closed loop (each call starts
after the previous one returned), in this process, with no ``--jobs`` and
no extra threads, until ``--seconds`` have elapsed.  The seed only
shuffles the order of the calls in a pass and draws each q-dependent
call's ``--q`` within +-10 % of that suite's default (see ``DEFAULT_Q``);
sizes never change.

Every pass goes through the correctness gate: each report parses, is
consistent with itself and with the exit code, and is byte-identical to
the same call's report in the first pass.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs half the time untraced and half
traced and prints the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object.  Full results, the
case name -> pass/fail map and (traced) the spans are written to
``perfbench/out/``.  The exit code is 0 when the gate held, 1 when it did
not, 2 when the checkout has no qheis sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import monotonic, perf_counter, process_time

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Suite calls of one pass, as (suite id, extra flags).
WORKLOADS = {
    # dense D x D generator algebra (slN at N=4, cutoff 7 has D=330);
    # dominated by verify, never enters the kz ODE
    "operator-algebra": (
        ("slN", ("--modes", "4", "--cutoff", "7")),
        ("soN-orbital", ("--modes", "3", "--cutoff", "10")),
        ("sl2-bose", ("--cutoff", "12")),
        ("sl2-fermi", ()),
    ),
    # the operator KZ ODE and expm on an 84 x 84 state, BLAS-bound
    "kz-coassociator": (
        ("kz-operator", ()),
    ),
    # the same ODE driver on a 3-vector (interpreter-bound), q-special
    # functions, braid matrices, and per-case overhead over 136 cases
    "scalar-special": (
        ("kz-scalar", ()),
        ("qspecial", ()),
        ("braid", ()),
    ),
}

# Default q values of the suites whose q the seed draws, as they were when
# the benchmark was defined; fixed here so that a commit changing a default
# does not change the benchmark's inputs.  qspecial keeps its defaults:
# q sets the length of the q-gamma products (about 1/|ln q| terms), so a
# draw near q = 1 (0.9 and 1.1 are within 10 % of it) would multiply the
# suite's work by up to six, and sizes must not change with the seed.
DEFAULT_Q = {
    "slN": (1.3,),
    "soN-orbital": (0.7, 1.3),
    "sl2-bose": (0.7, 1.3),
    "sl2-fermi": (0.7, 1.3),
    "kz-operator": (math.e ** 0.1,),
    "braid": (0.7, 1.3),
}
Q_SPREAD = 0.10

END_TO_END = (("pass_s.p50", "s"), ("cases_per_s", "1/s"), ("cpu_s.p50", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("case_pass_frac", "ratio"))

PER_LAYER = tracer.LAYER_METRICS + (("trace.overhead_s", "s"),
                                    ("case_fail_frac", "ratio"))

SETUP_SAMPLES = 5
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import qheis.cli; print(repr(time.monotonic()))")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def plan(workload: str, seed: int) -> list:
    """The seeded pass: [(suite id, argv for qheis.cli.main)] in call order."""
    rng = random.Random(seed)
    calls = []
    for suite, flags in WORKLOADS[workload]:
        argv = ["suite", suite, *flags]
        if suite in DEFAULT_Q:
            qs = [round(q * rng.uniform(1 - Q_SPREAD, 1 + Q_SPREAD), 4)
                  for q in DEFAULT_Q[suite]]
            argv += ["--q", *map(repr, qs)]
        calls.append((suite, argv))
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def check_report(suite: str, code, text: str | None, reference: str | None):
    """Gate one call's report.

    Returns (outcomes, execution_rows, errors): outcomes maps case name to
    pass (an EXECUTION row counts as failed), errors lists every way the
    call broke the gate.
    """
    if text is None:
        return {}, 0, [f"{suite}: no report ({code})"]
    errors = []
    try:
        doc = json.loads(text)
        cases = doc["cases"]
        outcomes = {}
        for c in cases:
            if c["pass"] != (c["residual"] <= c["tolerance"]):
                errors.append(f"{suite}: pass flag of {c['name']} contradicts "
                              f"its residual and tolerance")
            if c["name"] in outcomes:
                errors.append(f"{suite}: case {c['name']} repeated")
            outcomes[c["name"]] = bool(c["pass"]) and not c["name"].endswith("/EXECUTION")
    except (ValueError, KeyError, TypeError) as exc:
        return {}, 0, [f"{suite}: report does not parse: {exc!r}"]
    if doc.get("suite") != suite:
        errors.append(f"{suite}: report names suite {doc.get('suite')!r}")
    if not outcomes:
        errors.append(f"{suite}: report has no cases")
    if code != (0 if all(c["pass"] for c in cases) else 1):
        errors.append(f"{suite}: exit code {code!r} disagrees with the report")
    if reference is not None and text != reference:
        errors.append(f"{suite}: report differs from the first pass")
    execution = sum(c["name"].endswith("/EXECUTION") for c in cases)
    return outcomes, execution, errors


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Run:
    """One workload run: passes, their timings and the gate's findings."""

    def __init__(self, calls: list):
        import qheis.cli

        self.cli = qheis.cli
        self.calls = calls
        OUT.mkdir(exist_ok=True)
        # removed when the run is collected or the interpreter exits
        self._reports = tempfile.TemporaryDirectory(prefix="reports-", dir=OUT)
        self.paths = [Path(self._reports.name) / f"call{i}.json"
                      for i in range(len(calls))]
        self.reference = [None] * len(calls)
        self.outcomes = {}            # "<suite>/<case>" -> pass
        self.errors = []
        self.attempted = self.failed = 0
        self.cases = self.failed_cases = 0

    def one_pass(self, trace=None, pass_id=None) -> tuple[float, float]:
        """Run every call once; returns (wall s, process CPU s)."""
        for p in self.paths:
            p.unlink(missing_ok=True)
        # Reference cycles left by the previous pass keep its arrays (ODE
        # solutions among them) alive until the collector happens to run;
        # freeing them first gives each pass the heap of a fresh CLI call.
        gc.collect()
        codes = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            if trace is not None:
                trace.begin_pass(pass_id)
            t0, c0 = perf_counter(), process_time()
            for (_suite, argv), path in zip(self.calls, self.paths):
                try:
                    codes.append(self.cli.main([*argv, "--out", str(path)]))
                except SystemExit as exc:
                    codes.append(exc.code)
                except Exception:  # noqa: BLE001 - reported by the gate
                    codes.append("raised " + traceback.format_exc())
            wall, cpu = perf_counter() - t0, process_time() - c0
            if trace is not None:
                trace.end_pass()
        self._gate(codes)
        return wall, cpu

    def _gate(self, codes) -> None:
        for i, ((suite, _argv), path, code) in enumerate(
                zip(self.calls, self.paths, codes)):
            text = path.read_text(encoding="utf-8") if path.exists() else None
            outcomes, execution, errors = check_report(
                suite, code, text, self.reference[i])
            if self.reference[i] is None:
                self.reference[i] = text
            self.errors += errors
            self.attempted += 1
            self.failed += bool(execution or code not in (0, 1))
            self.cases += len(outcomes)
            self.failed_cases += sum(not ok for ok in outcomes.values())
            self.outcomes.update({f"{suite}/{k}": v for k, v in outcomes.items()})

    def repeat(self, seconds: float, trace=None) -> list:
        """Passes until `seconds` have elapsed (at least one)."""
        samples = []
        start = perf_counter()
        while not samples or perf_counter() - start < seconds:
            samples.append(self.one_pass(trace, len(samples)))
        return samples


# ---------------------------------------------------------------------------
# set-up time, provenance
# ---------------------------------------------------------------------------


def setup_times(n: int) -> list:
    """Seconds from starting a fresh interpreter to qheis.cli imported."""
    out = []
    for i in range(n + 1):
        t0 = monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        if i:  # the first start compiles bytecode and warms the file cache
            out.append(float(done.stdout.strip()) - t0)
    return out


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, samples: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list):
    """(percentile, value): the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(run: Run, passes: list, setups: list) -> tuple[dict, dict]:
    walls = [w for w, _ in passes]
    values = {
        "pass_s.p50": statistics.median(walls),
        "cases_per_s": run.cases / sum(walls),
        "cpu_s.p50": statistics.median(c for _, c in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "case_pass_frac": (run.cases - run.failed_cases) / run.cases if run.cases else 0.0,
    }
    samples = {"pass_s.p50": len(walls), "cases_per_s": run.cases,
               "cpu_s.p50": len(passes), "setup_s": len(setups),
               "peak_rss_mb": 1, "case_pass_frac": run.cases}
    return values, samples


def traced(run: Run, seconds: float):
    """Half the time untraced, half traced.  Returns the per-layer medians
    over the traced passes, their sample counts, the tracer and the
    traced pass_s.p50."""
    plain = run.repeat(seconds / 2)
    with tracer.Tracer() as t:
        traced_passes = run.repeat(seconds / 2, t)
    medians = tracer.layer_medians(tracer.pass_layer_metrics(t))
    values = {k: medians[k] for k, _ in tracer.LAYER_METRICS}
    values["trace.overhead_s"] = medians["wall_s"] - statistics.median(w for w, _ in plain)
    values["case_fail_frac"] = run.failed_cases / run.cases if run.cases else 0.0
    samples = {k: len(traced_passes) for k in values}
    samples["trace.overhead_s"] = [len(plain), len(traced_passes)]
    samples["case_fail_frac"] = run.cases
    return values, samples, t, medians["wall_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qheis" / "cli.py").is_file():
        print(f"no qheis sources under {SRC}; run from a qheis checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    calls = plan(args.workload, args.seed)
    if args.trace:
        run = Run(calls)
        values, samples, t, wall = traced(run, args.seconds)
        units = dict(PER_LAYER)
        t.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        setups = setup_times(SETUP_SAMPLES)
        run = Run(calls)
        passes = run.repeat(args.seconds)
        values, samples = end_to_end(run, passes, setups)
        units = dict(END_TO_END)
        samples["pass_s.tail"] = tail([w for w, _ in passes])
        wall = None

    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"{stem}.cases.json").write_text(
        json.dumps(run.outcomes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    prov = provenance(args.seed, samples)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "calls": [a for _, a in calls],
         "gate_errors": run.errors, "provenance": prov, **result},
        indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  calls/pass {len(calls)}  "
          f"cases {run.cases}  failed cases {run.failed_cases}")
    for name, m in result["metrics"].items():
        share = (f" {100 * m['value'] / wall:5.1f} % of a traced pass"
                 if wall and m["unit"] == "s" else "")
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} "
              f"(n={samples.get(name)}){share}")
    if not args.trace:
        print(f"  {'case_fail_frac':28s} {1 - values['case_pass_frac']:14.6g} ratio")
    for err in run.errors[:20]:
        print(f"  GATE: {err}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
