"""Compare the reports of this checkout with those of another one.

    python tools/compare_reports.py <other-checkout>

Runs calls(), the eight suites at their defaults and every call of
tests/outcomes.json, in this checkout and in the other one: each call in
a fresh Python process with PYTHONPATH=<tree>/src and
OPENBLAS_NUM_THREADS=1, the two trees' processes side by side.  Prints
each call whose report or exit code differs between the trees, with the
cases its report adds, removes and changes (the other tree's before this
one's), then the number of calls and of differing ones, and exits 1 if
any differ.  A change that keeps the arithmetic keeps every report byte
for byte.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAIN = "import sys; from qheis.cli import main; sys.exit(main(sys.argv[1:]))"


def calls() -> list:
    """The calls, as argv strings: each suite of this checkout at its
    defaults, then the keys of tests/outcomes.json in sorted order."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from qheis.suites import SUITE_IDS
    finally:
        sys.path.remove(str(ROOT / "src"))
    return ([f"suite {suite}" for suite in SUITE_IDS]
            + sorted(json.loads((ROOT / "tests" / "outcomes.json").read_text())))


def run_both(trees, call: str, tmp: Path) -> list:
    """(exit code, report bytes or None) of the call in each tree."""
    procs, outs = [], []
    for k, tree in enumerate(trees):
        out = tmp / f"report{k}.json"
        out.unlink(missing_ok=True)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
        argv = [sys.executable, "-c", MAIN, *call.split(), "--out", str(out)]
        procs.append(subprocess.Popen(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL))
        outs.append(out)
    return [(proc.wait(), out.read_bytes() if out.exists() else None)
            for proc, out in zip(procs, outs)]


def case_diff(before: bytes, after: bytes) -> list:
    """The lines that tell two reports' cases apart: each case only the
    after report has (+), each case only the before report has (-), and
    each case of both whose entry differs (~, its residual and pass
    before -> after), in the order of the reports."""
    def cases(report):
        return {c["name"]: c for c in json.loads(report)["cases"]}

    old, new = cases(before), cases(after)
    lines = [f"  - {name}" for name in old if name not in new]
    lines += [f"  + {name}" for name in new if name not in old]
    for name, c in new.items():
        if name in old and old[name] != c:
            was = old[name]
            lines.append(f"  ~ {name}: residual {was['residual']!r} -> {c['residual']!r}, "
                         f"pass {was['pass']} -> {c['pass']}")
    return lines


def main(argv) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "qheis").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = (ROOT, Path(argv[0]).resolve())
    todo, differing = calls(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for call in todo:
            (code, report), (other_code, other_report) = run_both(trees, call, Path(tmp))
            if (code, report) != (other_code, other_report):
                differing += 1
                what = "exit code" if code != other_code else "report"
                print(f"differs ({what}): {call}")
                if report is not None and other_report is not None:
                    for line in case_diff(other_report, report):
                        print(line)
    print(f"{len(todo)} calls, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
