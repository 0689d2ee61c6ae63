"""Command-line entry point.

    qheis suite <id> [--q <f> ...] [--cutoff <int>] [--modes <int>]
                     [--sign +|-] [--eps <f> ...] [--n <f> ...]
                     [--hbar2 <c> ...] [--out <path>] [--config <path>]

Flags override values from the optional JSON config file, which in turn
override the per-suite defaults.  Every case keeps the tolerance its
check defines.  The process exits 0 iff every case of the executed suite
passed, 1 otherwise, 2 on usage errors (an unknown flag or config key
among them).
"""

from __future__ import annotations

import argparse
import json
import sys

from .suites import SUITE_IDS, make_config, run_suite, emit_report, report_to_json


def _parse_sign(text: str) -> int:
    if text in ("+", "+1", "weyl"):
        return +1
    if text in ("-", "-1", "clifford"):
        return -1
    raise argparse.ArgumentTypeError("sign must be '+' or '-'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qheis",
        description="residual verification suites for q-deformed covariant "
                    "Heisenberg algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("suite", help="run a verification suite")
    sp.add_argument("id", choices=SUITE_IDS, metavar="id",
                    help=f"one of: {', '.join(SUITE_IDS)}")
    sp.add_argument("--q", type=float, nargs="+", default=None,
                    help="deformation parameter values")
    sp.add_argument("--cutoff", type=int, default=None,
                    help="maximum total occupation of the Fock space")
    sp.add_argument("--modes", type=int, default=None, help="number of modes N")
    sp.add_argument("--sign", type=_parse_sign, default=None,
                    help="+ (Weyl) or - (Clifford)")
    sp.add_argument("--eps", type=float, nargs="+", default=None,
                    help="endpoint regularization distances")
    sp.add_argument("--n", type=float, nargs="+", default=None,
                    help="number eigenvalues for the scalar KZ suite")
    sp.add_argument("--hbar2", type=complex, nargs="+", default=None,
                    help="scalar KZ deformation parameters (complex, e.g. 0.1j)")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.add_argument("--config", default=None,
                    help="JSON file with the same keys as the flags")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    overrides = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                overrides.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
    for key in ("q", "cutoff", "modes", "sign", "eps", "n", "hbar2"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    for key in ("q", "eps", "n", "hbar2"):
        if key in overrides and not isinstance(overrides[key], (list, tuple)):
            overrides[key] = [overrides[key]]
        if key in overrides:
            cast = complex if key == "hbar2" else float
            overrides[key] = tuple(cast(v) for v in overrides[key])

    try:
        cfg = make_config(args.id, **overrides)
        report = run_suite(cfg)
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits

    out = args.out or overrides.get("out")
    if out:
        emit_report(report, out)
    else:
        sys.stdout.write(report_to_json(report))

    n_fail = sum(not c.passed for c in report.cases)
    for c in report.cases:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: residual={c.residual:.3e} "
              f"tol={c.tolerance:.3e}", file=sys.stderr)
    print(f"{report.suite}: {len(report.cases) - n_fail}/{len(report.cases)} "
          f"cases passed", file=sys.stderr)
    return 0 if n_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
