"""Command-line entry point.

    qheis suite <id> [--q <f> ...] [--cutoff <int>] [--modes <int>]
                     [--n <f> ...] [--hbar2 <c> ...]
                     [--out <path>] [--config <path>]

The parameter flags are those of ``suites.PARAMS``; a suite accepts only
the ones it reads (the keys of ``suites.DEFAULTS[id]``), at no less than
its ``suites.MINIMA``.  Flags override values from the optional JSON
config file, which in turn override the per-suite defaults.  Every case
keeps the tolerance its check defines.  The process exits 0 iff every
case of the executed suite passed, 1 otherwise, 2 on usage errors (an
unknown flag, a config file that is not a JSON object, a config key or
flag the suite does not read, a config ``out`` that is not a non-empty
string, an ``out`` path that cannot be written, an empty value list, a
boolean value, a value that is not finite, a value out of range, q = 1
for a suite whose negative controls cannot fail there (``sl2-bose``,
``sl2-fermi``, ``slN``) or whose checks are 0/0 there (``kz-operator``),
or values that give two units the same name among them), each found
before any unit runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .suites import PARAMS, SUITE_IDS, make_config, run_suite, emit_report, report_to_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qheis",
        description="residual verification suites for q-deformed covariant "
                    "Heisenberg algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("suite", help="run a verification suite")
    sp.add_argument("id", choices=SUITE_IDS, metavar="id",
                    help=f"one of: {', '.join(SUITE_IDS)}")
    for name, (typ, many, text) in PARAMS.items():
        sp.add_argument(f"--{name}", type=typ, nargs="+" if many else None,
                        default=None, help=text)
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.add_argument("--config", default=None,
                    help="JSON file with the same keys as the flags")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _writable(path: str) -> bool:
    """Whether a report can be written to path: it names no directory,
    and the file, or the directory it would be made in, is writable."""
    if os.path.isdir(path):
        return False
    if os.path.exists(path):
        return os.access(path, os.W_OK)
    return os.access(os.path.dirname(path) or ".", os.W_OK)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    overrides = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            parser.error(f"config {args.config} must hold a JSON object")
        overrides.update(loaded)
    out = args.out
    if "out" in overrides:  # cli's own key, not a suite parameter
        path = overrides.pop("out")
        if not isinstance(path, str) or not path:
            parser.error(f"config key out must be a non-empty path string, not {path!r}")
        out = out or path
    overrides.update((key, getattr(args, key)) for key in PARAMS
                     if getattr(args, key) is not None)
    if out and not _writable(out):
        parser.error(f"cannot write the report to {out}")

    try:
        cfg = make_config(args.id, **overrides)
        report = run_suite(cfg)
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits

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
