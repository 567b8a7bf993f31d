"""Command-line front end.

    logres analyze --vars x,y --poly "x*y" [--factors "x;y"]
                   [--branches file.json] [--format text|json]
                   [--seed S] [--timings]
    logres corpus  [--only NAME] [--seed S]

Exit codes: 0 success, 1 corpus mismatch, 2 invalid input (such as an h
that is not reduced at the origin), 3 internal consistency failure (a
proven equivalence was violated).
"""

from __future__ import annotations

import argparse
import sys

from .errors import InputError, ParseError, ConsistencyError, EngineError
from .poly import parse
from .germs import DivisorGerm
from .criteria import analyze
from .corpus import run_corpus, corpus_names
from .normalization import branches_from_json


def _build_parser():
    ap = argparse.ArgumentParser(prog="logres",
                                 description="algebraic analysis of reduced "
                                             "hypersurface germs at the origin")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analyze one divisor germ")
    a.add_argument("--vars", required=True,
                   help="comma-separated variable names, e.g. x,y,z")
    a.add_argument("--poly", required=True,
                   help="defining polynomial over the variables")
    a.add_argument("--factors", default=None,
                   help="semicolon-separated factorization of the polynomial")
    a.add_argument("--branches", default=None,
                   help="path to a JSON file with branch parametrizations")
    a.add_argument("--format", choices=("text", "json"), default="text")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--timings", action="store_true",
                   help="include the elapsed time in the report "
                        "(breaks byte-for-byte reproducibility)")

    c = sub.add_parser("corpus", help="run the bundled example corpus")
    c.add_argument("--only", default=None,
                   help="restrict to corpus entries whose name contains this")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--format", choices=("text", "json"), default="text")
    return ap


def cmd_analyze(args):
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not names:
        raise InputError("empty variable list")
    h = parse(args.poly, names)
    D = DivisorGerm(names, h)
    factors = None
    if args.factors:
        factors = [parse(t.strip(), names)
                   for t in args.factors.split(";") if t.strip()]
    branches = None
    if args.branches:
        with open(args.branches, "r", encoding="utf-8") as fh:
            branches = branches_from_json(fh.read(), D)
    report = analyze(D, factors=factors, branches=branches, seed=args.seed,
                     want_timings=args.timings)
    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        print(report.to_text())
    return 0


def cmd_corpus(args):
    reports = []
    failures, ran = run_corpus(only=args.only, seed=args.seed,
                               report_sink=lambda n, r: reports.append((n, r)))
    if ran == 0:
        print(f"no corpus entry matches {args.only!r}; known entries: "
              f"{', '.join(corpus_names())}", file=sys.stderr)
        return 2
    for name, report in reports:
        if args.format == "json":
            print(report.to_json())
        else:
            verdicts = " ".join(f"{k}={v}" for k, v in
                                sorted(report.verdicts.items()))
            print(f"{name}: {verdicts}")
    if failures:
        for f in failures:
            print(f"MISMATCH {f}", file=sys.stderr)
        return 1
    print(f"corpus: {ran} entries verified")
    return 0


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_corpus(args)
    except (InputError, ParseError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConsistencyError as e:
        print(f"consistency failure: {e}", file=sys.stderr)
        return 3
    except EngineError as e:
        print(f"engine failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
