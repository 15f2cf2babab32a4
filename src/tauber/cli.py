"""Command-line entry point: run scenario files and write reports.

Exit codes: 0 when every check lands on its expected status, 1 when some
check mismatches its expectation, 2 on errors, unexpected inconclusive
verdicts, or unusable input.  Timings are printed to the console but kept
out of the report files, which are byte-stable across reruns.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import ScenarioError
from .scenarios import emit, load_scenario, run_scenario

_STATUS_MARKS = {"pass": "ok", "fail": "FAIL", "inconclusive": "??", "error": "ERROR"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauber",
        description="Verify transform/distribution convergence statements "
                    "for signed measures on the half-line.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario file and write its report")
    runp.add_argument("scenario", help="path to a scenario JSON file")
    runp.add_argument("--out", default=".", metavar="DIR",
                      help="directory for report files (default: current directory)")
    runp.add_argument("--format", default="json", choices=("json", "csv", "both"),
                      help="report format(s) to write (default: json)")
    runp.add_argument("--n-max", type=int, default=None, metavar="N",
                      help="override the sequence index ceiling for every check")
    runp.add_argument("--tol", type=float, default=None, metavar="X",
                      help="override the primary tolerance of checks that take one")
    runp.add_argument("--quiet", action="store_true",
                      help="suppress per-check console output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "run":  # pragma: no cover -- argparse enforces this
        return 2
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_scenario(scenario, n_max=args.n_max, tol=args.tol)
    paths = emit(report, args.out, args.format)
    if not args.quiet:
        print(f"scenario: {report.scenario}")
        for o in report.outcomes:
            mark = _STATUS_MARKS[o.status]
            if o.error is not None:
                note = f" {o.error}"
            elif not o.matched:
                note = f" (expected {o.expect})"
            elif o.status != "pass":
                note = " (as expected)"
            else:
                note = ""
            print(f"  [{mark:>5}] {o.check_id}{note}  ({o.elapsed:.2f}s)")
        matched = sum(1 for o in report.outcomes if o.matched)
        print(f"{matched}/{len(report.outcomes)} checks matched expectations")
        for p in paths:
            print(f"wrote {p}")
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
