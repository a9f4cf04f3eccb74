"""Command-line front end: mds <command> <config-path> [--out DIR] [--quiet]."""

from __future__ import annotations

import argparse
import json
import sys

from .scenario_io import run_command

_COMMANDS = ("simulate", "steer", "check-conditions", "verify-resolvent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mds",
        description="Measure-driven semilinear systems: simulate, steer, "
                    "check steerability conditions, verify the resolvent.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("config", help="path to a JSON scenario document")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for CSV and report outputs (default: .)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout summaries")
    parser.add_argument("--physical", action="store_true",
                        help="add collocation-node values to trajectory.csv")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage problems are validation here
        return 0 if exc.code == 0 else 1
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        if not args.quiet:
            print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError on bytes that are not UTF-8 and an
        # integer past the digit limit are ValueErrors; nesting past the
        # recursion limit is a RecursionError
        if not args.quiet:
            print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    return run_command(args.command, doc, args.out,
                       physical=args.physical, quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
