"""Command line front end for the verification harness."""

import argparse
import os
import sys

from . import harness


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modk2",
        description="verification checks for the homology-to-K2 machinery")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run one named check kind")
    ver.add_argument("kind", choices=harness.KINDS)
    ver.add_argument("--M", type=int, required=True, help="base level")
    ver.add_argument("--p", type=int, default=None,
                     help="prime for norm, transfer, and surjectivity checks")
    ver.add_argument("--l", dest="ell", type=int, default=None,
                     help="prime for operator kill checks")
    ver.add_argument("--cusps", choices=harness.VERIFY_CUSP_MODES,
                     default="orbit",
                     help="which boundary orbits the norm checks use "
                          "(all: every kernel orbit)")
    ver.add_argument("--trials", type=int, default=200,
                     help="random trial count for sampled checks")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--backend", choices=harness.BACKENDS, default="tame")
    ver.add_argument("--cache-dir", default=None,
                     help="directory for cached text artifacts")
    ver.add_argument("--json", action="store_true",
                     help="emit the JSON report instead of text")

    pre = sub.add_parser("present", help="print a homology presentation")
    pre.add_argument("--M", type=int, required=True, help="level")
    pre.add_argument("--cusps", choices=harness.CUSP_MODES, default="all",
                     help="boundary classes kept in the relative homology")
    return parser


def _bad_input(message):
    """A bad input, not a failed check: one line and exit 2, as for bad
    parameters."""
    print("modk2 verify: error: %s" % message, file=sys.stderr)
    return 2


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "present":
        try:
            text = harness.presentation_text(args.M, args.cusps)
        except ValueError as err:
            parser.error(str(err))
        print(text)
        return 0
    try:
        harness.check_params(args.kind, args.M, args.p, args.ell, args.backend,
                             args.trials, args.cusps)
    except ValueError as err:
        parser.error(str(err))
    if args.cache_dir:
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
        except OSError as err:
            return _bad_input("cache directory %s: %s"
                              % (args.cache_dir, err.strerror or err))
    try:
        report = harness.run_check(
            args.kind, args.M, p=args.p, ell=args.ell, cusps=args.cusps,
            trials=args.trials, seed=args.seed, backend=args.backend,
            cache_dir=args.cache_dir)
    except harness.CacheFileError as err:
        return _bad_input(err)
    if args.json:
        print(harness.render_json(report))
    else:
        print(harness.render_text(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())