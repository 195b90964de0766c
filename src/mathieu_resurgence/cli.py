"""Command-line front end: coefficient tables, spectra, width comparisons,
and plot-ready datasets, reproducibly and machine-readable first.

Exit codes: 0 success, 2 domain error, 3 convergence failure, 64 usage.
Every emitted payload carries a metadata header (package version, the
resolved configuration, truncation orders, precision) so a run can be
reproduced byte for byte; no timestamps on purpose.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .errors import ConvergenceError, DomainError

# Each module imports at top level only what all of its callers use.  This
# module is the front end alone: the options and JSON output.  The runners
# and the CSV and pretty renderers live in `runners`, which is imported
# where a payload is computed, and it imports the generator and oracle
# modules inside each runner.  A command repeated under `python -m` does
# not import this module: `__main__` prints its recorded stdout.
# `spectral` and the `actions` subcommand take the action tables from
# `dunham`, so no subcommand loads `actions` and its elliptic closed forms.
# The package has no dependency: the zerodim checks and the mp Hill tier
# behind `widths` compute in the standard library's `decimal`.

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative fraction such as "-1/4" is a value, not an option, so
        # "--m -1/4" reaches the domain check like "--m=-1/4" does
        self._negative_number_matcher = re.compile(r"^-\d+(/\d*)?$|^-\d*\.\d+$")

    def error(self, message):
        raise _UsageError(message)


def _emit(payload: dict, args) -> str | None:
    """Render the payload and write it; return the text written to
    stdout, or None when it went to ``--output``."""
    meta = {
        "version": __version__,
        "command": args.command,
        "config": {k: str(v) for k, v in sorted(vars(args).items()) if k != "command"},
    }
    if args.pretty or args.format == "csv":
        from . import runners

        text = (runners.to_pretty if args.pretty else runners.to_csv)(payload, meta)
    else:
        text = json.dumps({"metadata": meta, **payload}, sort_keys=True, indent=None)
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --output {args.output!r}: {exc.strerror or exc}")
        return None
    sys.stdout.write(text)
    return text


def _fraction(text: str) -> str:
    """argparse type for an exact rational written as an integer or p/q.

    Returns it in lowest terms as ``str(Fraction(text))`` writes it ("p/q",
    or "p" for an integer); the runners build the Fraction."""
    from fractions import Fraction

    num, sep, den = text.partition("/")
    try:
        return str(Fraction(int(num), int(den) if sep else 1))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction p/q, got {text!r}") from None


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--output", help="write to file instead of stdout")
    common.add_argument("--pretty", action="store_true", help="human-oriented table")

    p = _Parser(prog="mathieu-resurgence", description=__doc__)
    subs = p.add_subparsers(dest="command", required=True)

    def sub_parser(name, **kw):
        return subs.add_parser(name, parents=[common], **kw)

    s = sub_parser("pert", help="weak-coupling band-location series")
    s.add_argument("--order", type=int, default=5)
    s.add_argument("--poly", action="store_true", help="exact rationals in B")
    s.add_argument("--N", type=int, help="evaluate at integer level N")
    s.add_argument("--hbar", type=float)

    s = sub_parser("strong", help="strong-coupling gap edges / expansion")
    s.add_argument("--N", type=int, default=1)
    s.add_argument("--order", type=int, default=8)
    s.add_argument("--hbar", type=float)

    s = sub_parser("pinst", help="one-instanton fluctuation series")
    s.add_argument("--order", type=int, default=2)
    s.add_argument("--N", type=int)

    s = sub_parser("zjj", help="quantization-function tables")
    s.add_argument("--order", type=int, default=4)

    s = sub_parser("actions", help="WKB action expansions")
    s.add_argument("--region", choices=("well", "high"), default="well")
    s.add_argument("--n", type=int, default=0, help="WKB order")
    s.add_argument("--order", type=int, default=6)

    s = sub_parser("spectrum", help="numeric band edges at one hbar")
    s.add_argument("--hbar", type=float, required=True)
    s.add_argument("--bands", type=int, default=5)

    s = sub_parser("figure1", help="band edges over an hbar grid")
    s.add_argument("--hbar-min", type=float, default=0.3)
    s.add_argument("--hbar-max", type=float, default=3.0)
    s.add_argument("--points", type=int, default=28)
    s.add_argument("--bands", type=int, default=19)

    s = sub_parser("figure2", help="band edges over a Q grid near u = 1")
    s.add_argument("--q-min", type=float, default=2.0)
    s.add_argument("--q-max", type=float, default=60.0)
    s.add_argument("--points", type=int, default=30)
    s.add_argument("--bands", type=int, default=12)

    s = sub_parser("widths", help="asymptotic width vs numeric oracle")
    s.add_argument("--kind", choices=("band", "gap"), required=True)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--hbar", type=float, required=True)
    s.add_argument("--order", type=int, default=3)

    s = sub_parser("zerodim", help="saddle expansions and resurgence checks")
    s.add_argument("--m", type=_fraction, default="1/4", help="elliptic parameter (fraction)")
    s.add_argument("--order", type=int, help="truncation order of rows and relation (default 8)")
    s.add_argument("--check", choices=("rows", "relation", "borel"), default="rows")
    s.add_argument("--hbar", type=float, action="append")

    s = sub_parser("benderwu", help="perturbative oracle series")
    s.add_argument("--potential", choices=("mathieu", "lame"), default="mathieu")
    s.add_argument("--m", type=_fraction, help="elliptic parameter of lame (default 1/2)")
    s.add_argument("--N", type=int, help="level (default 0); not with --poly")
    s.add_argument("--order", type=int, default=6)
    s.add_argument("--poly", action="store_true")
    return p


def _check_options(args) -> None:
    """Refuse an option that the chosen mode would drop without a word, and
    fill the defaults that depend on the mode."""
    if args.pretty and args.format == "csv":
        raise _UsageError("--pretty and --format csv are two renderings: give one")
    if args.command == "pert" and args.hbar is not None and args.N is None:
        raise _UsageError("pert --hbar evaluates the series at one level: give --N")
    if args.command == "zerodim":
        if args.hbar and args.check != "borel":
            raise _UsageError("zerodim --hbar is used only by --check borel")
        if args.order is not None and args.check == "borel":
            raise _UsageError("zerodim --order is not used by --check borel")
        if args.order is None:
            args.order = 8
    if args.command == "benderwu":
        if args.potential == "mathieu" and args.m is not None:
            raise _UsageError("benderwu --m is the parameter of --potential lame only")
        if args.potential == "lame" and args.m is None:
            args.m = "1/2"
        if args.poly and args.N is not None:
            raise _UsageError("benderwu --poly covers every level: --N is not used")
        if args.N is None:
            args.N = 0


def run(argv: list[str] | None = None) -> tuple[int, str | None]:
    """Run one command: its exit code, and the text it wrote to stdout
    (None when it wrote none: an error, or a result sent to ``--output``)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_options(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE, None
    from . import runners

    try:
        payload = runners.RUNNERS[args.command](args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN, None
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return EXIT_CONVERGENCE, None
    try:
        return EXIT_OK, _emit(payload, args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE, None


def main(argv: list[str] | None = None) -> int:
    return run(argv)[0]
