"""Command line: coefficient tables, spectra, width comparisons, and
plot-ready datasets, reproducibly and machine-readable first.

Exit codes: 0 success, 2 domain error, 3 convergence failure, 64 usage.
Every emitted payload carries a metadata header (package version, the
resolved configuration, truncation orders, precision) so a run can be
reproduced byte for byte; no timestamps on purpose.

Each subcommand's options, mode checks and computation are in this
module, with the JSON, CSV and pretty renderings.  Each computation
imports its generator or oracle module when it runs, so a run loads the
modules of its own subcommand alone.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import __version__
from .errors import ConvergenceError, DomainError, RegimeWarning, require_positive

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


def _fraction(text: str):
    """argparse type for an exact rational written as an integer or p/q: a
    Fraction, which the metadata writes in lowest terms ("p/q", or "p" for
    an integer)."""
    from fractions import Fraction

    num, sep, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if sep else 1)
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
            args.m = _fraction("1/2")
        if args.poly and args.N is not None:
            raise _UsageError("benderwu --poly covers every level: --N is not used")
        if args.N is None:
            args.N = 0


def _series_rows(series, var_name: str):
    rows = []
    for n in range(series.order + 1):
        poly = series[n]
        rows.append(
            {
                "power": n,
                "variable": var_name,
                "coefficients_in_B": [str(c) for c in poly.c] or ["0"],
            }
        )
    return rows


def to_csv(payload: dict, meta: dict) -> str:
    lines = [f"# {k} = {json.dumps(v, sort_keys=True)}" for k, v in sorted(meta.items())]
    rows = payload.get("rows", [])
    if rows:
        lines += [f"# {k} = {json.dumps(v, sort_keys=True)}"
                  for k, v in sorted(payload.items()) if k != "rows"]
        keys = list(rows[0].keys())
        lines.append(",".join(keys))
        for r in rows:
            lines.append(",".join(_csv_cell(r[k]) for k in keys))
    else:
        lines.append(json.dumps(payload, sort_keys=True))
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (list, tuple)):
        return '"' + ";".join(str(x) for x in v) + '"'
    return str(v)


def to_pretty(payload: dict, meta: dict) -> str:
    lines = [f"{meta['command']}  (v{meta['version']})"]
    rows = payload.get("rows", [])
    if rows:
        keys = list(rows[0].keys())
        cells = [[_csv_cell(r[k]) for k in keys] for r in rows]
        widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
        lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
        for c in cells:
            lines.append("  ".join(x.ljust(w) for x, w in zip(c, widths)))
    for k, v in payload.items():
        if k != "rows":
            lines.append(f"{k}: {json.dumps(v, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _require_level(N) -> None:
    if N is not None and N < 0:
        raise DomainError(f"level N >= 0 required, got {N}")


def _run_pert(args) -> dict:
    from fractions import Fraction as Q

    from . import spectral

    _require_level(args.N)
    series = spectral.bs_invert_weak(args.order)
    out: dict = {"rows": _series_rows(series, "hbar")}
    if args.N is not None:
        ev = series.eval_at_B(Q(2 * args.N + 1, 2))
        out["at_N"] = {
            "N": args.N,
            "coefficients": [str(ev[n].const_value()) for n in range(ev.order + 1)],
        }
        if args.hbar is not None:
            require_positive("hbar", args.hbar)
            value = float(series(args.hbar, Q(2 * args.N + 1, 2)))
            if not math.isfinite(value):
                raise DomainError(f"series value not finite in double precision at "
                                  f"hbar={args.hbar!r}")
            out["at_N"]["value"] = value
    return out


def _run_strong(args) -> dict:
    from . import spectral

    edges = spectral.gap_edge_series(args.N, args.order)
    rows = []
    for name, ser in (("upper", edges.upper), ("lower", edges.lower)):
        if ser is None:
            continue
        rows.append(
            {
                "edge": name,
                "q_coefficients": [str(ser[j].const_value())
                                   for j in range(ser.order + 1)],
            }
        )
    out = {"rows": rows, "note": "u = (hbar^2/8) * sum_j c_j q^j, q = 4/hbar^2"}
    if args.hbar is not None:
        out["at_hbar"] = {
            "hbar": args.hbar,
            "upper_u": edges.u_upper(args.hbar),
            **({"lower_u": edges.u_lower(args.hbar)} if edges.lower else {}),
        }
    return out


def _run_pinst(args) -> dict:
    from fractions import Fraction as Q

    from . import widths

    _require_level(args.N)
    P = widths.p_inst(args.order)
    out: dict = {"rows": _series_rows(P, "hbar")}
    if args.N is not None:
        B = Q(2 * args.N + 1, 2)
        ev = P.eval_at_B(B)
        # rendered as a series in (hbar/8), the customary instanton unit
        out["at_N_in_hbar_over_8"] = [
            str(ev[n].const_value() * Q(8) ** n) for n in range(ev.order + 1)
        ]
    return out


def _run_zjj(args) -> dict:
    from . import spectral

    z = spectral.zjj_construct(args.order)
    return {
        "rows": [],
        "E_of_B": _series_rows(z.E_of_B, "hbar"),
        "B_of_E": _series_rows(z.B_of_E, "hbar"),
        "A_of_B": _series_rows(z.A_of_B, "hbar"),
        "A_of_E": _series_rows(z.A_of_E, "hbar"),
        "A_pole": "16/hbar",
    }


def _run_actions(args) -> dict:
    from . import dunham

    if args.region == "well":
        coeffs = dunham.well_action_series(args.n, args.order)[args.n]
        rows = [{"power_of_u_plus_1": k, "coefficient": str(c)} for k, c in enumerate(coeffs)]
    else:
        table = dunham.high_action_series(args.n, args.order)[args.n]
        rows = [{"half_power_of_2u": h, "coefficient": str(c)} for h, c in table.items()]
    return {"rows": rows}


def _run_spectrum(args) -> dict:
    from . import oracle

    return {"rows": oracle.figure1_dataset([args.hbar], N_max=args.bands)}


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num), value for value."""
    if num < 0:
        raise DomainError(f"--points must be >= 0, got {num}")
    start, stop = float(start), float(stop)
    if num < 2:  # numpy's 0 * delta + start: NaN when stop - start is not finite
        return [0 * (stop - start) + start] * num
    step = (stop - start) / (num - 1)
    out = [i * step + start for i in range(num)]
    out[-1] = stop
    return out


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.geomspace(start, stop, num) for finite start, stop > 0, by
    numpy's algorithm.  The interior points take log10 and pow from the C
    library, whose last bits can differ from numpy's: on the default figure1
    grids 1 to 4 of 28 points move by one ulp."""
    for v in (start, stop):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"geometric grid needs finite endpoints > 0, got {v!r}")
    out = [10.0 ** y for y in _linspace(math.log10(start), math.log10(stop), num)]
    if num > 0:
        out[0] = float(start)
    if num > 1:
        out[-1] = float(stop)
    return out


def _run_figure1(args) -> dict:
    from . import oracle

    grid = _geomspace(args.hbar_min, args.hbar_max, args.points)
    rows = oracle.figure1_dataset(grid, N_max=args.bands)
    return {"rows": rows, "reference_lines_u": [-1.0, 1.0]}


def _run_figure2(args) -> dict:
    from . import oracle

    grid = _linspace(args.q_min, args.q_max, args.points)
    rows = oracle.figure2_dataset(grid, N_max=args.bands)
    verticals = []
    for N in range(1, args.bands + 1):
        for sgn in (-1, 1):
            verticals.append(
                {"N": N, "sign": sgn, "Q": math.pi ** 2 / 16 * (N + sgn * 0.25) ** 2}
            )
    return {
        "rows": rows,
        "reference_lines_u": [-1.0, 1.0],
        "edge_crossing_verticals": verticals,
        "top_split_curves": "u = 1 +- pi*hbar/16",
    }


def _run_widths(args) -> dict:
    import warnings

    from . import oracle, widths

    # the oracle first: its domain checks bound hbar for the estimates too
    num = oracle.width_num(args.hbar, args.N, args.kind)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.kind == "band":
            est = widths.band_width(args.hbar, args.N, order=args.order)
        else:
            est = widths.gap_width(args.hbar, args.N)
    return {
        "diagnostics": [
            {"category": w.category.__name__, "message": str(w.message)}
            for w in caught
            if issubclass(w.category, RegimeWarning)
        ],
        "rows": [
            {
                "kind": args.kind,
                "N": args.N,
                "hbar": args.hbar,
                "asymptotic_leading": est.leading,
                "asymptotic_with_fluctuations": est.with_fluctuations,
                "oracle": num["width"],
                "oracle_error_bound": num["error_bound"],
                "oracle_dps": num["dps_used"],
                "oracle_truncation": num["truncation"],
                "ratio": est.with_fluctuations / num["width"]
                if args.kind == "band"
                else est.leading / num["width"],
            }
        ]
    }


def _run_zerodim(args) -> dict:
    from . import zerodim

    m = args.m
    if args.check == "rows":
        if not 0 <= m <= 1:
            raise DomainError("m in [0, 1]")
        sym = zerodim.lame_vacuum_symbolic(args.order)
        return {
            "rows": [
                {"r": r, "coefficient_at_m": str(p(m)), "poly_in_m": [str(c) for c in p.c] or ["0"]}
                for r, p in enumerate(sym)
            ]
        }
    if args.check == "relation":
        if args.order < 8:
            raise DomainError(f"--check relation tests n = 8, 12, ... up to --order: "
                              f"needs --order >= 8, got {args.order}")
        rep = zerodim.exact_relation_check(m, range(8, args.order + 1, 4))
        return {"rows": rep["rows"], "max_rel_defect": rep["max_rel_defect"]}
    hbars = args.hbar or [0.2, 0.1, 0.05]
    rows = zerodim.borel_lateral_check(m, hbars)
    return {"rows": rows}


def _run_benderwu(args) -> dict:
    from . import benderwu

    if args.potential == "mathieu":
        V = benderwu.mathieu_well_potential(2 * args.order + 4)
    else:
        V = benderwu.lame_potential(args.m, 2 * args.order + 4)
    if args.poly:
        series = benderwu.polynomial_in_N(V, args.order)
        return {"rows": _series_rows(series, "hbar")}
    series = benderwu.rs_series(V, args.N, args.order)
    return {
        "rows": [
            {"power": n, "coefficient": str(series[n].const_value())}
            for n in range(series.order + 1)
        ]
    }


RUNNERS = {
    "pert": _run_pert,
    "strong": _run_strong,
    "pinst": _run_pinst,
    "zjj": _run_zjj,
    "actions": _run_actions,
    "spectrum": _run_spectrum,
    "figure1": _run_figure1,
    "figure2": _run_figure2,
    "widths": _run_widths,
    "zerodim": _run_zerodim,
    "benderwu": _run_benderwu,
}

def _emit(payload: dict, args) -> str | None:
    """Render the payload and write it; return the text written to
    stdout, or None when it went to ``--output``."""
    meta = {
        "version": __version__,
        "command": args.command,
        "config": {k: str(v) for k, v in sorted(vars(args).items()) if k != "command"},
    }
    if args.pretty or args.format == "csv":
        text = (to_pretty if args.pretty else to_csv)(payload, meta)
    else:
        text = json.dumps({"metadata": meta, **payload}, sort_keys=True, indent=None) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --output {args.output!r}: {exc.strerror or exc}")
        return None
    sys.stdout.write(text)
    return text


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
    try:
        payload = RUNNERS[args.command](args)
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
