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
import math
import os
import re
import sys

from . import __version__
from .errors import ConvergenceError, DomainError, RegimeWarning, require_positive

# Each module imports at top level only what all of its callers use.  Here
# the generator and oracle modules, `fractions` and `zlib` are imported
# inside the functions that use them, and `--m` is parsed to lowest-terms
# text, so a cache hit loads none of them.  `spectral` takes the action
# tables from `dunham`, so the exact-series subcommands other than
# `actions` load neither `actions` nor `elliptic`.  mpmath loads only where
# a run does multiprecision arithmetic: the mp Hill tier behind `widths`,
# and `zerodim --check relation` and `--check borel`.

__all__ = ["main", "build_parser"]

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


def _q_str(x) -> str:
    """A Fraction as "p/q", or "p" when it is an integer."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _series_rows(series, var_name: str):
    rows = []
    for n in range(series.order + 1):
        poly = series[n]
        rows.append(
            {
                "power": n,
                "variable": var_name,
                "coefficients_in_B": [_q_str(c) for c in poly.c] or ["0"],
            }
        )
    return rows


def _emit(payload: dict, args) -> None:
    meta = {
        "version": __version__,
        "command": payload.pop("_command"),
        "config": payload.pop("_config"),
    }
    if args.pretty:
        text = _to_pretty(payload, meta)
    elif args.format == "json":
        text = json.dumps({"metadata": meta, **payload}, sort_keys=True, indent=None)
    else:
        text = _to_csv(payload, meta)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write --output {args.output!r}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _to_csv(payload: dict, meta: dict) -> str:
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


def _to_pretty(payload: dict, meta: dict) -> str:
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


def _cache_dir() -> str | None:
    return os.environ.get("MATHIEU_RESURGENCE_CACHE")


# output-only options: they change how a payload is rendered, not what it is
_OUTPUT_OPTIONS = ("format", "output", "pretty")

# Payload shape per subcommand, part of the cache key only: raise a number
# when its subcommand's payload gains, loses or changes a field, so older
# cache entries become misses while metadata.version and stdout stay put.
# Raise it too when the printed values change, so that a shared cache does
# not mix them.  widths: 2 added oracle_dps and oracle_truncation to its row.
# spectrum, figure1, figure2: 2 and widths: 3 moved the float Hill tier from
# LAPACK to Sturm counts in `tridiag`, which moves last digits.
# pert, strong, pinst: 2 reject N < 0 and an hbar that is not finite and
# > 0, which schema 1 evaluated (printing NaN) or dropped.
# spectrum, figure1, figure2: 3 and widths: 4 split both Bloch sectors into
# parity blocks and widen the antiperiodic basis by one momentum, which
# moves last digits.  widths: 5 sizes every narrow gap on the mp tier, not
# only at hbar >= 2.  benderwu: 2 leaves --m unset (config "None") for the
# mathieu potential, which has no parameter.
_PAYLOAD_SCHEMA = {
    "pert": 2,
    "strong": 2,
    "pinst": 2,
    "zjj": 1,
    "actions": 1,
    "spectrum": 3,
    "figure1": 3,
    "figure2": 3,
    "widths": 5,
    "zerodim": 1,
    "benderwu": 2,
}


def _cached(key: dict, compute):
    """Content-addressed cache of expensive exact computations.

    The key carries the package version and the caller puts the subcommand
    and its payload schema in ``key``.  Each entry stores the canonical key
    text next to the payload, under a short name: the subcommand and a
    CRC-32 of that text.  An entry is served only when its stored key
    equals the computed one, so a checksum collision, a foreign file or an
    entry of an older layout is a miss and is overwritten.  Entries are
    written to a temporary file and renamed into place, so a reader never
    sees a partial entry; an unreadable or corrupt entry is a miss as well.
    """
    root = _cache_dir()
    if not root:
        return compute()
    import zlib

    os.makedirs(root, exist_ok=True)
    key_text = json.dumps({"version": __version__, **key}, sort_keys=True)
    path = os.path.join(root, f"{key['command']}-{zlib.crc32(key_text.encode()):08x}.json")
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        entry = None
    if (isinstance(entry, dict) and entry.get("key") == key_text
            and isinstance(entry.get("payload"), dict)):
        return entry["payload"]
    value = compute()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump({"key": key_text, "payload": value}, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return value


def _fraction(text: str) -> str:
    """argparse type for an exact rational written as an integer or p/q.

    Returns it in lowest terms as ``str(Fraction(text))`` writes it ("p/q",
    or "p" for an integer); the runners build the Fraction."""
    num, sep, den = text.partition("/")
    try:
        p, q = int(num), int(den) if sep else 1
    except ValueError:
        q = 0
    if not q:
        raise argparse.ArgumentTypeError(f"expected a fraction p/q, got {text!r}")
    g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--output", help="write to file instead of stdout")
    common.add_argument("--pretty", action="store_true", help="human-oriented table")

    p = _Parser(prog="mathieu-resurgence", description=__doc__, parents=[common])
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


def _require_level(N) -> None:
    if N is not None and N < 0:
        raise DomainError(f"level N >= 0 required, got {N}")


def _run_pert(args) -> dict:
    from fractions import Fraction as Q

    from . import spectral

    _require_level(args.N)
    series = spectral.u_pert(args.order)
    out: dict = {"rows": _series_rows(series, "hbar")}
    if args.N is not None:
        ev = series.eval_at_B(Q(2 * args.N + 1, 2))
        out["at_N"] = {
            "N": args.N,
            "coefficients": [_q_str(ev[n].const_value()) for n in range(ev.order + 1)],
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
                "q_coefficients": [_q_str(ser[j].const_value())
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
            _q_str(ev[n].const_value() * Q(8) ** n) for n in range(ev.order + 1)
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
    from . import actions as actions_mod

    ser = actions_mod.action_series(args.region, args.n, args.order)
    if args.region == "well":
        rows = [
            {"power_of_u_plus_1": k, "coefficient": _q_str(ser.well[k].const_value())}
            for k in range(ser.well.order + 1)
        ]
    else:
        rows = [
            {"half_power_of_2u": h, "coefficient": _q_str(c)}
            for h, c in ser.high.items()
        ]
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
    from fractions import Fraction as Q

    from . import zerodim

    m = Q(args.m)
    if args.check == "rows":
        if not 0 <= m <= 1:
            raise DomainError("m in [0, 1]")
        sym = zerodim.lame_vacuum_symbolic(args.order)
        return {
            "rows": [
                {"r": r, "coefficient_at_m": _q_str(p(m)), "poly_in_m": [_q_str(c) for c in p.c] or ["0"]}
                for r, p in enumerate(sym)
            ]
        }
    if args.check == "relation":
        rep = zerodim.exact_relation_check(m, range(8, args.order + 1, 4))
        return {"rows": rep["rows"], "max_rel_defect": rep["max_rel_defect"]}
    hbars = args.hbar or [0.2, 0.1, 0.05]
    rows = zerodim.borel_lateral_check(m, hbars)
    return {"rows": rows}


def _run_benderwu(args) -> dict:
    from fractions import Fraction as Q

    from . import benderwu

    if args.potential == "mathieu":
        V = benderwu.mathieu_well_potential(2 * args.order + 4)
    else:
        V = benderwu.lame_potential(Q(args.m), 2 * args.order + 4)
    if args.poly:
        series = benderwu.polynomial_in_N(V, args.order)
        return {"rows": _series_rows(series, "hbar")}
    series = benderwu.rs_series(V, args.N, args.order)
    return {
        "rows": [
            {"power": n, "coefficient": _q_str(series[n].const_value())}
            for n in range(series.order + 1)
        ]
    }


_RUNNERS = {
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_options(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    config = {k: str(v) for k, v in sorted(vars(args).items()) if k != "command"}
    key_config = {k: v for k, v in config.items() if k not in _OUTPUT_OPTIONS}
    try:
        payload = _cached(
            {
                "command": args.command,
                "schema": _PAYLOAD_SCHEMA[args.command],
                "config": key_config,
            },
            lambda: _RUNNERS[args.command](args),
        )
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return EXIT_CONVERGENCE
    payload["_command"] = args.command
    payload["_config"] = config
    try:
        _emit(payload, args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK
