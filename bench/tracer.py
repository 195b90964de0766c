"""Run one CLI job with timing wrappers around the package's layers.

Usage: python tracer.py TRACE_OUT JOB_ID -- <cli arguments>

The wrappers are installed from outside: the package itself is unchanged.
Coarse public functions get one span each (name, start, end, parent, job
id); the hot exact arithmetic and the Sturm count get counters and
accumulated time instead, so that tracing does not allocate one record per
multiplication.  Everything stays in memory and is written to TRACE_OUT as
JSON when the job ends.  The exit code is the CLI's.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types

PKG = "mathieu_resurgence"

# modules whose public functions get one span per call
SPAN_MODULES = (
    "dunham", "actions", "spectral", "charvalues", "benderwu", "widths",
    "jacobi_exact", "zerodim", "oracle", "tridiag",
)
# functions that are too hot for spans: counted and timed instead
COUNTED_FUNCTIONS = {"tridiag": ("count_below",)}
# series methods that do arithmetic or algebra; accessors stay unwrapped
SERIES_CLASSES = ("PolyB", "PolySeries", "TransSeries")
SERIES_SKIP = {"is_zero", "is_const", "const_value", "coeff", "sector", "perturbative"}
SERIES_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                  "__rmul__", "__truediv__", "__pow__", "__call__"}
# layers whose time is accumulated only for their outermost call
COUNTER_LAYERS = ("series", "tridiag")

_now = time.perf_counter


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []  # [name, start, end, parent, attr, error]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.times: dict[str, float] = {}
        self.layer_depth = {layer: 0 for layer in COUNTER_LAYERS}
        self.layer_time = {layer: 0.0 for layer in COUNTER_LAYERS}
        # counter-layer time spent directly under each span (index -1: no span)
        self.counted_under: dict[int, float] = {}

    def span(self, name: str, fn, attr=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            rec = [name, _now(), 0.0, parent, attr(args, kwargs) if attr else None, False]
            self.spans.append(rec)
            self.stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = _now()
                self.stack.pop()

        return wrapper

    def counter(self, name: str, layer: str, fn):
        counts, times, depth = self.counts, self.times, self.layer_depth
        counts[name] = 0
        times[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[layer] += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                depth[layer] -= 1
                counts[name] += 1
                times[name] += dt
                if depth[layer] == 0:
                    self.layer_time[layer] += dt
                    top = self.stack[-1] if self.stack else -1
                    self.counted_under[top] = self.counted_under.get(top, 0.0) + dt

        return wrapper

    def to_json(self) -> dict:
        return {
            "job_id": self.job_id,
            "spans": self.spans,
            "counts": self.counts,
            "times": self.times,
            "layer_time": self.layer_time,
            "counted_under": {str(k): v for k, v in self.counted_under.items()},
        }


def _band_edges_tier(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return getattr(cfg, "dps", None)


def _first_int(args, kwargs):
    return args[0] if args and isinstance(args[0], int) else kwargs.get("order")


# span attributes the per-layer metrics read: precision tier, truncation order
SPAN_ATTRS = {"oracle.band_edges": _band_edges_tier, "spectral.bs_invert_weak": _first_int}


def _public_functions(mod):
    for name, value in vars(mod).items():
        if (not name.startswith("_") and isinstance(value, types.FunctionType)
                and value.__module__ == mod.__name__):
            yield name, value


def install(tracer: Tracer) -> None:
    """Wrap every layer, then rebind each name that still points at an
    original function (``from .series import poly_eval_series`` and the
    like), in every loaded module of the package."""
    import importlib

    replaced: dict[int, object] = {}

    series = importlib.import_module(f"{PKG}.series")
    for cls_name in SERIES_CLASSES:
        cls = getattr(series, cls_name)
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType):
                continue
            if attr.startswith("_") and attr not in SERIES_DUNDERS:
                continue
            if attr in SERIES_SKIP:
                continue
            if id(value) not in replaced:
                # aliases (__radd__ = __add__) share the first name's counter
                replaced[id(value)] = tracer.counter(
                    f"series.{cls_name}.{attr.strip('_')}", "series", value)
            setattr(cls, attr, replaced[id(value)])
    for name, fn in _public_functions(series):
        replaced[id(fn)] = tracer.counter(f"series.{name}", "series", fn)

    for short in SPAN_MODULES:
        mod = importlib.import_module(f"{PKG}.{short}")
        counted = COUNTED_FUNCTIONS.get(short, ())
        for name, fn in _public_functions(mod):
            full = f"{short}.{name}"
            if name in counted:
                replaced[id(fn)] = tracer.counter(full, short, fn)
            else:
                replaced[id(fn)] = tracer.span(full, fn, SPAN_ATTRS.get(full))

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
            continue
        for name, value in list(vars(mod).items()):
            if id(value) in replaced and isinstance(value, types.FunctionType):
                setattr(mod, name, replaced[id(value)])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 64
    out_path, job_id, cli_args = argv[0], argv[1], argv[3:]
    t0 = _now()
    import mathieu_resurgence.cli as cli  # noqa: E402  (timed on purpose)

    import_s = _now() - t0
    tracer = Tracer(job_id)
    install(tracer)
    run = tracer.span("cli.main", cli.main)
    code = 1
    try:
        code = run(cli_args)
    finally:
        sys.stdout.flush()
        data = tracer.to_json()
        data["import_s"] = import_s
        data["exit_code"] = code
        with open(out_path, "w") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
