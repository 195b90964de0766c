import ast
import importlib
import inspect
import math
from fractions import Fraction
from pathlib import Path

import pytest
from references import barrier_top_a0

import mathieu_resurgence
from mathieu_resurgence import (
    actions,
    benderwu,
    charvalues,
    dunham,
    oracle,
    series,
    spectral,
    widths,
    zerodim,
)
from mathieu_resurgence.errors import DomainError

PKG_DIR = Path(mathieu_resurgence.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_code_has_no_assert():
    # structural checks must raise typed errors, which survive python -O;
    # a hand-raised AssertionError is an untyped assert by another name
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PKG_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node))
    ]
    assert found == []


def test_benderwu_does_not_use_the_series_solver():
    # the Bender-Wu and characteristic-value recursions are the independent
    # routes the weak and strong WKB inversions are checked against, so
    # they must not share the Newton solve
    for module in ("benderwu.py", "charvalues.py"):
        tree = ast.parse((PKG_DIR / module).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert "newton_solve" not in imported, module
        assert not any(
            isinstance(node, ast.Attribute) and node.attr in ("newton_solve", "reversion")
            for node in ast.walk(tree)
        ), module


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_module_imports_scipy_or_numpy():
    # the package has no dependency: both oracles, the Hill matrix and the
    # Frobenius monodromy, run on the standard library alone
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PKG_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in _imported_modules(node)
        if name.split(".")[0] in ("scipy", "numpy")
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # every CLI run compiles the package from source; dataclasses (and the
    # inspect it pulls in) would cost more to load than most classes it
    # builds: value classes are NamedTuples or plain classes
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PKG_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in _imported_modules(node)
        if name.split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_no_module_imports_a_private_name():
    # an underscore name is one module's own business: a module that needs
    # another's private helper should get a public function instead
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(PKG_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or node.module.split(".")[0] == "mathieu_resurgence")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert found == []


def test_no_module_imports_actions_at_top_level():
    # the action closed forms and their AGM serve `actions` and `widths`
    # only; a module-level import would compile them into every run of
    # its importer
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PKG_DIR.rglob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ImportFrom)
        and (node.module == "actions" or "actions" in (a.name for a in node.names))
    ]
    assert found == []


def _empty_container(node) -> bool:
    """An empty dict, list or set: a display, or a call of the type."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords)


def test_no_module_level_memo():
    # every CLI job is a fresh process, so a process-level memo is never
    # hit there, and it hands each caller the same mutable result: a
    # module-level name bound to an empty container is where one starts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PKG_DIR.rglob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None
        and _empty_container(node.value)
    ]
    assert found == []


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any((b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)) == "NamedTuple"
               for b in node.bases)


def test_every_record_field_is_read():
    # a record field that nothing reads is a setting without a reader: every
    # field of a NamedTuple in the package (a subclass such as
    # PotentialSeries adds none of its own) must be read as an attribute
    # somewhere in the package.  The check goes by attribute name only, so a
    # field is taken as read where any object's attribute of that name is:
    # an unread field named m or N would pass, because the CLI's arguments
    # and SpectralPoint are read as .m and .N
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PKG_DIR.rglob("*.py"))]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (cls.name, item.target.id)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_named_tuple(cls)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert fields
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []


# exported names that nothing in the package or bench/ reads yet, each
# with the reason it stays; every other export must have a reader there
KEEP = {
    "general_width_leading": "the band-edge widths of ROADMAP items 4, 9 and 15",
    "operator_a1": "the exact route to the P/NP relation, ROADMAP item 13",
    "operator_a2": "the exact route to the P/NP relation, ROADMAP item 13",
    "large_order_prediction": "the quantitative large-order relation, ROADMAP item 2",
    "large_order_fit": "ROADMAP item 2, and acceptance criterion 10",
    "zjj_quantization_solve": "the exact quantization condition, ROADMAP items 5, 10 and 19",
    "alphabeta_extract": "the corrected gap width, ROADMAP item 9",
    "crossing_Q": "the oracle side of acceptance criterion 07",
    "sin2_vacuum_exact": "the DomainError of lame_saddles at m = 0 names it",
    "TransSeries": "bench/tracer.py wraps it by name, in SERIES_CLASSES",
}
# exports that left the package: test-only references now under tests/
# (references.py, jacobi_reference.py), and two that had no reader at all
REMOVED = (
    "barrier_top", "transseries_substitute", "saddle_series", "bs_invert_strong",
    "p_inst_from_zjj", "lame_energy_series", "wronskian_defect", "barrier_top_a0",
)


def _exports() -> dict[str, list[str]]:
    """Each package module's __all__, read from its source."""
    out = {}
    for path in sorted(PKG_DIR.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                out[path.stem] = ast.literal_eval(node.value)
    return out


def _loaded_names(tree) -> set[str]:
    """Names and attributes loaded in ``tree``, except inside a def or class
    of the same name: a recursive call or a method is not a reader."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != owner:
            found.add(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr != owner:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_every_export_has_a_reader():
    # an export that only the tests call is a test reference and lives under
    # tests/; an export that nothing calls is dead.  A name listed in
    # __all__ is a string there, so its own __all__ entry never counts
    read = set()
    for path in [*sorted(PKG_DIR.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]:
        read |= _loaded_names(ast.parse(path.read_text(), filename=str(path)))
    exports = _exports()
    assert exports
    unread = [f"{mod}.{name}" for mod, names in exports.items() for name in names
              if name not in read and name not in KEEP]
    assert unread == []
    exported = {name for names in exports.values() for name in names}
    assert [name for name in KEEP if name not in exported] == []
    assert [name for name in REMOVED if name in exported] == []


def test_readme_module_table_matches_each_export_list():
    # the package namespace exports only __version__, said under the table
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("| `"):
            rows[line.split("`")[1]] = line
    # a row of a module that no longer exists is stale
    assert sorted(set(rows) - {path.stem for path in PKG_DIR.glob("*.py")}) == []
    exports = _exports()
    del exports["__init__"]
    missing = [f"{mod}.{name}" for mod, names in exports.items() for name in names
               if f"`{name}`" not in rows.get(mod, "")]
    assert missing == []
    assert [(mod, name) for mod, row in rows.items() for name in REMOVED
            if f"`{name}`" in row] == []


def _tracer_names() -> dict:
    """The literal name tables of bench/tracer.py, and SPAN_ATTRS's keys."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("SERIES_CLASSES", "SPAN_MODULES", "COUNTED_FUNCTIONS"):
                out[name] = ast.literal_eval(node.value)
            elif name == "SPAN_ATTRS":
                out[name] = [ast.literal_eval(key) for key in node.value.keys]
    return out


def test_every_name_the_tracer_wraps_resolves():
    # the tracer looks these names up with getattr and import_module, so a
    # name deleted from the package would crash every traced benchmark run
    names = _tracer_names()
    assert set(names) == {"SERIES_CLASSES", "SPAN_MODULES", "COUNTED_FUNCTIONS", "SPAN_ATTRS"}
    for cls_name in names["SERIES_CLASSES"]:
        assert inspect.isclass(getattr(series, cls_name, None)), cls_name
    for short in names["SPAN_MODULES"]:
        importlib.import_module(f"mathieu_resurgence.{short}")
    qualified = [f"{short}.{fn}" for short, fns in names["COUNTED_FUNCTIONS"].items()
                 for fn in fns] + names["SPAN_ATTRS"]
    for full in qualified:
        short, fn = full.split(".")
        mod = importlib.import_module(f"mathieu_resurgence.{short}")
        assert inspect.isfunction(getattr(mod, fn, None)), full


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call",
    [
        (actions.action_leading, NAN),
        (actions.action_leading, INF),
        (actions.action_leading_derivative, NAN),
        (actions.action_leading_derivative, INF),
        # the tests' barrier-top reference keeps the same domain check
        (barrier_top_a0, NAN),
        (barrier_top_a0, INF),
        (widths.general_width_leading, 0.3, NAN),
        (widths.general_width_leading, 0.3, INF),
        (widths.general_width_leading, 0.0, -0.5),
        (widths.general_width_leading, -0.3, -0.5),
        (widths.general_width_leading, NAN, -0.5),
        (spectral.zjj_quantization_solve, 0.1, -1, 0.3),
        (spectral.zjj_quantization_solve, 0.1, 0, NAN),
        (spectral.zjj_quantization_solve, 0.1, 0, INF),
        (spectral.zjj_quantization_solve, 0.1, 0, 0.3, 0),
        # the splitting starts at q^N: a shorter series is a short request
        (spectral.alphabeta_extract, 3, 2),
        (widths.large_order_prediction, -1, 5),
        (widths.large_order_prediction, 0, -3),
        # about 1e386: past the double range of the float it returns
        (widths.large_order_prediction, 0, 400),
        (charvalues.char_a, -1, 3),
        (charvalues.char_b, -2, 3),
        (charvalues.char_a, 1, -1),
        # a non-integer N has no resonant harmonic to correct N^2
        (charvalues.char_a, 1.5, 3),
        (charvalues.char_b, 1.5, 3),
        (dunham.well_action_series, -1, 3),
        (dunham.well_action_series, 1, -1),
        (dunham.high_action_series, 1, -1),
        (benderwu.richardson, [], 1),
        (benderwu.richardson, [1.0, 0.5, 0.25], -1),
        (zerodim.sin2_vacuum_exact, -1),
        (zerodim.borel_lateral_check, Fraction(1, 4), []),
        (zerodim.exact_relation_check, NAN, range(8, 12, 4)),
        # a non-finite potential scale would never end the Sturm bisection
        (oracle.band_edges, 1.0, 2, oracle.HillConfig(potential_scale=NAN)),
        (oracle.band_edges, 1.0, 2, oracle.HillConfig(potential_scale=INF)),
        (oracle.band_edges, 1.0, 2, oracle.HillConfig(dps=0)),
        (oracle.band_edges, 1.0, 2, oracle.HillConfig(truncation=9.5)),
        (oracle.band_edges, 0.5, 1.5),
        (oracle.width_num, 0.5, 1.5, "band"),
    ],
    ids=lambda call: f"{call[0].__name__}{call[1:]}",
)
def test_entry_points_reject_arguments_outside_their_domain(call):
    # NaN and infinity fail the range checks instead of running an
    # iteration to its cap or coming back as a number
    fn, *args = call
    with pytest.raises(DomainError):
        fn(*args)
