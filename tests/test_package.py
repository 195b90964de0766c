import ast
from pathlib import Path

import mathieu_resurgence

PKG_DIR = Path(mathieu_resurgence.__file__).resolve().parent


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
    # the package depends on mpmath alone: both oracles, the Hill matrix and
    # the Frobenius monodromy, run on the standard library and mpmath
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
