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
