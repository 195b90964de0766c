import ast
from pathlib import Path

import mathieu_resurgence

PKG_DIR = Path(mathieu_resurgence.__file__).resolve().parent


def test_library_code_has_no_assert():
    # structural checks must raise typed errors, which survive python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PKG_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
