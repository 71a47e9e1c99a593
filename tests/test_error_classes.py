"""One error class per exit code: ``errors.py`` defines ``DataError`` (exit 1)
and ``UsageError`` (exit 2), siblings, and no other module of the package
defines an exception class, so that no third kind of error can grow back."""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import collabmarket
from collabmarket.errors import DataError, UsageError

# The source of the package the tests import.
PACKAGE = sorted(Path(collabmarket.__file__).parent.glob("*.py"))
ERRORS = Path(collabmarket.__file__).parent / "errors.py"

# The names a class derives from when it is an exception: the built-in
# exceptions and the package's two classes; any other name ending in
# ``Error`` or ``Exception`` (``json.JSONDecodeError``, ``csv.Error``) counts too.
_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_exception(base: ast.expr) -> bool:
    name = _base_name(base)
    return name in _EXCEPTIONS or name.endswith(("Error", "Exception"))


def test_one_error_class_per_exit_code():
    tree = ast.parse(ERRORS.read_text(encoding="utf-8"))
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == [
        "DataError", "UsageError",
    ]
    assert not issubclass(UsageError, DataError) and not issubclass(DataError, UsageError)
    defined = sorted(
        f"{path.name}: {node.name}"
        for path in PACKAGE
        if path != ERRORS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(map(_is_exception, node.bases))
    )
    assert not defined, "exception classes outside errors.py: " + ", ".join(defined)
