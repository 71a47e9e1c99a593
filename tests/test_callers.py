"""Every public top-level function and class of the package has a caller in
the package or its scripts, so that code only the tests run cannot grow back
into ``src/``: the tests and the benchmark do not count as callers."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "collabmarket").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# The staged chain that ``cli.run_pipeline`` replaced. No command calls it,
# but the benchmark's tracer (perfbench/tracer.py) wraps each of these by
# name and its own test pins that list, so they leave with the benchmark
# change that drops them. No name may join this set.
TRACER_ONLY = frozenset({
    "attribute_authors", "delta_table", "events_by_sds", "filter_hard_sciences",
    "load_publications", "partition_resolvable", "resolution_report_rows",
    "resolve_publication", "roster_headcounts",
})


def _uses(tree: ast.Module):
    """(top-level statement, name) of each name the module loads or imports."""
    for statement in tree.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield statement, node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield statement, node.attr
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield statement, alias.name


def test_every_public_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + SCRIPTS}
    defined = {
        statement.name: path.name
        for path in PACKAGE
        for statement in trees[path].body
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not statement.name.startswith("_")
    }
    # A definition's own body does not count as its caller.
    used = {
        name
        for tree in trees.values()
        for statement, name in _uses(tree)
        if getattr(statement, "name", None) != name
    }
    unused = sorted(
        f"{module}: {name}"
        for name, module in defined.items()
        if name not in used and name not in TRACER_ONLY
    )
    assert not unused, "no caller outside the tests: " + ", ".join(unused)
