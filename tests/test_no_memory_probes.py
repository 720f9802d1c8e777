"""Callers use the one memory protocol; no ``getattr``/``hasattr`` asks a
memory which kind it is."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "sathub").glob("*.py"))

MEMORY_METHODS = {
    "reserve_variables", "add_variables", "add_clauses", "add_clause", "add_clause_direct", "alive"
}

# The one fallback left: the benchmark's traced mirror has no ``add_clauses``
# (ROADMAP item 0 empties this set).
ALLOWED = {("circuits.py", "CircuitBuilder.finalize", "add_clauses")}


def probes(path):
    """(file, enclosing qualified name, attribute) of each ``getattr`` or
    ``hasattr`` call in ``path`` that names its attribute as a string."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            found.append((path.name, ".".join(scope), node.args[1].value))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return found


def test_no_memory_is_probed_for_its_kind():
    assert SOURCES
    memory_probes = {
        probe for path in SOURCES for probe in probes(path) if probe[2] in MEMORY_METHODS
    }
    assert memory_probes == ALLOWED
