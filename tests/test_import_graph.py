"""Every ``sathub`` module imports at its top, and the modules import one
another without a cycle."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "sathub").glob("*.py"))
MODULES = {path.stem for path in SOURCES}


def tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def imports_in_functions(path):
    """(file, function, line) of each import statement inside a function."""
    found = []
    for node in ast.walk(tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((path.name, node.name, inner.lineno))
    return found


def relative_imports(path):
    """The ``sathub`` modules that ``path`` imports with ``from .x import`` or
    ``from . import x``."""
    found = set()
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names if alias.name in MODULES)
    return found


def cycle(graph):
    """One import cycle as a list of modules (first repeated last), or None."""
    state = {}  # module -> "open" while on the path, "done" after

    def visit(module, path):
        state[module] = "open"
        for target in sorted(graph[module]):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                found = visit(target, path + [target])
                if found:
                    return found
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            found = visit(module, [module])
            if found:
                return found
    return None


def test_no_import_inside_a_function():
    assert SOURCES
    assert [found for path in SOURCES for found in imports_in_functions(path)] == []


def test_the_module_import_graph_has_no_cycle():
    graph = {path.stem: relative_imports(path) - {path.stem} for path in SOURCES}
    assert graph["solving"] >= {"dpll", "client"}
    assert graph["client"] <= {"wire", "cnf"}
    assert cycle(graph) is None


def test_the_cycle_check_finds_a_cycle():
    assert cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert cycle({"a": {"b"}, "b": set()}) is None
