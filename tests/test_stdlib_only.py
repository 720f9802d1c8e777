"""The package imports nothing outside the Python standard library."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "sathub").glob("*.py"))


def absolute_imports(path):
    """Top-level module names of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_stdlib_or_sathub():
    assert SOURCES
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name != "sathub" and name not in sys.stdlib_module_names
    }
    assert not foreign
