"""Import hygiene of the fialg package, read from the source with ast."""

import ast
from pathlib import Path

import fialg

PACKAGE = Path(fialg.__file__).parent


def imported_names(tree):
    """The names a module binds by its import statements, with the line of
    each; `from __future__` imports are directives, not names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert unused == []


def test_all_lists_exactly_the_public_names_of_the_package():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = {name for name, _ in imported_names(tree)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    public = {name for name in bound if not name.startswith("_")}
    assert len(fialg.__all__) == len(set(fialg.__all__))
    assert set(fialg.__all__) == public
