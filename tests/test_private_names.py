"""Every module-level private name in the package has a caller.

A private function, class or constant is reached only from inside the
package, so one that no other place in ``src/eppsim`` names is dead code.
"""

import ast
from pathlib import Path

import eppsim

SOURCES = sorted(Path(eppsim.__file__).parent.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined_names(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def used_names(stmt: ast.stmt) -> set[str]:
    """The names a statement reads: as a variable, an attribute, an
    imported name or a string (``getattr``, ``setattr``)."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_private_module_name_has_a_caller():
    # a name counts as used only from another statement than the one that
    # defines it, so a function that only calls itself is dead too
    statements = [(path.name, stmt) for path in SOURCES
                  for stmt in ast.parse(path.read_text()).body]
    used = [used_names(stmt) for _, stmt in statements]
    dead = [
        f"{module}: {name}"
        for k, (module, stmt) in enumerate(statements)
        for name in filter(is_private, defined_names(stmt))
        if not any(name in names for j, names in enumerate(used) if j != k)
    ]
    assert dead == []
