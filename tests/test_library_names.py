"""Every module-level name of the library has a caller in the program.

A name counts as used where an ``ast`` ``Name``, ``Attribute`` or import
alias in ``src/panfuse`` or ``bench`` (its tests aside) refers to it,
outside the name's own definition. A function that only tests call
belongs in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "panfuse").glob("*.py"))
PROGRAM = LIBRARY + sorted(p for p in (ROOT / "bench").glob("*.py")
                           if not p.name.startswith("test_"))


def defined_names(node):
    """The names a module-level statement defines; imports define none here."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
    return names


def test_every_library_name_is_used_by_the_program():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    # Per module-level statement of the program, the names it refers to.
    statements = [(node, referenced_names(node)) for tree in trees.values() for node in tree.body]
    unused = [f"{path.stem}.{name}"
              for path in LIBRARY for node in trees[path].body for name in defined_names(node)
              if not (name.startswith("__") and name.endswith("__"))
              and not any(name in refs for other, refs in statements if other is not node)]
    assert unused == []
