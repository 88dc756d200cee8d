"""The library's modules import one another in layers.

Read with ``ast`` from the relative imports of ``src/panfuse``, at any
depth of a module: the import graph has no cycle, and only the command
line imports the training module, so inference never runs code from it.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

LIBRARY = sorted((Path(__file__).resolve().parents[1] / "src" / "panfuse").glob("*.py"))


def imported_modules(path):
    """The sibling modules that ``path`` imports relatively."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:  # from .affinity import x
                modules.add(node.module.split(".")[0])
            else:  # from . import container
                modules.update(alias.name.split(".")[0] for alias in node.names)
    return modules


GRAPH = {path.stem: imported_modules(path) for path in LIBRARY}


def test_every_import_names_a_module_of_the_library():
    assert set().union(*GRAPH.values()) <= set(GRAPH)


def test_the_import_graph_has_no_cycle():
    try:
        tuple(TopologicalSorter(GRAPH).static_order())
    except CycleError as e:
        raise AssertionError(f"import cycle: {' -> '.join(e.args[1])}") from None


def test_only_the_command_line_imports_training():
    assert sorted(name for name, imports in GRAPH.items() if "train" in imports) == ["cli"]
