"""The library's modules import one another in layers.

Read with ``ast`` from the relative imports of ``src/panfuse``, at any
depth of a module: the import graph has no cycle, and only the command
line imports the training module, so inference never runs code from it.
Only ``container`` refers to its file writers: every other module hands
its encoded files to ``container.write_files`` or ``write_json``.
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


def referred_names(path):
    """The names that ``path`` uses, binds, reads as attributes or imports."""
    nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {n.name for n in nodes if isinstance(n, ast.alias)})


def test_only_the_container_refers_to_its_file_writers():
    writers = {"write_file", "write_tensor"}
    assert [path.stem for path in LIBRARY if writers & referred_names(path)] == ["container"]
