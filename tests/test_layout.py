"""Source-layout rules, checked with ``ast`` over the package and the benchmark.

1. Every top-level function or class, and every public method, defined in
   ``src/voxaff`` is named somewhere in ``src/voxaff`` or ``perfbench/``
   outside its own definition: no library code exists that only tests call.
   A method counts as named only through an attribute access (``x.name``),
   not through a bare variable that happens to share its name.
2. No module in ``src/voxaff`` imports a name it never uses.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "voxaff"
PROGRAM_DIRS = (PACKAGE, ROOT / "perfbench")

#: Definitions kept although no program path calls them.
ALLOWED_UNCALLED = {
    # Paper metrics (Chamfer, F-score, point clouds from occupancy) stay
    # part of the library's metric set.
    "metrics.fscore",
    "metrics.extract_pointcloud",
    # The finite-difference oracle behind the analytic-gradient gate.
    "netcore.gradient_check",
    # The scalar camera model: the reference that the camera round-trip
    # gate and the vectorised ``unproject_pixels`` are checked against.
    "geometry.unproject_pixel",
    "geometry.project_point",
    # Inverse of ``viewpoint_to_dict``; the round trip pins the viewpoint
    # records that ``trace.json`` holds.
    "geometry.viewpoint_from_dict",
    # Builders from unsorted entries: the metric-oracle and view-selection
    # gates and the fusion unit tests make their inputs with them.
    "voxel.SparseVoxelGrid.from_entries",
    "voxel.AffordanceHeatmap.from_entries",
}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree: ast.Module):
    """(qualified name, node) of top-level defs and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, line, is_attribute) of every identifier and attribute access."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def test_no_library_code_without_a_program_caller():
    trees = {
        path: _parse(path) for root in PROGRAM_DIRS for path in sorted(root.glob("*.py"))
    }
    refs = collections.defaultdict(list)
    for path, tree in trees.items():
        for name, line, is_attribute in _references(tree):
            refs[name].append((path, line, is_attribute))
    uncalled, defined = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            is_method = "." in qualname
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            used = any(
                not (other == path and start <= line <= node.end_lineno)
                and (is_attribute or not is_method)
                for other, line, is_attribute in refs[name]
            )
            key = f"{path.stem}.{qualname}"
            defined.add(key)
            if not used and key not in ALLOWED_UNCALLED:
                uncalled.append(key)
    assert not uncalled, f"defined but never named by the program: {uncalled}"
    assert ALLOWED_UNCALLED <= defined, f"stale allowlist: {ALLOWED_UNCALLED - defined}"


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"imported but never used: {unused}"
