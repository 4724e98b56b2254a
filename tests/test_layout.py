"""Source-layout rules, checked with ``ast`` over the package and the program
paths that use it (``src/voxaff``, ``perfbench/`` and ``tools/``).

1. Every top-level function or class, and every public method, defined in
   ``src/voxaff`` is named somewhere on a program path outside its own
   definition: no library code exists that only tests call.  A method
   counts as named only through an attribute access (``x.name``), not
   through a bare variable that happens to share its name.
2. No module in ``src/voxaff`` imports a name it never uses.
3. Every parameter in ``src/voxaff`` that defaults to ``None`` is left out
   by at least one direct program call, so no ``None`` fallback runs only
   under tests.  A function that a program names other than as a callee
   (``trainer = netcore.train_structure``) may be called indirectly, so
   it counts as leaving every default out.
4. In ``src/voxaff`` only ``errors.py`` calls ``json.dump`` or
   ``json.load`` (or their string forms), so every artifact is written and
   read by the record layer; and no ``except`` clause outside its guard,
   ``errors.malformed``, names a builtin exception that a malformed record
   raises, so each record is refused in one place.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "voxaff"
PROGRAM_DIRS = (PACKAGE, ROOT / "perfbench", ROOT / "tools")


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


def _program_trees() -> dict:
    return {path: _parse(path) for root in PROGRAM_DIRS for path in sorted(root.glob("*.py"))}


def test_no_library_code_without_a_program_caller():
    trees = _program_trees()
    refs = collections.defaultdict(list)
    for path, tree in trees.items():
        for name, line, is_attribute in _references(tree):
            refs[name].append((path, line, is_attribute))
    uncalled = []
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
            if not used:
                uncalled.append(f"{path.stem}.{qualname}")
    assert not uncalled, f"defined but never named by the program: {uncalled}"


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


def _functions(tree: ast.Module):
    """(function node, is_method) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, True


def _none_defaults(fn: ast.FunctionDef, is_method: bool):
    """(name, positional index or None) of each parameter defaulting to None.

    The index counts the arguments a call passes, so a method's ``self``
    (or ``cls``) is skipped.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    for arg, default in pairs:
        if isinstance(default, ast.Constant) and default.value is None:
            index = positional.index(arg) - skip if arg in positional else None
            yield arg.arg, index


def _name(node: ast.Name | ast.Attribute) -> str:
    return node.id if isinstance(node, ast.Name) else node.attr


def _omits(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether ``call`` may leave parameter ``name`` out (a starred
    argument or ``**kwargs`` may, so it counts as leaving it out)."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    if index is not None and len(call.args) > index:
        return False
    return all(k.arg != name for k in call.keywords)


def test_none_defaults_are_left_out_by_a_program_call():
    trees = _program_trees()
    named = (ast.Name, ast.Attribute)
    calls, values = collections.defaultdict(list), collections.defaultdict(list)
    for path, tree in trees.items():
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, named):
                calls[_name(node.func)].append((path, node))
            elif isinstance(node, named) and id(node) not in callees:
                values[_name(node)].append((path, node.lineno))
    flagged = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, is_method in _functions(trees[path]):

            def outside(other, line):
                return not (other == path and fn.lineno <= line <= fn.end_lineno)

            if any(outside(other, line) for other, line in values[fn.name]):
                continue
            direct = [call for other, call in calls[fn.name] if outside(other, call.lineno)]
            for name, index in _none_defaults(fn, is_method):
                if not any(_omits(call, name, index) for call in direct):
                    flagged.append(f"{path.stem}.{fn.name}({name}=None)")
    assert not flagged, f"None defaults that every program call overrides: {flagged}"


#: The builtin exceptions that only ``errors.malformed`` may catch.
MALFORMED = {"AttributeError", "KeyError", "OverflowError", "TypeError", "ValueError"}


def _handled(handler: ast.ExceptHandler) -> set:
    """The names an ``except`` clause catches."""
    if handler.type is None:
        return set()
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {_name(node) for node in nodes if isinstance(node, (ast.Name, ast.Attribute))}


def test_records_are_written_read_and_refused_in_the_record_layer():
    flagged = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        guard = {
            id(node)
            for fn in tree.body
            if path.name == "errors.py" and getattr(fn, "name", None) == "malformed"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and node.func.attr in ("dump", "dumps", "load", "loads")
                and path.name != "errors.py"
            ):
                flagged.append(f"{path.name}:{node.lineno} json.{node.func.attr}")
            elif isinstance(node, ast.ExceptHandler) and id(node) not in guard:
                caught = sorted(_handled(node) & MALFORMED)
                if caught:
                    flagged.append(f"{path.name}:{node.lineno} except {', '.join(caught)}")
    assert not flagged, f"records handled outside errors.py's record layer: {flagged}"
