"""Static checks on the package sources, with the standard library's ast.

Every module-level import of a module in src/mordell, the package
__init__ included, is used in that module, and every __all__ entry is
defined there: an unused import is dead weight, and a name exported from
somewhere else hides where it lives.  `from __future__` imports are exempt.
A name listed in __all__ does not count as a use.  An import inside a
function is used in that function: commands import what only they need
there, and such an import must not outlive its use.  No module imports
dataclasses, whose import and class generation cost every process start;
the records are typing.NamedTuple classes (mordell.records).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mordell"
MODULES = sorted(SRC.glob("*.py"))


def _top_level(body):
    """Module-level statements, looking through if/try/with blocks but not
    into functions or classes."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody"):
                yield from _top_level(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield from _top_level(handler.body)


def _bound(node) -> list[str]:
    """Names an import statement binds; none for `from __future__`."""
    if isinstance(node, ast.ImportFrom):
        return [] if node.module == "__future__" else [a.asname or a.name for a in node.names]
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    return []


def _imported(tree) -> dict[str, int]:
    """Bound name -> line of each module-level import."""
    return {name: node.lineno for node in _top_level(tree.body) for name in _bound(node)}


def _defined(tree) -> set[str]:
    """Names bound at module level by def, class or assignment."""
    out = set()
    for node in _top_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def _exported(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _loaded(tree) -> set[str]:
    return {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _loaded(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_function_imports_are_used_in_their_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [
        f"{name} in {fn.name} (line {node.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        for name in _bound(node)
        if name not in _loaded(fn)
    ]
    assert not unused, f"{path.name}: unused function-level imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_does_not_import_dataclasses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert not lines, f"{path.name}: imports dataclasses on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_exports_are_defined_there(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = [name for name in _exported(tree) if name not in _defined(tree)]
    assert not missing, f"{path.name}: __all__ names not defined here {missing}"
