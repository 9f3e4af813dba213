"""Static checks on the package sources, with the standard library's ast.

Every module-level import of a module in src/mordell (other than the
package __init__, which re-exports) is used in that module, and every
__all__ entry is defined there: an unused import is dead weight, and a name
exported from somewhere else hides where it lives.  `from __future__`
imports are exempt.  A name listed in __all__ does not count as a use.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mordell"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def _imported(tree) -> dict[str, int]:
    """Bound name -> line of each module-level import."""
    out = {}
    for node in _top_level(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


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
def test_module_exports_are_defined_there(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = [name for name in _exported(tree) if name not in _defined(tree)]
    assert not missing, f"{path.name}: __all__ names not defined here {missing}"
