"""Static checks of the package source with the standard library's ``ast``:
no module under ``src/freeprod`` imports a name it never uses."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "freeprod"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    """(bound name, line) of every import in the module, at any depth,
    except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _names(node):
    """The names that ``node`` reads, with quoted annotations parsed."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _names(ast.parse(sub.value, mode="eval"))


def _used(tree):
    """Every name the module reads outside its string constants, the names
    in its annotations (quoted or not), and the entries of ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_names(node.returns))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_every_module_is_checked():
    assert {"__init__.py", "freeword.py", "matmodel.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_unused_imports(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    used = _used(tree)
    unused = [f"{module.name}:{line} {name}" for name, line in _imports(tree)
              if name not in used]
    assert not unused, unused


def test_an_unused_import_is_found():
    """The check sees a name imported and then only mentioned in a string,
    and counts quoted annotations and ``__all__`` as uses."""
    tree = ast.parse("from x import a, b, c, d\n"
                     "__all__ = ['d']\n"
                     "def f(p: 'b') -> 'c':\n"
                     "    return 'a'\n")
    assert [name for name, _ in _imports(tree) if name not in _used(tree)] == ["a"]
