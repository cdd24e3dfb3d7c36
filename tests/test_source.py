"""Static checks of the source with the standard library's ``ast``: no
module under ``src/freeprod`` imports a name it never uses, every private
module-level name it defines is read somewhere in the package, every
module-level table that a function mutates is listed with its bound, and
only ``tests/test_cli.py`` starts subprocesses."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "freeprod"
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


def _private_definitions(tree):
    """(name, line) of every private name the module binds at its top
    level: functions, classes and assignment targets whose name starts
    with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(sub.id, node.lineno) for target in targets for sub in ast.walk(target)
                     if isinstance(sub, ast.Name)]
        else:
            continue
        yield from ((name, line) for name, line in found
                    if name.startswith("_") and not name.startswith("__"))


def _reads(tree):
    """Every name the module reads, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_read():
    trees = {m.name: ast.parse(m.read_text(encoding="utf-8"), filename=str(m))
             for m in MODULES}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [f"{module}:{line} {name}" for module, tree in trees.items()
              for name, line in _private_definitions(tree) if name not in read]
    assert not unread, unread


def test_an_unread_private_name_is_found():
    """The check sees private functions, classes and assignment targets
    that nothing reads, and counts calls, attributes and imports as
    reads; public and dunder names are not its concern."""
    tree = ast.parse("import y\n"
                     "from z import _d\n"
                     "_a, _b = 1, 2\n"
                     "_c: int = _a\n"
                     "__version__ = '1'\n"
                     "public = 3\n"
                     "def _f(): return y._e\n"
                     "def _g(): return _f()\n"
                     "class _H: pass\n"
                     "_e = _d\n")
    read = set(_reads(tree))
    assert [name for name, _ in _private_definitions(tree) if name not in read] == [
        "_b", "_c", "_g", "_H"]


# The module-level tables that some function fills or empties, so that
# they outlive the call and are shared by the whole process, each with what
# bounds it.  Every other module has none.
PROCESS_WIDE_TABLES = {
    "freedim.py": {
        "_FRACTIONS",  # starts again empty at _TABLE_LIMIT pairs
        "_LF_ATOMS",  # starts again empty at _TABLE_LIMIT pairs
        "_PLANS",  # starts again empty at _TABLE_LIMIT shape keys
        "_PLAN_STEPS",  # one per distinct step, slots below _PLAN_MAX_FACTORS: a few hundred
    },
    "freeword.py": {
        "_LETTERS",  # weak values: holds only the letters that something else holds
    },
}

_MUTATORS = {"append", "clear", "extend", "insert", "pop", "popitem", "setdefault",
             "update", "add", "discard", "remove"}


def _mutated_globals(tree):
    """The module-level names that some function of the module mutates: a
    subscript store or delete on the bare name, or a call on it of one of
    ``_MUTATORS``."""
    top = {sub.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
           for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
           for sub in ast.walk(target) if isinstance(sub, ast.Name)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name)):
                found.add(node.value.id)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name)):
                found.add(node.func.value.id)
    return found & top


def test_process_wide_tables_are_listed():
    """A new module-level cache is a decision: it is shared by every caller
    in the process and must say what bounds it, in ``PROCESS_WIDE_TABLES``."""
    for module in MODULES:
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        assert _mutated_globals(tree) == PROCESS_WIDE_TABLES.get(module.name, set()), module.name


def test_a_process_wide_table_is_found():
    """The check sees subscript stores, deletes and mutating calls inside a
    function on a module-level name, and not a local, a read, an attribute's
    table or a mutation at import time."""
    tree = ast.parse("_A, _B, _C, _D, _E, _F = {}, {}, [], set(), {}, []\n"
                     "_F.append(0)\n"
                     "def f(x):\n"
                     "    _A[x] = 1\n"
                     "    local = {}\n"
                     "    local[x] = 2\n"
                     "    x.table[1] = 3\n"
                     "    return _E.get(x)\n"
                     "class K:\n"
                     "    def g(self):\n"
                     "        del _B[0]\n"
                     "        _C.extend(self.items)\n"
                     "        self.cache.update(_E)\n"
                     "    async def h(self):\n"
                     "        _D.add(1)\n")
    assert _mutated_globals(tree) == {"_A", "_B", "_C", "_D"}


def _imports_subprocess(tree):
    return any(isinstance(node, ast.Import) and any(a.name == "subprocess" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "subprocess"
               for node in ast.walk(tree))


def test_only_the_cli_tests_start_subprocesses():
    """A new CLI test calls ``cli.main`` in process (``test_cli.run_main``);
    a fresh interpreter is kept for the checks of the process itself."""
    users = [path.name for path in sorted(TESTS.glob("*.py"))
             if _imports_subprocess(ast.parse(path.read_text(encoding="utf-8")))]
    assert users == ["test_cli.py"]
    assert _imports_subprocess(ast.parse("from subprocess import run"))
    assert not _imports_subprocess(ast.parse("import subprocessing"))
