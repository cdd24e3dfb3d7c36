"""Static checks of the source with the standard library's ``ast``: no
module under ``src/freeprod`` imports a name it never uses, every private
module-level name it defines is read somewhere in the package, every
module-level table that a function mutates is listed with its bound, the
package's import graph is the listed one, the two trace evaluators share
only listed names, ``ncpart`` has one recursion and every enumeration goes
through it, the test oracles read only the expression layer, and only
``tests/test_cli.py`` starts subprocesses."""

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


def _definitions(tree):
    """(name, line) of every name the module defines at its top level:
    functions, classes and assignment targets, not imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((sub.id, node.lineno) for target in targets for sub in ast.walk(target)
                        if isinstance(sub, ast.Name))


def _private_definitions(tree):
    """(name, line) of every private name the module defines at its top
    level: those whose name starts with one underscore."""
    return ((name, line) for name, line in _definitions(tree)
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
    "expr.py": {
        "_FRACTIONS",  # starts again empty at _TABLE_LIMIT pairs
        "_LF_ATOMS",  # starts again empty at _TABLE_LIMIT pairs
    },
    "freedim.py": {
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


# The package modules that each module imports.  A new edge, above all an
# upward one such as the expression layer reaching into the engine, is a
# decision and goes here.
IMPORT_GRAPH = {
    "__init__": {"expr", "freedim", "freeword", "matmodel", "ncpart", "trigalg"},
    "cli": {"freedim", "freeword", "matmodel", "ncpart", "trigalg"},
    "expr": {"record"},
    "freedim": {"expr", "record"},
    "freeword": {"ncpart", "record", "trigalg"},
    "matmodel": {"freeword", "record", "trigalg"},
    "ncpart": {"record"},
    "record": set(),
    "trigalg": set(),
}


def _package_imports(tree):
    """The ``freeprod`` modules that a module imports, at any depth, by a
    relative import or by the package's name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "freeprod" and not module.startswith("freeprod."):
                    continue
                module = module[len("freeprod."):]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("freeprod."))
    return found


def test_import_graph_is_listed():
    graph = {m.stem: _package_imports(ast.parse(m.read_text(encoding="utf-8")))
             for m in MODULES}
    assert graph == IMPORT_GRAPH


def test_a_package_import_is_found():
    """The check sees relative imports of a module and of names from a
    module, absolute imports by the package's name, and an import inside a
    function, and not ``__future__`` or another package."""
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, freeprod.g\n"
                     "from .a import x\n"
                     "from . import b, c\n"
                     "from .d.e import f\n"
                     "from freeprod import h\n"
                     "from freeprod.i import j\n"
                     "from freeprodx import k\n"
                     "def late():\n"
                     "    from .l import m\n")
    assert _package_imports(tree) == {"a", "b", "c", "d", "g", "h", "i", "l"}


def _runtime_nodes(node):
    """The nodes under ``node`` that run: ``ast.walk`` without annotations."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo.extend(v for v in (value if isinstance(value, list) else [value])
                            if isinstance(v, ast.AST))


def _reachable(tree, start, stop=frozenset()):
    """The items that the function ``start`` of a module reaches by name, a
    method as ``"Class.method"``.  An item is a module-level name (function,
    class, table, constant or import); ``"Class.attr"`` for ``self.attr`` in
    a method of Class, a method or state that a method assigns; or
    ``".attr"`` for an attribute of any other object when a class of the
    module defines ``attr``: what a leg, letter or word offers, not a dict's
    ``get``.  The walk enters functions, a class's ``__new__`` and
    ``__init__``, methods, the values that methods assign to ``self``
    attributes, and ``self.x.m`` as ``K.m`` when a method assigns ``self.x =
    K(...)``.  It does not enter the items in ``stop``, nor annotations."""
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    functions = {n.name: n for n in tree.body
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    top = {name for name, _ in _definitions(tree)} | {name for name, _ in _imports(tree)}
    bodies, types, offered = {}, {}, set()
    for cls in classes.values():
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bodies[f"{cls.name}.{node.name}"] = [(cls.name, node)]
                offered.add(node.name)
                for sub in ast.walk(node):
                    if not isinstance(sub, ast.Assign):
                        continue
                    for target in sub.targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            key = f"{cls.name}.{target.attr}"
                            bodies.setdefault(key, []).append((cls.name, sub.value))
                            offered.add(target.attr)
                            call = sub.value
                            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                                    and call.func.id in classes):
                                types[key] = call.func.id
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                offered.update(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))

    seen, todo = set(), [start]
    while todo:
        item = todo.pop()
        if item in seen:
            continue
        seen.add(item)
        if item in stop:
            continue
        if item in functions:
            entered = [(None, functions[item])]
        elif item in classes:
            entered = bodies.get(f"{item}.__new__", []) + bodies.get(f"{item}.__init__", [])
        else:
            entered = bodies.get(item, [])
        for owner, node in entered:
            for sub in _runtime_nodes(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in top:
                    todo.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    base = sub.value
                    if isinstance(base, ast.Name):
                        if base.id == "self" and owner:
                            todo.append(f"{owner}.{sub.attr}")
                        elif base.id in classes:
                            todo.append(f"{base.id}.{sub.attr}")
                        elif base.id not in top and sub.attr in offered:
                            todo.append("." + sub.attr)
                    elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                          and base.value.id == "self" and f"{owner}.{base.attr}" in types):
                        todo.append(f"{types[f'{owner}.{base.attr}']}.{sub.attr}")
                    elif sub.attr in offered:
                        todo.append("." + sub.attr)
    return seen


# What ``FreeProduct._trace_word`` and ``FreeProduct.trace_bipartite`` may
# both reach within ``freeword``; the walk does not enter them.  Anything
# else that both reach, a memo above all, would let one evaluator shortcut
# through the other, and their cross-check would check nothing.
SHARED_BY_THE_TRACE_EVALUATORS = {
    ".mul", ".trace", ".split",  # a leg's algebra on values
    "FreeProduct.leg",  # a leg by its name
    "TrigLetter", "HaarLetter", "CommLetter", ".value", ".leg",  # letters and what they hold
    "PiValue", ".is_zero", "PI_ONE", "PI_ZERO",  # Q[1/pi] scalars
    "EvaluationLimitError", "FamilySplitError", "UnknownNameError",
}


def _shared(tree, first, second, allowed):
    """What both functions reach beyond ``allowed``."""
    return (_reachable(tree, first, allowed) & _reachable(tree, second, allowed)) - allowed


def test_the_trace_evaluators_share_only_listed_names():
    tree = ast.parse((PACKAGE / "freeword.py").read_text(encoding="utf-8"))
    word, bipartite = "FreeProduct._trace_word", "FreeProduct.trace_bipartite"
    assert _shared(tree, word, bipartite, SHARED_BY_THE_TRACE_EVALUATORS) == set()
    # each side's own tables are seen
    assert {"FreeProduct._tr_memo", "FreeProduct._centered", "_Basis.fold",
            "_Basis.products", "_Basis.expansions"} <= _reachable(tree, word)
    assert {"FreeProduct._letter_traces", "FreeProduct._cumulant", "moments_to_cumulants",
            "weighted_nc", "kreweras"} <= _reachable(tree, bipartite)


def test_a_shared_memo_is_found():
    """The walk follows methods, assigned state, module functions and a
    ``self`` attribute's class; it records a duck-typed call by name, skips
    annotations and dict methods, and stops at the allowed names."""
    tree = ast.parse("_CACHE = {}\n"
                     "class Table:\n"
                     "    def __init__(self):\n"
                     "        self.rows = {}\n"
                     "    def fold(self, w):\n"
                     "        return _CACHE.get(w) or self.rows.get(w)\n"
                     "    def trace(self, w):\n"
                     "        return w\n"
                     "class Evaluators:\n"
                     "    def __init__(self, leg):\n"
                     "        self._memo = {}\n"
                     "        self._table = Table()\n"
                     "        self.leg = leg\n"
                     "    def first(self, w: 'Shared') -> Shared:\n"
                     "        return self._table.fold(w)\n"
                     "    def second(self, w):\n"
                     "        return self._lookup(w) or self.leg.trace(w)\n"
                     "    def _lookup(self, w):\n"
                     "        return self._memo.get(w)\n"
                     "    def third(self, w):\n"
                     "        return helper(self._memo, w)\n"
                     "def helper(memo, w):\n"
                     "    return memo.get(w)\n")
    assert _reachable(tree, "Evaluators.first") == {
        "Evaluators.first", "Evaluators._table", "Table", "Table.fold", "Table.rows", "_CACHE"}
    assert _reachable(tree, "Evaluators.second") == {
        "Evaluators.second", "Evaluators._lookup", "Evaluators._memo", "Evaluators.leg",
        ".trace"}
    assert _reachable(tree, "Evaluators.first", {"Evaluators._table"}) == {
        "Evaluators.first", "Evaluators._table", "Table.fold", "Table.rows", "_CACHE"}
    assert _shared(tree, "Evaluators.first", "Evaluators.second", set()) == set()
    assert _shared(tree, "Evaluators.second", "Evaluators.third", set()) == {"Evaluators._memo"}
    assert _shared(tree, "Evaluators.second", "Evaluators.third", {"Evaluators._memo"}) == set()


def _recursive_functions(tree):
    """The functions of a module, at any depth and named by their dotted
    path, that call themselves: by bare name, or as a method on ``self``
    or ``cls``."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = path + child.name
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(sub, ast.Call) and (
                            isinstance(sub.func, ast.Name) and sub.func.id == child.name
                            or isinstance(sub.func, ast.Attribute) and sub.func.attr == child.name
                            and isinstance(sub.func.value, ast.Name)
                            and sub.func.value.id in ("self", "cls"))
                        for sub in ast.walk(child)):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, path)

    visit(tree, "")
    return found


def _module_attributes(tree, function, module):
    """The attributes that the module-level ``function`` reads off the
    imported module name ``module``."""
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name) and sub.value.id == module}


def test_ncpart_has_one_walk():
    """The open-block rule is walked by one recursion, ``visit_nc``, and
    every enumeration and the CLI's listing go through it."""
    tree = ast.parse((PACKAGE / "ncpart.py").read_text(encoding="utf-8"))
    assert _recursive_functions(tree) == ["visit_nc.place"]
    for name in ("enumerate_nc", "weighted_nc", "linked_nc", "verify_kreweras_interval_lemma"):
        assert "visit_nc" in _reachable(tree, name), name
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert "visit_nc" in set().union(*(_reachable(tree, attr) for attr in
                                       _module_attributes(cli, "cmd_nc_enum", "ncpart")))


def test_a_second_recursion_is_found():
    """The check names nested recursions by their path, sees a method that
    calls itself on ``self``, and not a call of another function or of a
    same-named method of another object; the CLI's reads off a module are
    followed into it."""
    tree = ast.parse("def walk(n, visit):\n"
                     "    def place(i):\n"
                     "        return visit(i) if i > n else place(i + 1)\n"
                     "    place(1)\n"
                     "def listed(n):\n"
                     "    return walk(n, print)\n"
                     "def fact(k):\n"
                     "    return 1 if k < 2 else k * fact(k - 1)\n"
                     "class Tree:\n"
                     "    def size(self):\n"
                     "        return 1 + sum(c.size() for c in self.kids)\n"
                     "    def depth(self, d):\n"
                     "        return self.depth(d - 1) if d else 0\n")
    assert _recursive_functions(tree) == ["walk.place", "fact", "Tree.depth"]
    cli = ast.parse("import lib\n"
                    "def cmd(args):\n"
                    "    return lib.listed(args.n) or lib.other\n")
    assert _module_attributes(cli, "cmd", "lib") == {"listed", "other"}
    assert "walk" in _reachable(tree, "listed")


# The test oracles of ``tests/test_freedim.py``: the reference evaluators
# and parsers that the engine is checked against.  They stand apart from it:
# of the package, they read only what ``freeprod.expr`` defines.
ORACLES = ("closed_form", "_spliced_factors", "fdim_oracle", "ReferenceParser",
           "reference_tokenize")


def _package_reads(tree, roots):
    """The ``freeprod`` names that the module-level functions and classes
    ``roots`` read, following the module's own functions and classes that
    they read, each with the package module it is taken from."""
    taken, modules = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("freeprod"):
            for alias in node.names:
                if node.module == "freeprod":
                    modules[alias.asname or alias.name] = alias.name
                else:
                    taken[alias.asname or alias.name] = node.module.split(".")[1]
    local = {n.name: n for n in tree.body
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    reads, seen, todo = set(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for sub in _runtime_nodes(local[name]):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in local:
                    todo.append(sub.id)
                elif sub.id in taken:
                    reads.add((sub.id, taken[sub.id]))
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id in modules):
                reads.add((sub.attr, modules[sub.value.id]))
    return reads


def _not_from_expr(reads, trees):
    """The reads that are not of a name ``expr`` defines, or that another
    package module defines again."""
    defined = {module: {name for name, _ in _definitions(tree)} for module, tree in trees.items()}
    return {(name, module) for name, module in reads
            if name not in defined["expr"] or module != "expr" and name in defined[module]}


def test_the_oracles_read_only_the_expression_layer():
    tree = ast.parse((TESTS / "test_freedim.py").read_text(encoding="utf-8"))
    trees = {m.stem: ast.parse(m.read_text(encoding="utf-8")) for m in MODULES}
    reads = _package_reads(tree, ORACLES)
    assert {"parse", "pow2sum", "_tokenize"} <= {name for name, _ in reads}
    assert _not_from_expr(reads, trees) == set()


def test_an_oracle_reading_the_engine_is_found():
    """The check follows the oracles' helpers, sees names taken from a
    package module and read off one, and lets a re-exported name through."""
    tree = ast.parse("from freeprod import expr, freedim\n"
                     "from freeprod.expr import AtomC\n"
                     "from freeprod.freedim import normalize, parse\n"
                     "def oracle(e):\n"
                     "    return helper(e) + expr.fdim(e)\n"
                     "def helper(e):\n"
                     "    return parse(str(AtomC()))\n"
                     "def engine(e):\n"
                     "    return normalize(e), freedim.Normalizer()\n")
    trees = {"expr": ast.parse("from x import Fraction\n"
                               "def fdim(e): pass\n"
                               "def parse(t): pass\n"
                               "class AtomC: pass\n"),
             "freedim": ast.parse("from .expr import parse\n"
                                  "def normalize(e): pass\n"
                                  "class Normalizer: pass\n")}
    assert _package_reads(tree, ["oracle"]) == {
        ("fdim", "expr"), ("parse", "freedim"), ("AtomC", "expr")}
    assert _not_from_expr(_package_reads(tree, ["oracle"]), trees) == set()
    assert _not_from_expr(_package_reads(tree, ["engine"]), trees) == {
        ("normalize", "freedim"), ("Normalizer", "freedim")}
    trees["freedim"] = ast.parse("def parse(t): pass\n")
    assert _not_from_expr(_package_reads(tree, ["oracle"]), trees) == {("parse", "freedim")}
