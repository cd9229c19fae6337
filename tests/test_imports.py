"""Every name a module imports at top level is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module of
the package is parsed, and every name bound by a top-level ``import`` or
``from ... import`` must appear as a name somewhere in the module's code.
``__init__.py`` is exempt, since its imports are the public re-exports.

Likewise every plain local name a function assigns is read somewhere
in that function: a name that only stores is a computation whose result
is thrown away.  Names that start with ``_`` and targets of tuple
unpacking are exempt.

Every module imports only at top level: the package's modules import
one another without a cycle but one, so no import needs to wait inside
a function.  The one is ``two_cat``'s import of ``colimits.BilimitPlan``,
the plan each ``Fin2Cat`` keeps for its bilimit search, made at the foot
of ``two_cat`` once every name ``colimits`` reads from it is defined.

Every ``raise`` in the package raises a ``sigmacat.errors`` class, which
``cli.run`` reports, the private ``_AtCap`` or ``_UsageError`` that their
modules catch, or the ``KeyError`` of a ``name_of_*`` lookup, whose
callers ask only for names they built.  Any other exception would reach
the caller of ``cli.run`` as a traceback.

No module calls ``json.dump`` or ``json.dumps``, nor imports them: every
byte of a report or written document goes through ``io.dumps``.

The traced benchmark run wraps the functions its span groups name
(``GROUPS`` in ``bench/spans.py``) by looking each up in its module, so
every one of them must still be there.
"""

import ast
import importlib
import runpy
from functools import cache
from pathlib import Path

import pytest

from sigmacat import errors

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sigmacat"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@cache
def parsed(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(), module)


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("module", MODULES)
def test_top_level_imports_are_used(module):
    tree = parsed(module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used]
    assert not unused, f"{module} never uses: {', '.join(unused)}"


def unused_locals(tree: ast.Module) -> list[str]:
    """``function.name`` for every plain name assigned in a function and
    never read there, nor declared ``global`` or ``nonlocal``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        outer = {name for node in ast.walk(fn)
                 if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        stored = [t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name)]
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        found += [f"{fn.name}.{name}" for name in dict.fromkeys(stored)
                  if not name.startswith("_") and name not in read | outer]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_assigned_locals_are_read(module):
    unused = unused_locals(parsed(module))
    assert not unused, f"{module} assigns and never reads: {', '.join(unused)}"


def test_an_assigned_local_that_is_never_read_is_flagged():
    tree = ast.parse("def f(xs):\n"
                     "    kept = len(xs)\n"
                     "    dropped = sorted(xs)\n"
                     "    _spare = 0\n"
                     "    a, b = xs\n"
                     "    return kept\n")
    assert unused_locals(tree) == ["f.dropped"]


ALLOWED_RAISES = {name for name, value in vars(errors).items()
                  if isinstance(value, type) and issubclass(value, errors.SigmacatError)} | \
    {"_AtCap", "_UsageError"}


def stray_raises(tree: ast.Module) -> list[str]:
    """``function: exception`` for every ``raise`` outside the allowed set;
    a ``name_of_*`` function may raise ``KeyError`` too."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        allowed = ALLOWED_RAISES | ({"KeyError"} if fn.name.startswith("name_of_") else set())
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc) if exc else "a bare raise"
                if name not in allowed:
                    found.append(f"{fn.name}: {name}")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_raise_is_a_package_error(module):
    stray = stray_raises(parsed(module))
    assert not stray, f"{module} raises outside the error contract: {', '.join(stray)}"


def test_a_raise_outside_the_contract_is_flagged():
    tree = ast.parse("def check(w):\n"
                     "    raise AssertionError(w)\n"
                     "def name_of_cell(k):\n"
                     "    raise KeyError(k)\n"
                     "def parse(doc):\n"
                     "    raise ParseError(doc)\n"
                     "def other(k):\n"
                     "    raise KeyError(k)\n")
    assert stray_raises(tree) == ["check: AssertionError", "other: KeyError"]


JSON_WRITERS = {"dump", "dumps"}


def json_writes(tree: ast.Module) -> list[str]:
    """``line n: json.name`` for every use of ``json.dump`` or
    ``json.dumps``, by attribute or by ``from json import``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in JSON_WRITERS \
                and isinstance(node.value, ast.Name) and node.value.id == "json":
            found.append(f"line {node.lineno}: json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"line {node.lineno}: json.{a.name}"
                      for a in node.names if a.name in JSON_WRITERS]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_reports_are_written_by_io_dumps_alone(module):
    found = json_writes(parsed(module))
    assert not found, f"{module} writes JSON past io.dumps at {', '.join(found)}"


def test_a_json_write_is_flagged():
    tree = ast.parse("import json\n"
                     "from json import dumps as d, loads\n"
                     "from json.encoder import encode_basestring_ascii\n"
                     "def emit(doc, fh):\n"
                     "    json.dump(doc, fh)\n"
                     "    fh.write(json.dumps(doc, indent=2))\n"
                     "    return json.loads(d(doc))\n")
    assert json_writes(tree) == ["line 2: json.dumps", "line 5: json.dump",
                                 "line 6: json.dumps"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_imports_sit_at_top_level(module):
    tree = parsed(module)
    inner = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and node not in tree.body]
    assert not inner, f"{module} imports inside a function at {', '.join(inner)}"


def test_every_benchmark_span_names_a_package_function():
    """``bench/spans.py`` imports only the standard library, so it is run by
    path, without writing anything next to it."""
    groups = runpy.run_path(str(ROOT / "bench" / "spans.py"))["GROUPS"]
    pairs = [pair for group in groups.values() for pair in group]
    missing = [f"sigmacat.{module}.{fn}" for module, fn in pairs
               if not callable(getattr(importlib.import_module(f"sigmacat.{module}"),
                                       fn, None))]
    assert pairs and not missing, f"spans name missing functions: {', '.join(missing)}"


# Top-level functions and classes of the package that nothing in src/ or
# bench/ names, each with the reason it stays in the package rather than
# in a reference module under tests/.
UNCALLED_KEPT = {
    "fincat.empty_category": "the empty category, the unit of the category kit's "
                             "coproducts, beside terminal_category",
    "fixtures.marked_fixtures": "the catalogue of marked 2-categories with their "
                                "expected filteredness, one of the package's fixtures",
    "fixtures.weight_constant_terminal_op": "the weight Δ1 on the walking arrow's dual, "
                                            "one of the package's fixtures",
    "transforms.identity_twofunctor": "the identity 2-functor, the unit of the "
                                      "2-functors the package composes",
}


def named(trees) -> set[str]:
    """Every name the code mentions: names, attributes, imported names,
    and strings that are identifiers, as ``bench/spans.py`` names the
    functions it wraps."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                found.add(node.value)
    return found


def uncalled(modules: dict, users) -> list[str]:
    """``module.name`` for every top-level function or class of
    ``modules`` (name -> tree) that no tree of ``users`` names."""
    used = named(users)
    return [f"{module}.{node.name}" for module, tree in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]


def test_every_package_function_has_a_caller():
    """A function or class that only the tests call belongs under tests/.
    ``__init__`` names what it exports, so an export counts as named."""
    modules = {name[:-3]: parsed(name) for name in MODULES}
    users = [parsed(p.name) for p in PACKAGE.glob("*.py")] + \
        [ast.parse(p.read_text(), p.name) for p in sorted((ROOT / "bench").glob("*.py"))]
    found = uncalled(modules, users)
    assert sorted(found) == sorted(UNCALLED_KEPT), \
        f"no caller in src/ or bench/: {', '.join(sorted(set(found) - set(UNCALLED_KEPT)))}; " \
        f"kept but called: {', '.join(sorted(set(UNCALLED_KEPT) - set(found)))}"


def test_an_uncalled_function_is_flagged():
    module = ast.parse("def called(): pass\n"
                       "def wrapped(): pass\n"
                       "def orphan(): pass\n"
                       "class Orphan: pass\n")
    user = ast.parse("import m\n"
                     "m.called()\n"
                     "GROUPS = [('m', 'wrapped')]\n")
    assert uncalled({"m": module}, [module, user]) == ["m.orphan", "m.Orphan"]


# A memo keeps a result for later calls, and a later call that reads it is
# not charged for building it.  So no memoized function may tick or name a
# meter, nor run a function or class of the package that does: every
# answer charges every build it needs, on the meter of the call.  And no memo may outlive the objects it is kept on: a cache on a
# module-level function, or on a method (kept on the class, for every
# instance), serves every caller in the process.
MEMOS = {"cache", "lru_cache", "cached_property"}
# Module-level caches kept, each with its reason.
MODULE_CACHES_KEPT = {
    "cli.build_parser": "the argument parser, the same for every call of cli.run; "
                        "it builds no answer and reads no input",
}


def memo_name(node) -> str | None:
    """The memo a decorator or a call names, bare, called, or through
    ``functools``, or None."""
    while isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in MEMOS else None


def memoized(tree: ast.Module, module: str) -> list[tuple[str, ast.AST, bool]]:
    """(``module.qualified.name``, definition, whether module-level) of every
    memoized function: decorated with a memo, or passed to one, as in
    ``functools.cache(on_1)``, in the scope that defines it.  A ``cache``
    or ``lru_cache`` outside any function is module-level, and so is a
    module assignment of a memo call."""
    found = []

    def visit(body, prefix: str, in_function: bool):
        wrapped = {arg.id for node in body for call in ast.walk(node)
                   if isinstance(call, ast.Call) and memo_name(call)
                   for arg in call.args if isinstance(arg, ast.Name)}
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kinds = {memo_name(d) for d in node.decorator_list} - {None}
                if kinds or node.name in wrapped:
                    found.append((f"{prefix}{node.name}", node,
                                  not in_function and bool(kinds - {"cached_property"})))
                visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", in_function)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not in_function \
                    and isinstance(node.value, ast.Call) and memo_name(node.value):
                target = node.targets[0] if isinstance(node, ast.Assign) else node.target
                found.append((f"{prefix}{ast.unparse(target)}", node, True))

    visit(tree.body, f"{module}.", False)
    return found


def definitions(trees) -> tuple[dict, dict]:
    """What a call may run, by the name it is called by: each top-level
    function, and each class's ``__init__`` and ``__post_init__``, as
    (definition, class or None); and each method by (class, name)."""
    called, methods = {}, {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called.setdefault(node.name, []).append((node, None))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[(node.name, fn.name)] = fn
                        if fn.name in ("__init__", "__post_init__"):
                            called.setdefault(node.name, []).append((fn, node.name))
    return called, methods


def reached(node, trees) -> list:
    """``node`` and every definition of ``trees`` it runs, transitively:
    the functions and classes it calls by name, as ``f(...)`` or
    ``module.f(...)``, and the methods of its own class it calls on
    ``self``."""
    called, methods = definitions(trees)
    owner = {id(fn): name for (name, _), fn in methods.items()}
    out, todo, seen = [], [(node, owner.get(id(node)))], set()
    while todo:
        node, cls = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id == "self" and (cls, f.attr) in methods:
                todo.append((methods[(cls, f.attr)], cls))
            elif isinstance(f, (ast.Name, ast.Attribute)):
                todo += called.get(f.id if isinstance(f, ast.Name) else f.attr, [])
    return out


def ticking_memos(tree: ast.Module, module: str, trees=None) -> list[str]:
    """The memoized functions that call ``.tick(`` or name a meter, in
    their own body or in a definition of ``trees`` (``tree`` alone by
    default) that they run (``reached``)."""
    def ticks(node) -> bool:
        nodes = list(ast.walk(node))
        names = {getattr(n, field) for n in nodes for field in ("id", "attr", "arg")
                 if isinstance(getattr(n, field, None), str)}
        return any("meter" in name.lower() for name in names) or \
            any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "tick" for n in nodes)
    trees = trees or [tree]
    return [name for name, node, _ in memoized(tree, module)
            if any(ticks(n) for n in reached(node, trees))]


def module_caches(tree: ast.Module, module: str) -> list[str]:
    return [name for name, _, module_level in memoized(tree, module) if module_level]


@pytest.mark.parametrize("module", MODULES)
def test_memos_tick_nothing(module):
    """Nor does any function or class of the package that a memo runs."""
    ticking = ticking_memos(parsed(module), module[:-3], [parsed(m) for m in MODULES])
    assert not ticking, f"{module} memoizes what it charges to a meter: {', '.join(ticking)}"


def test_no_cache_outlives_its_objects_but_the_kept_ones():
    found = [name for module in MODULES for name in module_caches(parsed(module), module[:-3])]
    assert sorted(found) == sorted(MODULE_CACHES_KEPT)


def test_the_memo_scan_reads_every_memo():
    """The scan is not vacuous: it sees the memos of the package, the
    inverse table among them."""
    found = {name for module in MODULES for name, _, _ in memoized(parsed(module), module[:-3])}
    assert {"fincat.FinCat._inverses", "fincat.FinCat._hom_index", "cli.build_parser",
            "colimits.hom_actions.on_1", "colimits.hom_actions.on_2",
            "two_cat.Fin2Cat._bilimit_plan"} <= found


def test_a_ticking_memo_or_a_module_cache_is_flagged():
    tree = ast.parse("import functools\n"
                     "class C:\n"
                     "    @cached_property\n"
                     "    def table(self):\n"
                     "        self.meter.tick()\n"
                     "        return {}\n"
                     "    @cached_property\n"
                     "    def index(self):\n"
                     "        return {}\n"
                     "    @functools.cache\n"
                     "    def shared(self):\n"
                     "        return {}\n"
                     "@functools.lru_cache(maxsize=None)\n"
                     "def parse(text):\n"
                     "    return text\n"
                     "def actions(count):\n"
                     "    def on_1(f):\n"
                     "        count.tick()\n"
                     "    def on_2(x):\n"
                     "        return x\n"
                     "    return functools.cache(on_1), functools.cache(on_2)\n"
                     "def charged(meter):\n"
                     "    @functools.cache\n"
                     "    def read(k):\n"
                     "        return meter\n"
                     "    return read\n"
                     "TABLE = functools.cache(len)\n")
    assert ticking_memos(tree, "m") == ["m.C.table", "m.actions.on_1", "m.charged.read"]
    assert module_caches(tree, "m") == ["m.C.shared", "m.parse", "m.TABLE"]


def test_a_memo_that_runs_a_ticking_definition_is_flagged():
    """A memo is flagged for what the package definitions it runs tick:
    a class's ``__init__`` and what it calls, another module's function,
    and a method called on ``self``; a method of another class that shares
    a name is not followed."""
    tree = ast.parse("class Plan:\n"
                     "    def __init__(self, a):\n"
                     "        self.kernel = Kernel(a)\n"
                     "class Kernel:\n"
                     "    def __init__(self, a):\n"
                     "        self.rows = rows(a)\n"
                     "class Base:\n"
                     "    @cached_property\n"
                     "    def plan(self):\n"
                     "        return Plan(self)\n"
                     "    @cached_property\n"
                     "    def index(self):\n"
                     "        return self.build()\n"
                     "    @cached_property\n"
                     "    def quiet(self):\n"
                     "        return self.tidy()\n"
                     "    def build(self):\n"
                     "        return other.count(self)\n"
                     "    def tidy(self):\n"
                     "        return {}\n"
                     "class Loud:\n"
                     "    def tidy(self, meter):\n"
                     "        meter.tick()\n")
    other = ast.parse("def rows(a):\n"
                      "    a.count.tick()\n"
                      "def count(a):\n"
                      "    return Meter()\n")
    assert ticking_memos(tree, "m") == []
    assert ticking_memos(tree, "m", [tree, other]) == ["m.Base.plan", "m.Base.index"]
