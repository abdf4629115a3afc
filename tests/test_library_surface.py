"""Every public module-level function and class of ``src/lscat``, and
every public method of its classes, is reached by the system: another
function of the package uses it (``__init__.py`` only re-exports and
does not count), or the benchmark, README.md, docs/FORMAT.md or the
acceptance suite names it.  A helper that only unit tests call lives in
the test module that calls it.

A use of a module-level name is a ``Name``, ``Attribute`` or import
alias of the parsed source; a use of a method is an ``Attribute`` of that
name outside the method's own body.  Comments and docstrings are not
uses; the external files are searched as text for the whole word (for a
method, the word after a dot).

The method scan goes by name, so a method that shares its name with one
in use is not seen: ``CriticalValueTable.values`` (dict ``.values()``)
and ``FiniteSpace.comparable`` (``SpaceMap.comparable``) were moved to
the tests by hand.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from lscat.numeric import FIELD_REGISTRY, NUMERIC_CHECKS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for p in sorted((ROOT / "src" / "lscat").glob("*.py"))
           if p.name != "__init__.py"]
EXTERNAL = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md",
            ROOT / "docs" / "FORMAT.md", ROOT / "tests" / "test_acceptance.py"]
USE = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _external_text():
    return "\n".join(p.read_text() for p in EXTERNAL)


def test_every_public_name_is_reached_outside_unit_tests():
    defined, used = {}, set()
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)  # a def does not reach itself
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not own.startswith("_"):
                defined[own] = path.stem
            used |= {getattr(n, USE[type(n)]) for n in ast.walk(node)
                     if type(n) in USE} - {own}
    text = _external_text()
    unreached = sorted(f"{module}.{name}" for name, module in defined.items()
                       if name not in used
                       and not re.search(rf"\b{name}\b", text))
    assert unreached == [], f"only unit tests reach: {unreached}"


def _attributes(node):
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


def test_every_public_method_is_reached_outside_unit_tests():
    methods, used = {}, Counter()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        used += _attributes(tree)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) \
                        and not node.name.startswith("_"):
                    # a method's own body does not reach it
                    used[node.name] -= _attributes(node)[node.name]
                    methods[f"{path.stem}.{cls.name}.{node.name}"] = node.name
    text = _external_text()
    unreached = sorted(q for q, name in methods.items()
                       if used[name] <= 0
                       and not re.search(rf"\.{name}\b", text))
    assert unreached == [], f"only unit tests reach: {unreached}"


def test_every_parameter_of_a_named_function_is_read():
    """A parameter that its function never reads is a flag that does
    nothing.  Lambdas are left out: a callback may take an argument its
    caller's interface fixes."""
    unread = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}({a.arg})" for a in params
                       if a.arg not in read]
    assert unread == [], f"parameters never read: {unread}"


READERS = [*sorted((ROOT / "src" / "lscat").glob("*.py")),
           *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]


def test_every_attribute_set_on_self_is_read():
    """An attribute that a class of ``src/lscat`` sets on ``self`` is read
    somewhere: in the package, a test or the benchmark as a loaded
    attribute ``x.name``, or in README.md or docs/FORMAT.md as the word
    after a dot.  The scan goes by name, like the method scan, so an
    attribute that shares its name with one read elsewhere (a
    ``TheoremReport.space`` beside every other ``.space``) is not seen."""
    stored = {}
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    if isinstance(node, ast.Attribute) \
                            and isinstance(node.ctx, ast.Store) \
                            and getattr(node.value, "id", None) == "self":
                        stored[f"{path.stem}.{cls.name}.{node.attr}"] = \
                            node.attr
    read = {node.attr for path in READERS
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    text = "\n".join(p.read_text() for p in (ROOT / "README.md",
                                              ROOT / "docs" / "FORMAT.md"))
    unread = sorted(q for q, name in stored.items()
                    if name not in read
                    and not re.search(rf"\.{name}\b", text))
    assert unread == [], f"attributes set and never read: {unread}"


def test_only_deform_calls_the_fence_search():
    """Every homotopy question of ``src/lscat`` goes through
    ``poset._deform``: no other function, method or nested function
    calls ``fence_search``, by name or as an attribute."""
    callers = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for fn in ast.walk(top):
                if not isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(
                            node.func, USE.get(type(node.func), ""),
                            None) == "fence_search":
                        callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"poset._deform"}, f"fence_search callers: {callers}"


def test_no_import_inside_a_function():
    """Every import of ``src/lscat`` sits at module level, so the import
    graph between its modules is read from their heads and no call hides
    a cycle."""
    nested = []
    for path in sorted((ROOT / "src" / "lscat").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == [], f"imports inside functions: {nested}"


def _is_literal(node, value):
    return isinstance(node, ast.Constant) and type(node.value) is type(
        value) and node.value == value


def test_no_ledger_row_is_checked_and_ok_by_a_constant():
    """A ledger row reads ok only when a check ran: no
    ``report.hypothesis(...)`` call passes a constant as its ``ok``
    argument, found by its place in ``TheoremReport.hypothesis``, and no
    row of ``engine.verify_index_bound``'s ledger is a dict literal with
    "ok": True."""
    dynamics = ast.parse((ROOT / "src" / "lscat" / "dynamics.py").read_text())
    define = next(fn for fn in ast.walk(dynamics)
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name == "hypothesis")
    place = [arg.arg for arg in define.args.args].index("ok") - 1  # self
    constant = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", None) == "hypothesis":
                ok = node.args[place] if len(node.args) > place else {
                    kw.arg: kw.value for kw in node.keywords}.get("ok")
                if isinstance(ok, ast.Constant):
                    constant.append(f"{path.stem}:{node.lineno}")
    engine = ast.parse((ROOT / "src" / "lscat" / "engine.py").read_text())
    verify = next(fn for fn in ast.walk(engine)
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name == "verify_index_bound")
    for node in ast.walk(verify):
        if isinstance(node, ast.Dict):
            row = {key.value: value for key, value in zip(node.keys,
                                                          node.values)
                   if isinstance(key, ast.Constant)}
            if _is_literal(row.get("ok"), True):
                constant.append(f"engine:{node.lineno}")
    assert constant == [], f"ledger rows that no check wrote: {constant}"


def test_only_numeric_names_the_numeric_checks_and_fixtures():
    """``numeric.NUMERIC_CHECKS`` and ``numeric.FIELD_REGISTRY`` are the one
    place that names a numeric check or field fixture: no string literal
    of ``cli.py`` or ``formats.py`` is one of those names, and ``cli.py``
    imports no numpy."""
    names = {*NUMERIC_CHECKS, *FIELD_REGISTRY}
    trees = {module: ast.parse((ROOT / "src" / "lscat" / f"{module}.py")
                               .read_text())
             for module in ("cli", "formats")}
    named = [f"{module}:{node.lineno} {node.value}"
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in names]
    assert named == []
    imported = set()
    for node in ast.walk(trees["cli"]):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not {m for m in imported if m.split(".")[0] == "numpy"}
