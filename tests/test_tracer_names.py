"""The benchmark tracer patches lscat by name, and the benchmark's
workloads import and call it by name: every such name must resolve, or a
benchmark run fails far from the change that renamed it.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` are read as text,
not imported or executed.  The tracer wraps a function at each module
that imports it, so the import sites it relies on are checked here too.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _tracer_tables():
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables["SPANS"], tables["COUNTED"]


def test_every_traced_name_resolves_on_lscat():
    spans, counted = _tracer_tables()
    assert spans and counted
    for key, module, attr in spans:
        owner = importlib.import_module("lscat." + module)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), key
        else:
            assert callable(getattr(owner, attr, None)), key
    for key, module, cls_name, attr in counted:
        cls = getattr(importlib.import_module("lscat." + module), cls_name)
        # the tracer wraps __init__ and re-binds the callable it stores
        assert attr in vars(cls)["__init__"].__code__.co_names, key


def _resolve(module, name):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule


def test_every_benchmark_import_resolves_on_lscat():
    tree = ast.parse(WORKLOADS.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("lscat"):
            for alias in node.names:
                value = _resolve(node.module, alias.name)
                if node.module == "lscat":
                    modules[alias.asname or alias.name] = value
    assert {"category", "cli", "engine", "numeric"} <= set(modules)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            assert hasattr(modules[node.value.id], node.attr), (
                f"{node.value.id}.{node.attr}")


def test_traced_import_sites_share_their_function():
    from lscat import action, category, poset

    assert action.fence_search is poset.fence_search
    assert category.fence_search is poset.fence_search
    assert category.is_contractible_in is poset.is_contractible_in
    assert category.is_G_deformable is action.is_G_deformable


def test_cover_searches_and_catalogue_builds_reach_the_traced_names(
        monkeypatch):
    """The tracer's ``category.min_cover`` and ``category.catalogue_build``
    spans wrap these two module globals, so a private search or an
    uncached build would read 0 there without failing anything else."""
    from lscat import category
    from lscat.action import GroupAction
    from lscat.poset import validate_space

    calls = {"min_cover": 0, "invariant_up_sets": 0}

    def counting(name):
        original = getattr(category, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(category, name, wrapper)

    counting("min_cover")
    counting("invariant_up_sets")
    space = validate_space(["a", "b", "c"], [["c", "a"], ["c", "b"]])
    action = GroupAction.trivial(space)  # its catalogues are cached on it
    queries = [dict(mode="plain"),
               dict(mode="pair", Y=space.subset(["c"]))]
    for query in queries:
        for repeat in range(2):
            before = dict(calls)
            category.cover_category(
                category.CatQuery(space, action=action, **query))
            assert calls["min_cover"] > before["min_cover"], query
            builds = calls["invariant_up_sets"] - before["invariant_up_sets"]
            assert builds == (0 if repeat else 1), (query, repeat)
