"""The benchmark tracer patches lscat by name: every name it lists must
resolve, or a traced run fails far from the change that renamed it.

``perfbench/tracer.py`` is read as text, not imported or executed.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
