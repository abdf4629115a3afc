"""Every public module-level function and class of ``src/lscat`` is
reached by the system: another function of the package uses it
(``__init__.py`` only re-exports and does not count), or the benchmark,
README.md, docs/FORMAT.md or the acceptance suite names it.  A helper
that only unit tests call lives in the test module that calls it.

A use is a ``Name``, ``Attribute`` or import alias of the parsed source,
so comments and docstrings are not uses; the external files are searched
as text for the whole word.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXTERNAL = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md",
            ROOT / "docs" / "FORMAT.md", ROOT / "tests" / "test_acceptance.py"]
USE = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def test_every_public_name_is_reached_outside_unit_tests():
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "lscat").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)  # a def does not reach itself
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not own.startswith("_"):
                defined[own] = path.stem
            used |= {getattr(n, USE[type(n)]) for n in ast.walk(node)
                     if type(n) in USE} - {own}
    text = "\n".join(p.read_text() for p in EXTERNAL)
    unreached = sorted(f"{module}.{name}" for name, module in defined.items()
                       if name not in used
                       and not re.search(rf"\b{name}\b", text))
    assert unreached == [], f"only unit tests reach: {unreached}"
