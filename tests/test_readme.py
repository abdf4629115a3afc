"""The README's library sketch runs, and each line that ends in a
``# <integer>`` comment evaluates to that integer."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
CHECKED = re.compile(r"#\s*(-?\d+)\s*$")


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_library_sketch_runs_and_its_values_hold():
    blocks = _python_blocks(README.read_text())
    assert blocks, "README.md has no fenced python block"
    checked = 0
    for block in blocks:
        lines = block.splitlines()
        namespace = {}
        for stmt in ast.parse(block).body:
            match = CHECKED.search(lines[stmt.end_lineno - 1])
            if match is None:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                     namespace)
                continue
            assert isinstance(stmt, ast.Expr), (
                f"README.md line {stmt.lineno}: a checked line must be an "
                f"expression"
            )
            value = eval(compile(ast.Expression(stmt.value), "README.md",
                                 "eval"), namespace)
            assert value == int(match.group(1)), (
                f"README.md sketch line {stmt.lineno}: "
                f"{lines[stmt.lineno - 1].strip()!r} gives {value!r}"
            )
            checked += 1
    assert checked, "no line of the sketch ends in a '# <integer>' comment"
