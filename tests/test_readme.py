"""The README's examples run as written."""

from __future__ import annotations

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    text = README.read_text()
    section = text[text.index(heading) :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def test_library_in_one_minute_comments_are_the_results():
    """Each line of the block whose comment is a Python literal evaluates
    to a value whose repr is that comment."""
    block = _python_block("## Library in one minute")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        try:
            ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            continue  # prose, not a result
        assert repr(value) == comment, lines[node.end_lineno - 1]
        checked += 1
    assert checked == 4
