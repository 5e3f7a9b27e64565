"""The README's examples run as written."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

from zimin import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, lang: str) -> str:
    text = README.read_text()
    section = text[text.index(heading) :]
    start = section.index(f"```{lang}\n") + len(f"```{lang}\n")
    return section[start : section.index("```", start)]


def test_library_in_one_minute_comments_are_the_results():
    """Each line of the block whose comment is a Python literal evaluates
    to a value whose repr is that comment."""
    block = _block("## Library in one minute", "python")
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


def _cli_examples():
    """(argv, expected stdout lines or None) for each ``$ zimin`` line of
    the CLI section's shell block; a command with a ``# comment`` has no
    expected output."""
    examples = []
    for line in _block("## CLI", "sh").splitlines():
        if line.startswith("$ "):
            command, hash_, _ = line[2:].partition("#")
            examples.append((shlex.split(command)[1:], None if hash_ else []))
        elif examples[-1][1] is not None:
            examples[-1][1].append(line)
    return examples


def _stdout_pattern(lines):
    """A regex for the output lines, where a line ``...`` stands for any
    number of lines."""
    return "".join("(?:.*\n)*?" if line == "..." else re.escape(line) + "\n" for line in lines)


def test_cli_examples_print_what_they_show(capsys):
    """Each example of the CLI block, run in process, answers (exit 0 or
    1) and prints the lines shown under it."""
    examples = _cli_examples()
    assert len(examples) == 14
    for argv, expected in examples:
        assert cli.main(argv) in (0, 1), argv
        out = capsys.readouterr().out
        if expected is not None:
            assert re.fullmatch(_stdout_pattern(expected), out), (argv, out)
