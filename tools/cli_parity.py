"""Compare what the CLI prints in two checkouts of this repository.

    python3 tools/cli_parity.py BASE_ROOT NEW_ROOT

Takes every ``$ zimin`` example of BASE_ROOT's README CLI block and every
step of BASE_ROOT's ``.github/workflows/tests.yml`` that neither installs
a package nor runs pytest, runs each in both checkouts, and lists each
command whose exit code, stdout or stderr differ.  In a checkout,
``zimin`` is ``python3 -m zimin.cli`` on that checkout's ``src/``, and a
workflow step runs as a ``bash -eo pipefail`` script from its root, as
CI runs it.  Exits 1 if any command differs, else 0.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


def readme_commands(root: Path) -> list:
    text = (root / "README.md").read_text()
    section = text[text.index("## CLI") :]
    block = section[section.index("```sh\n") + 6 :]
    block = block[: block.index("```")]
    return [
        shlex.join(shlex.split(line[2:].partition("#")[0]))
        for line in block.splitlines()
        if line.startswith("$ ")
    ]


def workflow_steps(root: Path) -> list:
    """(name, script) of each step with a ``run:``, without pip installs."""
    steps, name, body = [], None, None
    for line in (root / ".github/workflows/tests.yml").read_text().splitlines():
        stripped = line.strip()
        if body is not None and line.startswith(" " * 10):
            body.append(line[10:])
            continue
        if body is not None:
            steps.append((name, body))
            body = None
        if stripped.startswith("- name:"):
            name = stripped.removeprefix("- name:").strip()
        elif stripped.startswith("run:"):
            command = stripped.removeprefix("run:").strip()
            body = [] if command == "|" else [command]
    if body is not None:
        steps.append((name, body))
    return [
        (name, "\n".join(line for line in body if "pip install" not in line))
        for name, body in steps
        if not any("pytest" in line for line in body)
    ]


def run(root: Path, shim: str, script: str):
    env = {
        **os.environ,
        "PATH": f"{shim}{os.pathsep}{os.environ['PATH']}",
        "PYTHONPATH": str(root / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        ["bash", "-eo", "pipefail", "-c", script],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main(argv) -> int:
    base, new = (Path(arg).resolve() for arg in argv)
    commands = [(cmd, cmd) for cmd in readme_commands(base)] + workflow_steps(base)
    with tempfile.TemporaryDirectory() as shim:
        script = Path(shim, "zimin")
        script.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m zimin.cli "$@"\n')
        script.chmod(0o755)
        differ = 0
        for name, command in commands:
            a, b = run(base, shim, command), run(new, shim, command)
            fields = [f for f, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
            print(f"{'DIFFER ' + ','.join(fields) if fields else 'same'}: {name}  (exit {a[0]})")
            differ += bool(fields)
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
