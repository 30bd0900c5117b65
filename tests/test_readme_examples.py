"""Every ``temperedk`` example in README.md keeps its recorded output.

The examples are the ``sh`` code blocks of the README; a command runs
from a line starting with ``temperedk`` to the next such line or the
end of the block, so quoted payloads may span lines.  Each one is run
through ``cli.main`` and its exit code and stdout are compared with
``readme_examples.json``.  To record the file again after an intended
output change, run ``python tests/test_readme_examples.py --record``.
"""

import io
import json
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from temperedk import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
RECORDED = Path(__file__).resolve().parent / "readme_examples.json"


def readme_commands() -> list[str]:
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        current = None
        for line in block.splitlines():
            if line.startswith("temperedk "):
                current = len(commands)
                commands.append(line)
            elif current is not None and line.strip():
                commands[current] += "\n" + line
    return commands


def run(command: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(shlex.split(command)[1:])
    return {"exit": code, "stdout": out.getvalue()}


EXPECTED = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}


def test_every_example_is_recorded():
    commands = readme_commands()
    assert len(commands) >= 10
    assert sorted(commands) == sorted(EXPECTED)


@pytest.mark.parametrize("command", readme_commands())
def test_readme_example_output(command):
    assert command in EXPECTED, "example not recorded"
    assert run(command) == EXPECTED[command]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    RECORDED.write_text(json.dumps({c: run(c) for c in readme_commands()}, indent=2) + "\n")
