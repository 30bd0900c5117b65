"""The command line parser keeps its recorded structure.

``cli_help.json`` holds the verbs in ``--help`` order with their help
strings and, for each verb's options, the flags, ``required``,
``choices``, ``default``, ``metavar``, ``help`` and the name of the
``type``.  The structure is pinned rather than the ``--help`` text,
whose layout depends on the Python version and the terminal width.
``dest`` is left out, since verbs built by one helper may share one.
To record the file again, run ``python tests/test_cli_help.py --record``.
"""

import argparse
import json
import sys
from pathlib import Path

from temperedk import cli

RECORDED = Path(__file__).resolve().parent / "cli_help.json"


def _option(action: argparse.Action) -> dict:
    return {
        "flags": list(action.option_strings),
        "required": action.required,
        "choices": None if action.choices is None else list(action.choices),
        "default": action.default,
        "metavar": action.metavar,
        "help": action.help,
        "type": None if action.type is None else action.type.__name__,
    }


def structure() -> list:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    verbs = []
    for choice in sub._choices_actions:
        verb_parser = sub.choices[choice.dest]
        verbs.append({"verb": choice.dest, "help": choice.help,
                      "options": [_option(a) for a in verb_parser._actions]})
    return verbs


def test_parser_structure_is_recorded():
    assert structure() == json.loads(RECORDED.read_text())


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    RECORDED.write_text(json.dumps(structure(), indent=2) + "\n")
