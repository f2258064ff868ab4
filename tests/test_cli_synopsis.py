"""The README's command-line synopsis lists exactly the options each
subcommand's parser registers."""

import argparse
import re
from pathlib import Path

from blindqc.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_flags() -> dict[str, set[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    flags: dict[str, set[str]] = {}
    command = None
    for line in block.splitlines():
        head = re.match(r"blindqc (\w+)", line)
        if head:
            command = head.group(1)
            flags[command] = set()
        flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def registered_flags() -> dict[str, set[str]]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for action in parser._actions
               for opt in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }


def test_synopsis_flags_are_the_registered_options():
    assert documented_flags() == registered_flags()
