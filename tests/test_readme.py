"""The README's examples run as written and say what they do.

The "Library quickstart" block is executed, and what its comments claim is
checked on the names it binds.  Every ``subalg ...`` line of the README's
``sh`` blocks is parsed by the command's own parser, so a renamed flag or
subcommand fails here before a reader trips on it; the parser ``subalg``
builds for that one subcommand must read it the same way.
"""

import re
import shlex
from pathlib import Path

import pytest

from subalg.cli import _build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def _blocks(lang: str, text: str = README) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_library_quickstart_does_what_its_comments_say():
    section = README.split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    [block] = _blocks("python", section)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["closure"].dim == 9
    assert names["verdict"].is_maximal
    length = names["length_of_system"](names["short"], names["closure"])
    assert length == 3 == names["params"].k + 1
    bound = names["bound_check"](names["short"])
    assert (bound.bound_holds, bound.nilpotency) == (True, 4)
    assert names["report"].passed


COMMANDS = [
    line
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("subalg ")
]


def test_readme_lists_commands():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    argv = shlex.split(line)[1:]
    args = _build_parser().parse_args(argv)
    assert args.command == argv[0]
    assert vars(_build_parser(argv[0]).parse_args(argv)) == vars(args)
