"""The commands README.md documents under ``## CLI`` still run.

Each ``fuzznorm`` line of the section's ``sh`` block (continuation
lines joined) goes through ``cli.main`` in process. It must end with a
verdict, exit 0, 1 or 2, and exit 1 where its comment says ``# exit 1``,
so a renamed or dropped flag cannot leave a documented command broken.
"""

import re
import shlex
from pathlib import Path

import pytest

from fuzznorm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_commands() -> list:
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("fuzznorm ")]


def test_the_section_lists_commands():
    assert len(cli_commands()) >= 5


@pytest.mark.parametrize("line", cli_commands())
def test_documented_command_runs(capsys, line):
    argv = shlex.split(line, comments=True)[1:]
    code = main(argv)
    assert code in (0, 1, 2), capsys.readouterr().err
    if "# exit 1" in line:
        assert code == 1
