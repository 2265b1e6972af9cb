"""The README's command-line walkthrough, run as written.

Each fenced block of README.md that starts with a `$ eprbm ...` line is
one command and the text it prints. The commands run in order through
main() in a temporary directory, and each one's standard output must read
as its block: line for line, where a `...` line stands for any run of
lines, none included.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from eprbm.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"
_COMMAND_BLOCK = re.compile(
    r"^```\n\$ eprbm ([^\n]*)\n(.*?)^```$", re.MULTILINE | re.DOTALL
)


def walkthrough() -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) for every command block of the README, in order."""
    return [
        (shlex.split(command), printed.splitlines())
        for command, printed in _COMMAND_BLOCK.findall(README.read_text())
    ]


def reads_as(printed: list[str], expected: list[str]) -> bool:
    """Whether printed matches expected, a `...` line matching any run of lines."""
    if not expected:
        return not printed
    if expected[0] == "...":
        return any(reads_as(printed[i:], expected[1:]) for i in range(len(printed) + 1))
    if not printed or printed[0] != expected[0]:
        return False
    return reads_as(printed[1:], expected[1:])


def test_reads_as_skips_only_at_ellipsis():
    assert reads_as(["a", "b", "c"], ["a", "...", "c"])
    assert reads_as(["a", "c"], ["a", "...", "c"])
    assert not reads_as(["a", "b", "c"], ["a", "c"])
    assert not reads_as(["a", "b"], ["a", "...", "c"])
    assert not reads_as(["a", "b", "x"], ["a", "b"])


def test_walkthrough_lists_the_four_commands():
    commands = [argv[0] for argv, _ in walkthrough()]
    assert commands == ["simulate", "train", "eval", "diagnose"]


@pytest.mark.slow
def test_walkthrough_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, expected in walkthrough():
        assert main(argv) == EXIT_OK, argv
        captured = capsys.readouterr()
        printed = captured.out.splitlines()
        assert reads_as(printed, expected), (argv, printed)
        assert captured.err == ""
