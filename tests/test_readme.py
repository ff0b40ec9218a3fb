"""The README's command examples, run in-process against the output it shows.

Every ``$ spherecp ...`` line in README.md is run through ``cli.main``.
The lines shown under it, up to the next command or the end of its
block, must be its output; a shown line ending in `` ...`` matches as a
prefix, and a ``# → X`` comment on the command stands for the single
output line X.  A command shown with no output must still exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from spherecp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv after ``spherecp``, shown output lines) for each README command."""
    examples: list[tuple[list[str], list[str]]] = []
    shown: list[str] | None = None  # output lines of the open command, if any
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ spherecp "):
            arrow = re.search(r"#\s*→\s*(.*)$", line)
            argv = shlex.split(line[2:], comments=True)[1:]
            examples.append((argv, [arrow.group(1)] if arrow else []))
            shown = None if arrow else examples[-1][1]
        elif line.startswith(("```", "$ ")):
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_examples_cover_the_subcommands():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert {"kgroups", "classify", "snf", "cuntz"} <= commands


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[shlex.join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, shown):
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if not shown:
        return
    # a shown line "text ..." stands for any output line that starts with "text"
    out = [s if s.endswith(" ...") and o.startswith(s[:-4]) else o for s, o in zip(shown, out)] + out[len(shown):]
    assert out == shown
