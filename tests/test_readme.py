"""The README's examples, run as written."""

import doctest
import re
import shlex
from pathlib import Path

from poincare_series.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted and not failed


def command_line_examples():
    """(argv, expected stdout) for each ``$ poincare-series`` line followed by its output."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") : text.index("Options:")]
    return [
        (shlex.split(args), output)
        for args, output in re.findall(r"^\$ poincare-series (.*)\n((?:[^$`\n].*\n)+)", section, re.M)
    ]


def test_command_line_examples(capsys):
    examples = command_line_examples()
    assert len(examples) == 4
    for argv, expected in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        # a trailing ... stands for the rest of a long line
        if expected.endswith("...\n"):
            assert out.startswith(expected[: -len("...\n")]), argv
        else:
            assert out == expected, argv
