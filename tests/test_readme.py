"""Every `$ knotcover ...` example in README.md, run through the CLI, must
print exactly what README shows."""
import pathlib
import re
import shlex

import pytest

from knotcover.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, expected stdout) for each command in README's text blocks.
    An example's output runs from its command line to the next "$ " line,
    less the blank line that separates two examples.  selftest is left
    out: README elides most of its report with "...", and its timings vary."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not chunk.startswith("$ knotcover "):
                continue
            command, _, output = chunk.partition("\n")
            if output.endswith("\n\n"):
                output = output[:-1]
            argv = shlex.split(command)[2:]
            if argv[0] != "selftest":
                examples.append(pytest.param(argv, output, id=command[2:]))
    return examples


def test_readme_has_examples():
    assert len(readme_examples()) >= 7


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_example(capsys, argv, expected):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == expected
