"""The README's examples run and print what their comments state."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from ultimatum.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The one `language` code block between `heading` and the next heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    section = re.split(r"\n#{1,3} ", section, maxsplit=1)[0]
    (block,) = re.findall(rf"```{language}\n(.*?)```", section, re.DOTALL)
    return block


@pytest.mark.parametrize("heading, stated", [
    ("## Library example", ["none", "[20, 25, 30, 35, 40]"]),
    ("### Quick statistics", ["13.090909 0.000296732", "13.090909"]),
])
def test_each_python_example_prints_what_its_comments_state(capsys, heading, stated):
    code = _block(heading, "python")
    comments = [line.split("  # ")[-1] for line in code.splitlines() if line.startswith("print(")]
    assert comments == stated
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == stated


def test_the_quick_statistics_commands_exit_zero(capsys):
    block = _block("### Quick statistics", "sh")
    commands = [line.split("#")[0].split() for line in block.splitlines() if line.startswith("ultimatum ")]
    assert [argv[:2] for argv in commands] == [["ultimatum", "stats"]] * 2
    outputs = []
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0][0] == "chi-square = 13.090909 (df=1)"
    assert outputs[1][0].startswith("z = ")
