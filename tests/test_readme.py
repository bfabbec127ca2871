"""The README's examples, run as written.

Every ``$ intersective ...`` block must print exactly the text the README
shows below the command, with exit code 0. Every ``python`` block ends in an
expression whose value the README gives in a trailing comment.
"""

import ast
import shlex
from pathlib import Path

import pytest

from intersective.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[list[str]]:
    """Bodies of the README's fenced code blocks opened by ```lang."""
    blocks, body = [], None
    for line in README.read_text().splitlines():
        if body is None:
            if line == "```" + lang:
                body = []
        elif line.startswith("```"):
            blocks.append(body)
            body = None
        else:
            body.append(line)
    return blocks


CLI_BLOCKS = [b for b in _blocks("") if b and b[0].startswith("$ intersective ")]
PYTHON_BLOCKS = _blocks("python")


def test_readme_has_examples():
    assert len(CLI_BLOCKS) == 7
    assert len(PYTHON_BLOCKS) == 2


@pytest.mark.parametrize("block", CLI_BLOCKS, ids=lambda b: b[0][len("$ intersective "):])
def test_readme_cli_output(capsys, block):
    argv = shlex.split(block[0])[2:]
    rc = main(argv)
    assert capsys.readouterr().out == "".join(line + "\n" for line in block[1:])
    assert rc == 0


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=["best_bounds", "spectral_upper_bound"])
def test_readme_python_result(block):
    expr, _, shown = block[-1].partition("#")
    scope: dict = {}
    exec("\n".join(block[:-1]), scope)
    assert eval(expr, scope) == ast.literal_eval(shown.strip())
