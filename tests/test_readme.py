"""The README's CLI tour must match what the CLI prints."""

import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from vincstat.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_examples() -> list[tuple[list[str], str]]:
    """(arguments, shown output) for every `$ vincstat ...` example in the
    first sh block of the "CLI tour" section."""
    text = README.read_text()
    tour = text[text.index("## CLI tour"):]
    block = re.search(r"```sh\n(.*?)```", tour, re.S).group(1)
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ vincstat "), command
        examples.append((shlex.split(command)[2:], "\n".join(output)))
    return examples


EXAMPLES = _tour_examples()
FULL = [(args, shown) for args, shown in EXAMPLES if "..." not in shown]


def test_tour_shows_every_fully_printed_command():
    assert {args[0] for args, _ in FULL} == {
        "count", "moments", "var-poly", "depgraph", "bounds", "sample"
    }


@pytest.mark.parametrize("args, shown", FULL, ids=[" ".join(a) for a, _ in FULL])
def test_tour_example_output(args, shown):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == json.loads(shown)
