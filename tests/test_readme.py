"""The README's library quickstart and CLI tour must match what the
code returns and prints."""

import ast
import json
import re
import shlex
from fractions import Fraction
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


def _quickstart_results() -> dict[str, object]:
    """Run the quickstart's python block as written; map the comment on
    each expression line to that expression's value."""
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = source.splitlines()
    namespace: dict = {}
    results = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            results[lines[stmt.end_lineno - 1].partition("#")[2].strip()] = value
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    return results


def test_quickstart_values():
    results = _quickstart_results()
    # Comments that are Python literals (before any "->" gloss) are the
    # values themselves.
    literals = 0
    for comment, value in results.items():
        try:
            expected = eval(comment.split(" -> ")[0], {"Fraction": Fraction})
        except (NameError, SyntaxError):  # prose
            continue
        assert value == expected, comment
        literals += 1
    assert literals == 4
    assert isinstance(results["exact rational"], Fraction)
    graph = results["N=21, D=20, edge_count=165"]
    assert (graph.N, graph.D, graph.edge_count) == (21, 20, 165)
    d_K, k3 = results["distance to normal, skewness estimate"]
    assert 0 < d_K < 0.05 and abs(k3) < 0.05
    assert results["about -0.5"] == pytest.approx(-0.5, abs=0.05)
