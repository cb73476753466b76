"""README's ``$ deduce ...`` transcripts, each run through ``cli.main``: the
stdout it shows, and the exit code its answer gives (README prints none);
and its library quick tour, each line run and its value compared with the
comment that shows it."""

import ast
import io
import re
import shlex
import sys
import tokenize
from importlib import import_module
from pathlib import Path

import pytest

from deduce import _limits, categorical, jugs, logic, parser, rules
from helpers import run_main

README = Path(__file__).resolve().parent.parent / "README.md"

#: Each transcript's exit code.  Every transcript in README must be here,
#: and every entry must be in README.
EXIT_CODES = {
    'deduce classify "P ó ¬P"': 0,
    'deduce table "P y Q"': 0,
    "deduce syllogism check darapti": 1,
    "deduce jugs plan --n 3 --m 11 --target 1": 0,
}


def transcripts() -> dict[str, str]:
    """Each ``$ deduce`` line of a README code block -> the lines after it,
    up to a blank line or the end of the block, as stdout."""
    found = {}
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(), re.M | re.S):
        for command, output in re.findall(r"^\$ (deduce .*)\n((?:.+\n)*)", block, re.M):
            found[command] = output
    return found


def test_every_transcript_has_an_exit_code():
    assert set(transcripts()) == set(EXIT_CODES)


@pytest.mark.parametrize("command", EXIT_CODES)
def test_a_transcript_is_what_deduce_prints(command):
    argv = shlex.split(command)[1:]
    assert run_main(argv) == (EXIT_CODES[command], transcripts()[command], "")


def quick_tour() -> str:
    """The code block of README's "Library quick tour"."""
    tour = r"^## Library quick tour\n.*?^```python\n(.*?)^```"
    return re.search(tour, README.read_text(), re.M | re.S)[1]


def _names(value) -> dict:
    """The package's names, those of ``value``'s own module first where two
    modules share a name (``rules.Verdict`` and ``categorical.Verdict``)."""
    names = {}
    for module in (logic, parser, rules, categorical, jugs):
        names.update(vars(module))
    return names | vars(sys.modules[type(value).__module__])


def shown_values() -> list[tuple[str, object, str]]:
    """Runs the quick tour one statement at a time.  Each expression whose
    comment, at the end of its line or alone on the next line, is Python
    gives ``(source, value, comment)``; other comments are prose."""
    source = quick_tour()
    comments = {
        token.start[0]: token.string.lstrip("# ")
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    statements = ast.parse(source).body
    starts = {statement.lineno for statement in statements}
    tour: dict = {}
    shown = []
    for statement in statements:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README", "exec"), tour)
            continue
        value = eval(compile(ast.Expression(statement.value), "README", "eval"), tour)
        line = statement.end_lineno
        comment = comments.get(line)
        if comment is None and line + 1 not in starts:
            comment = comments.get(line + 1)
        if comment is None:
            continue
        try:
            ast.parse(comment, mode="eval")
        except SyntaxError:
            continue
        shown.append((ast.get_source_segment(source, statement), value, comment))
    return shown


def test_each_value_in_the_quick_tour_is_the_one_shown():
    shown = shown_values()
    assert shown
    for source, value, comment in shown:
        assert value == eval(comment, _names(value)), source


def test_the_table_of_limits_is_the_one_in_the_package():
    rows = re.findall(r"^\| `(\w+\.\w+)` \| (.*) \| (.*) \| (.*) \| (.*) \|$", README.read_text(), re.M)
    assert [row[:4] for row in rows] == [
        (
            limit.name,
            limit.counts,
            f"{limit.most}" if limit.least is None else f"{limit.least} to {limit.most}",
            ", ".join(f"`--{name}`" for name in limit.values) or "—",
        )
        for limit in _limits.LIMITS
    ]
    # The library refuses with an exception of the limit's module, or
    # ``ValueError`` itself.
    for (name, *_, refusal) in rows:
        module = vars(import_module(f"deduce.{name.split('.')[0]}")) | {"ValueError": ValueError}
        assert issubclass(module[refusal.strip("`")], ValueError)
    assert f"`jugs gcd` alone takes `--m {_limits.GCD_LEAST_M}`." in README.read_text()


def test_the_refusal_shown_is_the_one_the_library_gives():
    shown = re.search(r"for example:\n\n```text\n(.*)\n```", README.read_text())[1]
    with pytest.raises(ValueError) as excinfo:
        jugs.JugProblem(3, 5, jugs.MAX_TARGET + 1)
    assert str(excinfo.value) == shown
