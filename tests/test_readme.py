"""README's ``$ deduce ...`` transcripts, each run through ``cli.main``: the
stdout it shows, and the exit code its answer gives (README prints none)."""

import re
import shlex
from pathlib import Path

import pytest

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
