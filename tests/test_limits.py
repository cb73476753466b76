"""Each limit of ``deduce._limits``, at the limit and one past it, run as a
child process under the ceilings that README states: 128 MB of address
space and 5 CPU-seconds.

A run at each end of a limit's range must exit with its own code and
write nothing to stderr; what it prints is pinned by the contract digests,
but for the longest listings, which are checked here in full.  A run one
past an end must exit 2 before any output, with the one refusal of that
value, which names the limit's knob.  The longest listings must also
peak in memory under what ``deduce --help`` peaks at, plus 2 MB.  The
ceilings are rlimits of the child alone.  ``RLIMIT_AS`` counts address
space, not resident memory, and the interpreter takes about 16 MB of it
before ``deduce`` is imported.
"""

import ast
import importlib
import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from deduce import _limits
from deduce._limits import (
    ATOMS, CAPACITY, LIMIT, LIMITS, PLAN_LENGTH, TABLE_ATOMS, TARGET, refusal,
)
from helpers import child_env


def test_the_limits_module_imports_nothing():
    tree = ast.parse(Path(_limits.__file__).read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


ADDRESS_SPACE = 128 << 20
CPU_SECONDS = 5


def _ceilings() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_limited(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=_ceilings,
        timeout=60,
    )


def test_the_ceiling_binds():
    done = run_limited("-c", f"bytearray({ADDRESS_SPACE})")
    assert done.returncode == 1
    assert done.stderr.endswith("MemoryError\n")


def chain(count: int) -> str:
    return " ó ".join(f"A{i}" for i in range(count))


PLAN = ("jugs", "plan", "--n", "1", "--m", "1", "--target")
AMOUNTS_OF_1 = ("jugs", "amounts", "--n", "1", "--m", "1")

#: Each limit's name -> what its refusal calls the value it bounds, the
#: argv of a command whose value under it is ``value``, and the code that
#: command exits with, in text, at either end of the limit's range.
COMMANDS = {
    ATOMS.name: ("atom count", lambda value: ["classify", chain(value)], 1),
    TABLE_ATOMS.name: ("atom count", lambda value: ["table", chain(value)], 0),
    CAPACITY.name: ("n", lambda value: ["jugs", "bezout", "--n", str(value), "--m", "1"], 0),
    TARGET.name: ("target", lambda value: [*PLAN, str(value)], 0),
    LIMIT.name: ("limit", lambda value: [*AMOUNTS_OF_1, "--limit", str(value)], 0),
    PLAN_LENGTH.name: ("plan length", lambda value: [*PLAN, str(value)], 0),
}


@pytest.mark.parametrize("limit", LIMITS, ids=lambda limit: limit.name)
def test_each_end_of_a_limit_and_one_past_it(limit):
    module, constant = limit.name.split(".")
    assert getattr(importlib.import_module(f"deduce.{module}"), constant) == limit.most
    what, command, code = COMMANDS[limit.name]
    ends = [limit.most, *([] if limit.least is None else [limit.least])]
    for end, past in zip(ends, [1, -1]):
        # At the limit: what the longest listings hold is checked below, and
        # the rest is pinned by the contract digests.
        done = run_limited("-m", "deduce.cli", *command(end))
        assert (done.returncode, done.stderr) == (code, ""), end
        # One past it, the value is refused up front, in JSON too, which
        # alone lists a plan's actions.
        done = run_limited("-m", "deduce.cli", *command(end + past), "--format", "json")
        assert (done.returncode, done.stdout) == (2, ""), end + past
        message = refusal(limit, what, end + past)
        if limit.values:
            # argparse's refusal, after its usage line.
            assert done.stderr.startswith("usage: ")
            assert done.stderr.endswith(f": error: argument --{what}: {message}\n")
        else:
            assert done.stderr == f"error: {message}\n"


WIDEST_TABLE = COMMANDS[TABLE_ATOMS.name][1](TABLE_ATOMS.most)


def test_the_widest_table_in_text():
    done = run_limited("-m", "deduce.cli", *WIDEST_TABLE)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count("\n") == (1 << TABLE_ATOMS.most) + 1 == 65_537


def test_the_widest_table_in_json():
    done = run_limited("-m", "deduce.cli", *WIDEST_TABLE, "--format", "json")
    assert (done.returncode, done.stderr) == (0, "")
    (line,) = done.stdout.splitlines()
    assert len(json.loads(line)["result"]["rows"]) == 1 << TABLE_ATOMS.most == 65_536


AMOUNTS = COMMANDS[LIMIT.name][1](LIMIT.most)
#: Every amount up to the limit, as both formats list them.
ALL_AMOUNTS = range(1, LIMIT.most + 1)


def test_the_most_amounts_in_text():
    done = run_limited("-m", "deduce.cli", *AMOUNTS)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == " ".join(map(str, ALL_AMOUNTS)) + "\n"


def test_the_most_amounts_in_json():
    done = run_limited("-m", "deduce.cli", *AMOUNTS, "--format", "json")
    assert (done.returncode, done.stderr) == (0, "")
    # The envelope is parsed with the listing, compared as text, emptied.
    listing = f"[{','.join(map(str, ALL_AMOUNTS))}]"
    assert done.stdout.count(listing) == 1
    envelope = json.loads(done.stdout.replace(listing, "[]"))
    assert envelope["result"] == {"amounts": [], "limit": LIMIT.most, "m": 1, "n": 1}


def read_listing(stream, item: bytes) -> tuple[bytes, int]:
    """Reads ``stream``, JSON text whose first list holds only ``item``s, a
    chunk at a time, so that a long list is never held whole.  Returns the
    text with that list emptied, and how many items it held.  An item holds
    no list, so the list ends at the first ``]``."""
    unit = item + b","
    head, _, body = stream.read(1 << 20).partition(b"[")
    count = 0
    while (end := body.find(b"]")) < 0:
        whole = len(body) - len(body) % len(unit)
        assert body[:whole] == unit * (whole // len(unit))
        count += whole // len(unit)
        chunk = stream.read(1 << 20)
        assert chunk, "the list does not end"
        body = body[whole:] + chunk
    items = body[:end] + b","
    assert items == unit * (len(items) // len(unit))
    return head + b"[]" + body[end + 1 :] + stream.read(), count + len(items) // len(unit)


def check_plan_in_json(length: int) -> None:
    """Runs the JSON plan of ``length`` additions of 1 under the ceilings,
    and checks its envelope and each action it lists."""
    with subprocess.Popen(
        [sys.executable, "-m", "deduce.cli", *PLAN, str(length), "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        preexec_fn=_ceilings,
    ) as child:
        envelope, count = read_listing(child.stdout, b'{"action":"add","capacity":1}')
        stderr = child.stderr.read()
    assert (child.returncode, stderr, count) == (0, b"", length)
    assert json.loads(envelope) == {
        "command": "jugs plan",
        "counterexample": None,
        "result": {
            "achievable": True, "actions": [], "length": length, "m": 1, "n": 1,
            "strategy": "certificate", "target": length,
        },
        "status": "ok",
    }


def test_a_plan_of_a_million_actions_in_json():
    check_plan_in_json(10**6)


def test_the_longest_plan_in_json():
    # The listing is 300 MB.
    check_plan_in_json(PLAN_LENGTH.most)


#: Runs ``deduce`` on its argv with stdout to /dev/null, as the child of
#: this bare interpreter, and prints its exit code and peak resident
#: memory in KB.  Linux keeps ``ru_maxrss`` across ``execve``, so a child
#: forked from the test process itself would start at that process's peak.
LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, "-m", "deduce.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

#: The most a listing at its limit may hold over ``deduce --help``.
MEMORY_MARGIN_KB = 2 << 10

LISTINGS = {
    "plan-in-json": [*PLAN, str(PLAN_LENGTH.most), "--format", "json"],
    "amounts-in-text": [*AMOUNTS],
    "amounts-in-json": [*AMOUNTS, "--format", "json"],
    "table-in-text": WIDEST_TABLE,
    "table-in-json": [*WIDEST_TABLE, "--format", "json"],
}


def peak_memory_kb(*argv: str) -> tuple[int, int]:
    """The exit code and peak resident memory of ``deduce`` on ``argv``,
    under the ceilings."""
    done = run_limited("-c", LAUNCHER, *argv)
    assert (done.returncode, done.stderr) == (0, "")
    code, peak = map(int, done.stdout.split())
    return code, peak


@pytest.mark.parametrize("name", LISTINGS)
def test_a_listing_at_its_limit_holds_no_more_than_a_batch(name):
    # A listing is written a batch at a time, so its peak does not grow
    # with its length.
    _, baseline = peak_memory_kb("--help")
    code, peak = peak_memory_kb(*LISTINGS[name])
    assert code == 0
    assert peak < baseline + MEMORY_MARGIN_KB, (peak, baseline)


def test_the_largest_target_in_text():
    # Text prints the plan's one run, so the plan-length limit does not bind.
    done = run_limited("-m", "deduce.cli", *PLAN, str(TARGET.most))
    assert (done.returncode, done.stdout, done.stderr) == (0, f"add 1 ×{TARGET.most}\n", "")


# Inputs that the parser must read whole.  The longest is 130,004 bytes,
# under Linux's 128 KiB cap on one argument.
NEGATIONS = "¬" * 20_000 + "P"
PARENTHESES = "(" * 20_000 + "P" + ")" * 20_000
PREFIXES = "forall x. " * 13_000 + "P(x)"
CONJUNCTION = " & ".join(f"A{i % 12}" for i in range(24_000))

LONG_INPUTS = {
    "negations": (["classify", NEGATIONS], 1),
    "parentheses": (["classify", PARENTHESES], 1),
    "quantifier-prefixes": (["quant", "negate", PREFIXES], 0),
    "flat-conjunction": (["classify", CONJUNCTION], 1),
}


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", LONG_INPUTS)
def test_a_long_input(name, json_mode):
    args, code = LONG_INPUTS[name]
    done = run_limited("-m", "deduce.cli", *args, *(["--format", "json"] if json_mode else []))
    assert (done.returncode, done.stderr) == (code, "")
    if json_mode:
        (line,) = done.stdout.splitlines()
        assert type(json.loads(line)) is dict
