"""Each documented limit, at the limit, run as a child process under the
ceilings that README states: 128 MB of address space and 5 CPU-seconds.

A run must exit with its own code and print no traceback; its output is
checked for size, not content, which other tests pin.  The ceilings are
rlimits of the child alone.  ``RLIMIT_AS`` counts address space, not
resident memory, and the interpreter takes about 16 MB of it before
``deduce`` is imported.
"""

import json
import resource
import subprocess
import sys

from deduce.cli import TABLE_MAX_ATOMS
from helpers import child_env

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


WIDEST_TABLE = " ó ".join(f"A{i}" for i in range(TABLE_MAX_ATOMS))


def test_the_widest_table_in_text():
    done = run_limited("-m", "deduce.cli", "table", WIDEST_TABLE)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count("\n") == (1 << TABLE_MAX_ATOMS) + 1 == 65_537


def test_the_widest_table_in_json():
    done = run_limited("-m", "deduce.cli", "table", WIDEST_TABLE, "--format", "json")
    assert (done.returncode, done.stderr) == (0, "")
    (line,) = done.stdout.splitlines()
    assert len(json.loads(line)["result"]["rows"]) == 1 << TABLE_MAX_ATOMS == 65_536
