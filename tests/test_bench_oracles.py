"""The benchmark's oracles, which check the propositional engine's answers
in every benchmark run, agree with brute force."""

import subprocess
import sys
from pathlib import Path

ORACLE_TESTS = Path(__file__).resolve().parent.parent / "bench" / "test_oracles.py"


def test_bench_oracles_pass():
    done = subprocess.run(
        [sys.executable, str(ORACLE_TESTS)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
