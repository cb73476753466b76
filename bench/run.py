"""Run one benchmark workload against the deduce sources of this checkout.

    python3 bench/run.py --workload prop-enum --seed 1 --seconds 20 --trace 0

Builds the workload's operations from the seed, then runs them in whole
passes, one at a time in a closed loop, until ``--seconds`` have passed
(at least two passes).  Each operation's latency is its median over the
passes, each time scaled by a calibration loop run around the call, which
keeps the figures steady on a machine whose speed drifts (see README.md).
Every output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
from random import Random
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("prop-enum", "grammar-roundtrip", "models-plans", "cli-mix")
MIN_PASSES = 2
IMPORT_SAMPLES = 11
IMPORT_ALL = "import deduce, deduce.parser, deduce.logic, deduce.rules, deduce.categorical, deduce.jugs, deduce.cli"


def _load_deduce():
    """Import deduce from this checkout's src/, or exit with an error and no result."""
    if not os.path.isfile(os.path.join(SRC, "deduce", "__init__.py")):
        sys.exit(f"error: no deduce sources under {SRC}")
    sys.path.insert(0, SRC)
    import deduce

    if os.path.dirname(os.path.dirname(os.path.abspath(deduce.__file__))) != SRC:
        sys.exit(f"error: deduce was imported from {deduce.__file__}, not {SRC}")


#: Time the calibration loop takes at the reference speed.  Every reported
#: time is scaled to this speed; see README.md, "A machine whose speed drifts".
REFERENCE_CALIBRATION_S = 400e-6


def _calibrate() -> float:
    """Time of a fixed pure-Python loop that touches no deduce code."""
    table: dict[int, int] = {}
    start = perf_counter()
    for i in range(4000):
        table[i & 63] = table.get(i & 63, 0) + i
    return perf_counter() - start


def _scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at the reference speed, given the calibration times around it."""
    return elapsed * 2 * REFERENCE_CALIBRATION_S / (before + after)


class Clock:
    """Times calls and scales each time to the reference speed, using the
    calibration loop run just before and just after the call."""

    def __init__(self):
        self._before = _calibrate()

    def time(self, call) -> tuple[float, float, object]:
        """(scaled seconds, scale factor, result) of ``call()``."""
        start = perf_counter()
        result = call()
        elapsed = perf_counter() - start
        after = _calibrate()
        factor = _scaled(1.0, self._before, after)
        self._before = after
        return elapsed * factor, factor, result


def _fresh(code: str, env: dict) -> str:
    """Standard output of a fresh interpreter running ``code``."""
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout


def _median_fresh(clock: Clock, code: str, env: dict) -> float:
    """Median scaled wall time of fresh interpreters running ``code``."""
    _fresh(code, env)  # warm the bytecode cache and the file cache
    return statistics.median(clock.time(lambda: _fresh(code, env))[0] for _ in range(IMPORT_SAMPLES))


def _median_import(env: dict, statement: str, preload: str = "pass") -> float:
    """Median time of ``statement`` in fresh interpreters after ``preload``,
    timed and scaled inside the interpreter so process start is left out."""
    code = "\n".join(
        (
            "from time import perf_counter",
            inspect.getsource(_calibrate),
            preload,
            "_calibrate()",
            "before = _calibrate()",
            "start = perf_counter()",
            statement,
            "elapsed = perf_counter() - start",
            "print(elapsed, before, _calibrate())",
        )
    )
    _fresh(code, env)  # warm the bytecode cache and the file cache
    return statistics.median(
        _scaled(*map(float, _fresh(code, env).split())) for _ in range(IMPORT_SAMPLES)
    )


def _run_op(clock: Clock, op, tracer=None) -> tuple[float, float, object, bool]:
    """Time one operation: (scaled seconds, scale factor, output, raised)."""

    def call():
        if tracer is not None:
            tracer.active = True
        try:
            return op.run(), False
        except Exception as exc:  # any escape is a failed operation, not a crash
            return exc, True
        finally:
            if tracer is not None:
                tracer.active = False

    seconds, factor, (out, raised) = clock.time(call)
    return seconds, factor, out, raised


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def record(self, op, out, raised: bool) -> None:
        self.attempted += 1
        try:
            verdict = None if raised else op.check(out)
        except Exception:  # a malformed output the check cannot read is wrong
            verdict = False
        if verdict is None:
            self.failed += 1
        elif not verdict:
            self.wrong.append(op.kind)


def _passes(seconds: float, body) -> None:
    """Call ``body()`` for whole passes until ``seconds`` have passed, and
    at least MIN_PASSES times."""
    start = perf_counter()
    done = 0
    while done < MIN_PASSES or perf_counter() - start < seconds:
        body()
        done += 1


def measure(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    import workloads  # imports deduce, so only after _load_deduce

    env = workloads.cli_env(ROOT)
    setup_s = _median_import(env, IMPORT_ALL)
    clock = Clock()
    ops = workloads.build_ops(workload, Random(f"{seed}/{workload}"), ROOT)
    samples: list[list[float]] = [[] for _ in ops]
    tally = Tally()

    def one_pass():
        for op, times in zip(ops, samples):
            elapsed, _, out, raised = _run_op(clock, op)
            times.append(elapsed)
            tally.record(op, out, raised)

    _passes(seconds, one_pass)
    typical = [statistics.median(times) for times in samples]
    who = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": (sum(typical), "s"),
        "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(typical, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return tally, metrics


_LAYER_UNITS = {
    "parser.chars_per_s": "chars/s",
    "logic.rows_per_s": "rows/s",
    "categorical.models_per_s": "models/s",
    "jugs.plan_actions": "count",
    "cli.decision_calls": "count",
    "cli.emit_bytes": "count",
}


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Per-layer figures: each pass runs the operations once untraced and
    once traced, in alternating order; the traced pass's spans give the
    layer metrics, and the difference of the two the tracing overhead."""
    import spans
    import workloads

    env = workloads.cli_env(ROOT)
    clock = Clock()
    interpreter = _median_fresh(clock, "pass", env)
    imported = _median_fresh(clock, IMPORT_ALL, env)
    rules_import = _median_import(env, "import deduce.rules", preload="import deduce.parser, deduce.logic")
    tracer = spans.Tracer()
    per_pass: list[dict] = []
    overheads: list[float] = []

    # The workload's own in-process operations, then the probe: the cli-mix
    # commands through cli.main in process, plus the traced calls the CLI
    # never makes.  On cli-mix the probe is the whole traced pass.
    rng = Random(f"{seed}/{workload}")
    cli_mix = workload == "cli-mix"
    ops = [] if cli_mix else workloads.build_ops(workload, rng, ROOT)
    ops += [
        workloads.in_process_op(kind, argv, check)
        for kind, argv, check in workloads.cli_commands(rng, copies=2 if cli_mix else 1, deep=cli_mix)
    ]
    ops += workloads.probe_ops(rng)
    tally = Tally()

    def one_pass():
        order = [None, tracer] if len(per_pass) % 2 == 0 else [tracer, None]
        times = {}
        first_span = len(tracer.spans)
        cli_results = []
        factors: dict[int, float] = {}
        for recorder in order:
            total = 0.0
            for op in ops:
                if recorder is not None:
                    tracer.op += 1
                elapsed, factor, out, raised = _run_op(clock, op, recorder)
                total += elapsed
                if recorder is not None:
                    factors[tracer.op] = factor
                    tally.record(op, out, raised)
                    if isinstance(out, workloads.CliResult):
                        cli_results.append(out)
            times[recorder is None] = total
        overheads.append(times[False] - times[True])
        per_pass.append(spans.layer_metrics(tracer.spans, first_span, factors, cli_results))

    with tracer.patch():
        _passes(seconds, one_pass)
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    tracer.write(os.path.join(BENCH, "out", f"trace-{workload}-{seed}.jsonl"))
    metrics = {
        name: (statistics.median(r[name] for r in per_pass), _LAYER_UNITS.get(name, "s"))
        for name in per_pass[0]
    }
    metrics["rules.import_s"] = (rules_import, "s")
    metrics["cli.import_s"] = (imported - interpreter, "s")
    metrics["cli.interpreter_start_s"] = (interpreter, "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _load_deduce()
    run = measure_traced if args.trace else measure
    tally, metrics = run(args.workload, args.seed, args.seconds)
    if tally.wrong:
        print(f"wrong outputs: {sorted(set(tally.wrong))}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not tally.wrong,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
