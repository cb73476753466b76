"""Spans around the public calls into each deduce module, and the per-layer
metrics derived from them.

``Tracer.patch()`` replaces every traced function with a wrapper, in its
own module and in every deduce module that imported it by name (so the
names ``deduce.cli`` looks up are wrapped too), and puts the originals back
on exit.  Spans are recorded only while ``active`` is set, which the runner
does around each operation's call and never around its check.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

from deduce import categorical, cli, jugs, logic, parser, rules

import oracles as o
from workloads import from_formula

LAYERS = ("parser", "logic", "rules", "categorical", "jugs", "cli")
_MODULES = {
    "parser": parser,
    "logic": logic,
    "rules": rules,
    "categorical": categorical,
    "jugs": jugs,
    "cli": cli,
}

#: (layer, function) pairs wrapped in a span.
TRACED = (
    ("parser", "parse"),
    ("parser", "format_formula"),
    ("logic", "classify"),
    ("logic", "falsifying_valuation"),
    ("logic", "equivalent"),
    ("logic", "truth_table"),
    ("rules", "entail"),
    ("rules", "verify_rule"),
    ("rules", "instantiate"),
    ("categorical", "parse_monadic"),
    ("categorical", "negate_quantifiers"),
    ("categorical", "format_monadic"),
    ("categorical", "valid_syllogism"),
    ("jugs", "plan"),
    ("jugs", "simulate"),
    ("jugs", "gcd"),
    ("jugs", "bezout"),
    ("jugs", "achievable_amounts"),
    ("cli", "main"),
)

#: Spans that decide a CLI command's answer; counted when ``cli.main`` calls them.
DECISIONS = {
    "logic.classify", "logic.falsifying_valuation", "logic.equivalent",
    "logic.truth_table", "rules.entail", "rules.verify_rule",
    "categorical.valid_syllogism", "jugs.plan_certificate", "jugs.plan_shortest",
    "jugs.gcd", "jugs.bezout", "jugs.achievable_amounts",
}

#: Spans whose arguments are kept to count the work they did afterwards.
_KEEP_ARGS = {
    "logic.classify", "logic.falsifying_valuation", "logic.truth_table",
    "categorical.valid_syllogism", "parser.parse",
}

def _span_name(layer: str, name: str, args, kwargs) -> str:
    if name == "plan":
        strategy = args[1] if len(args) > 1 else kwargs.get("strategy", jugs.Strategy.CERTIFICATE)
        return f"jugs.plan_{strategy.value}"
    return f"{layer}.{name}"


class Tracer:
    """In-memory spans: [name, op id, parent index, start, end, payload]."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = 0
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = _span_name(layer, name, args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            record = [span_name, self.op, parent, 0.0, 0.0, args if span_name in _KEEP_ARGS else None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                self._stack.pop()
            if isinstance(result, jugs.PourPlan):
                record[5] = len(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patch(self):
        import deduce

        modules = [deduce, *_MODULES.values()]
        saved: list[tuple[object, str, object]] = []
        for layer, name in TRACED:
            original = getattr(_MODULES[layer], name)
            wrapper = self._wrap(layer, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, op, parent, start, end, _) in enumerate(self.spans):
                record = {"id": index, "name": name, "op": op, "parent": parent, "start": start, "end": end}
                out.write(json.dumps(record) + "\n")


def _work(name: str, payload) -> int:
    """Rows, models or characters a span's call had to visit."""
    if name == "parser.parse":
        return len(payload[0])
    if name == "categorical.valid_syllogism":
        syllogism, existential_import = payload[0], len(payload) > 1 and payload[1]
        forms = [
            (f.kind.value, f.subject, f.predicate)
            for f in (syllogism.major, syllogism.minor, syllogism.conclusion)
        ]
        return o.syllogism_search(*forms, existential_import)[2]
    tree = from_formula(payload[0])
    if name == "logic.truth_table":
        over = payload[1] if len(payload) > 1 else None
        return 1 << len(over if over is not None else o.atom_names(tree))
    return o.rows_visited(tree, classify=name == "logic.classify")


def layer_metrics(spans: list[list], first: int, factors: dict[int, float], cli_results) -> dict[str, float]:
    """Per-layer figures of the spans from index ``first`` on: one traced
    pass (see README for each metric).  Each span's duration is scaled by
    its operation's factor in ``factors``."""
    totals: dict[str, float] = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    children = dict.fromkeys(range(first, len(spans)), 0.0)
    for name, op, parent, start, end, _ in spans[first:]:
        if parent >= first:
            children[parent] += (end - start) * factors[op]
    work = {"logic": 0, "parser": 0, "categorical": 0}
    scan_time = 0.0
    actions = 0
    decisions = 0
    for index in range(first, len(spans)):
        name, op, parent, start, end, payload = spans[index]
        duration = (end - start) * factors[op]
        totals[name] = totals.get(name, 0.0) + duration
        self_time[name.split(".")[0]] += duration - children[index]
        if name in _KEEP_ARGS:
            work[name.split(".")[0]] += _work(name, payload)
            if name.startswith("logic."):
                scan_time += duration
        if name.startswith("jugs.plan_") and isinstance(payload, int):
            actions += payload
        if name in DECISIONS and parent >= first and spans[parent][0] == "cli.main":
            decisions += 1
    calls = sum(1 for span in spans[first:] if span[0] == "cli.main")
    emitted = sum(len(r.out.encode()) + len(r.err.encode()) for r in cli_results)

    def total(name: str) -> float:
        return totals.get(name, 0.0)

    def per(amount: float, base: float) -> float:
        return amount / base if base else 0.0

    metrics = {
        "parser.parse_s": total("parser.parse"),
        "parser.chars_per_s": per(work["parser"], total("parser.parse")),
        "parser.format_s": total("parser.format_formula"),
        "logic.classify_s": total("logic.classify"),
        "logic.falsifying_valuation_s": total("logic.falsifying_valuation"),
        "logic.equivalent_s": total("logic.equivalent"),
        "logic.truth_table_s": total("logic.truth_table"),
        "logic.rows_per_s": per(work["logic"], scan_time),
        "rules.entail_s": total("rules.entail"),
        "rules.verify_rule_s": total("rules.verify_rule"),
        "categorical.parse_monadic_s": total("categorical.parse_monadic"),
        "categorical.negate_quantifiers_s": total("categorical.negate_quantifiers"),
        "categorical.format_monadic_s": total("categorical.format_monadic"),
        "categorical.valid_syllogism_s": total("categorical.valid_syllogism"),
        "categorical.models_per_s": per(work["categorical"], total("categorical.valid_syllogism")),
        "jugs.plan_shortest_s": total("jugs.plan_shortest"),
        "jugs.plan_certificate_s": total("jugs.plan_certificate"),
        "jugs.simulate_s": total("jugs.simulate"),
        "jugs.plan_actions": actions,
        "cli.main_s": per(total("cli.main"), calls),
        "cli.decision_calls": per(decisions, calls),
        "cli.emit_bytes": per(emitted, len(cli_results)),
    }
    metrics.update({f"{layer}.self_s": value for layer, value in self_time.items()})
    return metrics
