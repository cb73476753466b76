"""The four workloads: seeded inputs, the public calls made on them, and the
check each output must pass.

A workload builds its list of operations from a ``Random``; the runner
repeats the list in whole passes.  An ``Op`` holds the call to time and the
check to apply to its output.  Checks compare against the oracles in
``oracles.py`` or against stated properties, never against saved output of
the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from random import Random
from typing import Any, Callable

from deduce import categorical, cli, jugs, logic, parser, rules

import oracles as o


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` makes the public calls; ``check`` gets its
    output and answers True (correct), False (wrong) or None (the call broke
    its contract, which counts as failed)."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool | None]


# --- Conversions between deduce objects and oracle tuples -------------------

_BINARY = {logic.And: "and", logic.Or: "or", logic.Implies: "implies", logic.Iff: "iff"}
_BUILD = {"and": logic.And, "or": logic.Or, "implies": logic.Implies, "iff": logic.Iff}


def to_formula(tree) -> logic.Formula:
    op = tree[0]
    if op == "atom":
        return logic.prop(tree[1])
    if op == "not":
        return logic.Not(to_formula(tree[1]))
    return _BUILD[op](to_formula(tree[1]), to_formula(tree[2]))


def from_formula(formula) -> tuple:
    if isinstance(formula, logic.Atomic):
        return ("atom", formula.atom.name)
    if isinstance(formula, logic.Not):
        return ("not", from_formula(formula.inner))
    return (_BINARY[type(formula)], from_formula(formula.left), from_formula(formula.right))


_M_BINARY = {categorical.MAnd: "and", categorical.MOr: "or", categorical.MImplies: "implies"}


def from_monadic(formula) -> tuple:
    if isinstance(formula, categorical.PredApp):
        return ("pred", formula.pred, formula.var)
    if isinstance(formula, categorical.MNot):
        return ("not", from_monadic(formula.inner))
    if isinstance(formula, categorical.ForAll):
        return ("forall", formula.var, from_monadic(formula.body))
    if isinstance(formula, categorical.Exists):
        return ("exists", formula.var, from_monadic(formula.body))
    return (
        _M_BINARY[type(formula)],
        from_monadic(formula.left),
        from_monadic(formula.right),
    )


# --- Random inputs -------------------------------------------------------------


def atom_pool(rng: Random, count: int) -> list[str]:
    """``count`` distinct atom names: an uppercase letter and up to two more
    letters or digits."""
    tail = "abcdefghijklmnopqrstuvwxyz0123456789"
    names: set[str] = set()
    while len(names) < count:
        name = rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        name += "".join(rng.choice(tail) for _ in range(rng.randrange(3)))
        names.add(name)
    return sorted(names, key=lambda _: rng.random())


def random_tree(rng: Random, names: list[str], leaves: int):
    """A random formula with ``leaves`` atom occurrences, using every name at
    least once when there are enough leaves; splits stay near the middle so
    depth grows with log(leaves)."""
    slots = list(names) + [rng.choice(names) for _ in range(max(0, leaves - len(names)))]
    rng.shuffle(slots)
    slots = slots[:leaves]

    def build(lo: int, hi: int):
        if hi - lo == 1:
            node = ("atom", slots[lo])
        else:
            size = hi - lo
            mid = lo + max(1, min(size - 1, size // 2 + rng.randint(-size // 6, size // 6)))
            node = (rng.choice(("and", "or", "implies", "iff")), build(lo, mid), build(mid, hi))
        return ("not", node) if rng.random() < 0.15 else node

    return build(0, len(slots))


def rewrite(tree, rng: Random):
    """An equivalent formula: De Morgan, implication and biconditional
    elimination, double negation and commutation at random nodes."""
    op = tree[0]
    if op == "atom":
        return ("not", ("not", tree)) if rng.random() < 0.1 else tree
    if op == "not":
        inner = tree[1]
        if inner[0] == "and" and rng.random() < 0.5:
            return ("or", ("not", rewrite(inner[1], rng)), ("not", rewrite(inner[2], rng)))
        if inner[0] == "or" and rng.random() < 0.5:
            return ("and", ("not", rewrite(inner[1], rng)), ("not", rewrite(inner[2], rng)))
        return ("not", rewrite(inner, rng))
    a, b = rewrite(tree[1], rng), rewrite(tree[2], rng)
    roll = rng.random()
    if op == "implies" and roll < 0.5:
        return ("or", ("not", a), b)
    if op == "iff" and roll < 0.5:
        return ("and", ("implies", a, b), ("implies", b, a))
    if op in ("and", "or", "iff") and roll < 0.5:
        return (op, b, a)
    return (op, a, b)


def chain_tautology(names: list[str]):
    """((A1 ⇒ A2) ∧ … ∧ (An-1 ⇒ An)) ⇒ (A1 ⇒ An)."""
    links = [("implies", ("atom", a), ("atom", b)) for a, b in zip(names, names[1:])]
    premise = links[0]
    for link in links[1:]:
        premise = ("and", premise, link)
    return ("implies", premise, ("implies", ("atom", names[0]), ("atom", names[-1])))


def disjunction_of(names: list[str], rng: Random):
    """A random tree of disjunctions over all atoms, false only when every
    atom is false: the last canonical row."""
    order = list(names)
    rng.shuffle(order)
    node = ("atom", order[0])
    for name in order[1:]:
        leaf = ("atom", name)
        node = ("or", node, leaf) if rng.random() < 0.5 else ("or", leaf, node)
    return rewrite(node, rng)


# --- prop-enum -----------------------------------------------------------------

_CLASSES = {c.value: c for c in logic.Classification}


def _classify_op(tree) -> Op:
    formula, vectors = to_formula(tree), o.Vectors(o.atom_names(tree))
    want = o.classify_vector(vectors.of(tree), vectors.full)
    return Op("classify", lambda: logic.classify(formula), lambda out: out is _CLASSES[want])


def _falsify_op(tree) -> Op:
    formula, vectors = to_formula(tree), o.Vectors(o.atom_names(tree))
    row = o.first_false_row(vectors.of(tree), vectors.full)
    want = None if row is None else vectors.valuation(row)
    return Op(
        "falsifying_valuation",
        lambda: logic.falsifying_valuation(formula),
        lambda out: out == want,
    )


def _equivalent_op(left, right) -> Op:
    f, g = to_formula(left), to_formula(right)
    vectors = o.Vectors(sorted(set(o.atom_names(left)) | set(o.atom_names(right))))
    want = vectors.of(left) == vectors.of(right)
    return Op("equivalent", lambda: logic.equivalent(f, g), lambda out: out is want)


def _entail_op(premises, conclusion) -> Op:
    joined = premises[0]
    for premise in premises[1:]:
        joined = ("and", joined, premise)
    vectors = o.Vectors(o.atom_names(("implies", joined, conclusion)))
    counter = vectors.of(joined) & (vectors.full ^ vectors.of(conclusion))
    want = None if counter == 0 else vectors.valuation(o.lowest_bit(counter))
    fs, c = [to_formula(p) for p in premises], to_formula(conclusion)
    return Op(
        "entail",
        lambda: rules.entail(fs, c),
        lambda out: out.valid is (want is None) and out.countervaluation == want,
    )


def _table_op(tree) -> Op:
    formula, names = to_formula(tree), o.atom_names(tree)
    vectors = o.Vectors(names)
    vector = vectors.of(tree)

    def check(table) -> bool:
        if [a.name for a in table.atoms] != names or len(table.rows) != vectors.rows:
            return False
        return all(
            row.value == bool(vector >> r & 1) and row.valuation == vectors.valuation(r)
            for r, row in enumerate(table.rows)
        )

    return Op("truth_table", lambda: logic.truth_table(formula), check)


def _substitute(tree, mapping):
    if tree[0] == "atom":
        return mapping.get(tree[1], tree)
    return (tree[0],) + tuple(_substitute(child, mapping) for child in tree[1:])


def prop_enum(rng: Random) -> list[Op]:
    """Propositional decisions whose cost is valuation enumeration, 8–14 atoms.

    Chains cost the same whatever the seed, so the sizes are chosen to put
    the percentiles among them: the median among the twenty 9-atom chains
    (about half of the operations are cheaper), the 90th percentile among
    the fourteen 11-atom chains (eight operations are dearer).
    """
    ops: list[Op] = []
    for n in (8, 8, 10, 10) + (9,) * 20 + (11,) * 14 + (12, 13, 13):
        ops.append(_classify_op(chain_tautology(atom_pool(rng, n))))
    for i, n in enumerate((8,) * 4 + (9,) * 4 + (10,) * 3 + (12,)):
        names = atom_pool(rng, n)
        left = random_tree(rng, names, 2 * n)
        right = rewrite(left, rng)
        if i % 3 == 2:  # one pair in three is mutated, most likely inequivalent
            right = _substitute(right, {names[0]: ("not", ("atom", names[0]))})
        ops.append(_equivalent_op(left, right))
    for i, n in enumerate((8,) * 3 + (9,) * 5 + (10,) * 3 + (12,)):
        names = atom_pool(rng, n)
        links = [("implies", ("atom", a), ("atom", b)) for a, b in zip(names, names[1:])]
        extra = [random_tree(rng, names, 4) for _ in range(2)]
        premises = [("atom", names[0])] + links + extra
        if i % 4 == 3:  # drop the chain's start: no longer entailed
            premises = premises[1:]
        rng.shuffle(premises)
        ops.append(_entail_op(premises, ("atom", names[-1])))
    for n in (8, 9, 10, 11, 13, 14):
        ops.append(_falsify_op(disjunction_of(atom_pool(rng, n), rng)))
    for n in (8, 9, 10, 10, 12):
        names = atom_pool(rng, n)
        ops.append(_table_op(random_tree(rng, names, 2 * n)))
    for schema in rules.registry() * 2:
        ops.append(
            Op(
                "verify_rule",
                lambda name=schema.name: rules.verify_rule(name),
                lambda out: out is logic.Classification.TAUTOLOGY,
            )
        )
    for n in (8, 8, 8, 9, 9, 9, 10, 10):
        schema = rng.choice(rules.registry())
        names = atom_pool(rng, n)
        pattern = from_formula(schema.pattern)
        metas = [a.name for a in schema.metavariables]
        shares = [names[i :: len(metas)] for i in range(len(metas))]
        images = {meta: random_tree(rng, part, len(part) + 1) for meta, part in zip(metas, shares)}
        want = _substitute(pattern, images)
        mapping = {meta: to_formula(image) for meta, image in images.items()}
        ops.append(
            Op(
                "instantiate",
                lambda name=schema.name, mapping=mapping: rules.instantiate(name, mapping),
                lambda out, want=want: from_formula(out) == want,
            )
        )
        ops.append(_classify_op(want))
    return ops


# --- grammar-roundtrip ---------------------------------------------------------

_STYLES = tuple(parser.Style)
_SPELLINGS = tuple(o.SPELLINGS)
_TARGET_LENGTHS = (200, 250, 300, 400, 500, 800, 1200, 1700, 2300, 3000, 4000, 5000)


def _long_formula(rng: Random, target: int, spelling: str):
    """A formula of about ``target`` characters over 18–24 atoms whose
    classification is settled (contingent) within the first eight rows."""
    while True:
        names = atom_pool(rng, rng.randint(18, 24))
        chars_per_leaf = sum(len(n) for n in names) / len(names) + 7
        tree = random_tree(rng, names, max(len(names), round(target / chars_per_leaf)))
        if o.first_contingent_row(tree, o.atom_names(tree)) is not None:
            return tree, o.print_parenthesised(tree, rng, spelling)


def _monadic_tree(rng: Random, leaves: int, bound: tuple[str, ...] = ()):
    preds = ("P", "Q", "R")
    if not bound or (leaves > 1 and rng.random() < 0.2 and len(bound) < 3):
        var = rng.choice([v for v in ("x", "z", "u") if v not in bound])
        return (rng.choice(("forall", "exists")), var, _monadic_tree(rng, leaves, bound + (var,)))
    if leaves == 1:
        node = ("pred", rng.choice(preds), rng.choice(bound))
    else:
        left = rng.randint(1, leaves - 1)
        node = (
            rng.choice(("and", "or", "implies")),
            _monadic_tree(rng, left, bound),
            _monadic_tree(rng, leaves - left, bound),
        )
    return ("not", node) if rng.random() < 0.2 else node


def _negate_check(original):
    def check(out) -> bool:
        negated = from_monadic(out)
        return o.is_nnf(negated) and o.negation_agrees(original, negated)

    return check


def grammar_roundtrip(rng: Random) -> list[Op]:
    """Long formulas through both parsers and printers; enumeration is cut
    short by an early contingent verdict."""
    ops: list[Op] = []
    for i, target in enumerate(_TARGET_LENGTHS):
        tree, text = _long_formula(rng, target, _SPELLINGS[i % 3])
        formula = to_formula(tree)
        same_tree = lambda out, t=tree: from_formula(out) == t  # noqa: E731
        ops.append(Op("parse", lambda text=text: parser.parse(text), same_tree))
        ops.append(
            Op(
                "classify",
                lambda f=formula: logic.classify(f),
                lambda out: out is logic.Classification.CONTINGENT,
            )
        )
        names = o.atom_names(tree)
        for style in _STYLES:
            printed: dict[str, str] = {}

            def fmt(f=formula, style=style, printed=printed):
                printed["text"] = parser.format_formula(f, style)
                return printed["text"]

            ops.append(
                Op("format", fmt, lambda out, names=names: all(n in out for n in names))
            )
            ops.append(Op("parse", lambda printed=printed: parser.parse(printed["text"]), same_tree))
    for leaves in (6, 12, 20, 30):
        tree = _monadic_tree(rng, leaves)
        text = o.print_monadic(tree, rng)
        state: dict[str, Any] = {}

        def parse_first(text=text, state=state):
            state["parsed"] = categorical.parse_monadic(text)
            return state["parsed"]

        def negate(state=state):
            state["negated"] = categorical.negate_quantifiers(state["parsed"])
            return state["negated"]

        def fmt(state=state):
            state["text"] = categorical.format_monadic(state["negated"])
            return state["text"]

        ops.append(Op("parse_monadic", parse_first, lambda out, t=tree: from_monadic(out) == t))
        ops.append(Op("negate_quantifiers", negate, _negate_check(tree)))
        ops.append(Op("format_monadic", fmt, lambda out: isinstance(out, str)))
        ops.append(
            Op(
                "parse_monadic",
                lambda state=state: categorical.parse_monadic(state["text"]),
                lambda out, state=state: out == state["negated"],
            )
        )
    return ops


# --- models-plans ----------------------------------------------------------------

_KINDS = ("all", "no", "some", "some-not")


def _syllogism_op(syllogism, forms, existential_import: bool) -> Op:
    valid, inhabited, _ = o.syllogism_search(*forms, existential_import)
    names = sorted({forms[0][1], forms[0][2], forms[1][1], forms[1][2], forms[2][1], forms[2][2]})
    want = None if valid else o.model_of(names, inhabited)

    def check(verdict) -> bool:
        if verdict.valid is not valid:
            return False
        if valid:
            return verdict.counter_model is None
        model = verdict.counter_model
        got = {k: sorted(v) for k, v in model.extensions.items()}
        return (model.universe_size, got) == want

    return Op(
        "valid_syllogism",
        lambda: categorical.valid_syllogism(syllogism, existential_import),
        check,
    )


def _runs(actions) -> list[tuple[bool, int, int]]:
    """Run-length form of a plan: (is_add, capacity, count) per run."""
    out: list[list] = []
    previous = None
    for action in actions:
        if action is previous or action == previous:
            out[-1][2] += 1
            continue
        out.append([isinstance(action, jugs.AddJug), action.capacity, 1])
        previous = action
    return [tuple(run) for run in out]


def _coprime_pair(rng: Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        n, m = rng.randint(lo, hi), rng.randint(lo, hi)
        if n != m and math.gcd(n, m) == 1:
            return n, m


def _certificate_problem(rng: Random, lo: int, hi: int) -> tuple[int, int, int]:
    """Vessels and target whose certificate plan has between lo and hi actions."""
    while True:
        n, m = _coprime_pair(rng, 200_000, 10**6)
        target = rng.randint(1, 10**6)
        if lo <= o.certificate_length(n, m, target) <= hi:
            return n, m, target


def _shortest_problem(rng: Random, ceiling: int) -> tuple[int, int, int]:
    """Small coprime vessels and a target near ``ceiling`` that is also the
    search ceiling, so the search covers about ``ceiling`` totals."""
    while True:
        n, m = _coprime_pair(rng, 50, 300)
        target = ceiling - rng.randrange(ceiling // 50)
        if o.search_ceiling(n, m, target) == target:
            return n, m, target


def _plan_op(n: int, m: int, target: int, strategy: jugs.Strategy, holder=None) -> Op:
    g = math.gcd(n, m)
    problem = jugs.JugProblem(n, m, target)

    def run():
        try:
            result = jugs.plan(problem, strategy)
        except jugs.NotAchievable as exc:
            return exc
        if holder is not None:
            holder["plan"] = result
        return result

    def check(out) -> bool:
        if target % g:
            return isinstance(out, jugs.NotAchievable) and out.gcd == g
        if not isinstance(out, jugs.PourPlan):
            return False
        if o.replay(_runs(out.actions), n, m) != target:
            return False
        return strategy is not jugs.Strategy.SHORTEST or len(out) == o.min_plan_length(n, m, target)

    return Op(f"plan_{strategy.value}", run, check)


def models_plans(rng: Random) -> list[Op]:
    """Syllogism model search and the jug planners."""
    ops: list[Op] = []
    for name, syllogism in categorical.registry_syllogisms():
        forms = tuple(
            (f.kind.value, f.subject, f.predicate)
            for f in (syllogism.major, syllogism.minor, syllogism.conclusion)
        )
        for existential_import in (False, True):
            op = _syllogism_op(syllogism, forms, existential_import)
            want = o.CLASSICAL_MOODS[name][existential_import]
            ops.append(Op(op.kind, op.run, lambda out, op=op, want=want: out.valid is want and op.check(out)))
    # Custom syllogisms: 27 valid ones, which search every canonical model
    # and so hold the median latency, and 8 invalid ones.
    for want_valid in (True,) * 27 + (False,) * 8:
        while True:
            a, b, mid = atom_pool(rng, 3)
            major = (rng.choice(_KINDS),) + rng.choice(((mid, b), (b, mid)))
            minor = (rng.choice(_KINDS),) + rng.choice(((a, mid), (mid, a)))
            conclusion = (rng.choice(_KINDS), a, b)
            existential_import = rng.random() < 0.5
            if o.syllogism_search(major, minor, conclusion, existential_import)[0] is want_valid:
                break
        syllogism = categorical.Syllogism(
            *(categorical.parse_categorical(":".join(form)) for form in (major, minor, conclusion))
        )
        ops.append(_syllogism_op(syllogism, (major, minor, conclusion), existential_import))
    for _ in range(8):
        n, m = rng.randint(1, 10**6), rng.randint(0, 10**6)
        ops.append(Op("gcd", lambda n=n, m=m: jugs.gcd(n, m), lambda out, g=math.gcd(n, m): out == g))
    for _ in range(8):
        n, m = rng.randint(1, 10**6), rng.randint(1, 10**6)

        def bezout_check(c, n=n, m=m) -> bool:
            g = math.gcd(n, m)
            return c.g == g and c.a * n + c.b * m == g and 0 <= c.a < m // g

        ops.append(Op("bezout", lambda n=n, m=m: jugs.bezout(n, m), bezout_check))
    for _ in range(4):
        g = rng.randint(2, 9)
        n, m = _coprime_pair(rng, 2, 1000)
        n, m, limit = n * g, m * g, rng.randint(100_000, 200_000)
        ops.append(
            Op(
                "achievable_amounts",
                lambda n=n, m=m, limit=limit: jugs.achievable_amounts(n, m, limit),
                lambda out, g=g, limit=limit: out == list(range(g, limit + 1, g)),
            )
        )
    for lo, hi in ((100_000, 150_000), (150_000, 250_000), (250_000, 400_000), (800_000, 1_000_000)):
        n, m, target = _certificate_problem(rng, lo, hi)
        holder: dict[str, Any] = {}
        ops.append(_plan_op(n, m, target, jugs.Strategy.CERTIFICATE, holder))
        ops.append(
            Op(
                "simulate",
                lambda holder=holder, n=n, m=m: jugs.simulate(holder["plan"], n, m),
                lambda out, target=target: out == target,
            )
        )
    # Ten searches over 10^5 totals hold the 90th-percentile latency.
    for ceiling in (100_000,) * 10 + (200_000,):
        ops.append(_plan_op(*_shortest_problem(rng, ceiling), jugs.Strategy.SHORTEST))
    for strategy in (jugs.Strategy.CERTIFICATE, jugs.Strategy.SHORTEST) * 3:
        g = rng.randint(2, 50)
        n, m = _coprime_pair(rng, 2, 10**6 // g)
        target = g * rng.randint(1, 10**6) + rng.randint(1, g - 1)
        ops.append(_plan_op(n * g, m * g, target, strategy))
    return ops


# --- cli-mix ----------------------------------------------------------------------

#: The three inputs whose nesting depth escapes the CLI as a RecursionError.
DEEP_INPUTS = (
    ["--format", "json", "classify", "¬" * 3000 + "P"],
    ["--format", "json", "classify", "(" * 3000 + "P" + ")" * 3000],
    ["--format", "json", "quant", "negate", "forall x. " * 2000 + "P(x)"],
)

_RULE_METAVARIABLES = {
    "modus-ponens": "PQ",
    "tollendo-ponens": "PQ",
    "tollendo-tollens": "PQ",
    "contrapuesta": "PQ",
    "silogismo-hipotetico": "PQR",
    "dilema-constructivo": "PQRS",
    "dilema-destructivo": "PQRS",
    "exportacion": "PQR",
}

_SPANISH = {"tautology": "tautología", "contradiction": "contradicción", "contingent": "contingente"}


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def _valuation_text(valuation: dict[str, bool]) -> str:
    return " ".join(f"{k}={'V' if v else 'F'}" for k, v in valuation.items())


def _json_of(result: CliResult) -> dict | None:
    lines = result.out.splitlines()
    if len(lines) != 1:
        return None
    try:
        return json.loads(lines[0])
    except ValueError:
        return None


def _cli_check(expect: Callable[[CliResult], bool]) -> Callable[[CliResult], bool | None]:
    """Exit 0, 1 or 2 without a traceback, then the command's own check."""

    def check(result: CliResult) -> bool | None:
        if result.code not in (0, 1, 2) or "Traceback" in result.err:
            return None
        return expect(result)

    return check


def _expect_verdict(code: int, text_lines=None, json_fields=None, counterexample=...):
    """Exit ``code`` and either exactly ``text_lines`` on stdout, or a JSON
    envelope whose result has ``json_fields`` (and the given counterexample)."""

    def expect(result: CliResult) -> bool:
        if result.code != code:
            return False
        if text_lines is not None:
            return result.out.splitlines() == text_lines
        envelope = _json_of(result)
        if envelope is None or envelope["status"] != ("ok" if code == 0 else "invalid"):
            return False
        if counterexample is not ... and envelope["counterexample"] != counterexample:
            return False
        return all(envelope["result"].get(k) == v for k, v in json_fields.items())

    return expect


def _expect_usage(fragment: str):
    return lambda r: r.code == 2 and r.out == "" and fragment in r.err


def _classify_cmd(tree, rng: Random, as_json: bool):
    text = o.print_parenthesised(tree, rng, rng.choice(_SPELLINGS))
    vectors = o.Vectors(o.atom_names(tree))
    vector = vectors.of(tree)
    verdict = o.classify_vector(vector, vectors.full)
    row = o.first_false_row(vector, vectors.full)
    counter = None if row is None else vectors.valuation(row)
    code = 0 if verdict == "tautology" else 1
    if as_json:
        expect = _expect_verdict(code, json_fields={"classification": verdict}, counterexample=counter)
        return ["classify", text, "--format", "json"], expect
    lines = [_SPANISH[verdict]] + ([f"contraejemplo: {_valuation_text(counter)}"] if counter else [])
    return ["classify", text], _expect_verdict(code, text_lines=lines)


def _entail_cmd(premises, goal, rng: Random, as_json: bool):
    joined = premises[0]
    for premise in premises[1:]:
        joined = ("and", joined, premise)
    vectors = o.Vectors(o.atom_names(("implies", joined, goal)))
    counter_rows = vectors.of(joined) & (vectors.full ^ vectors.of(goal))
    counter = vectors.valuation(o.lowest_bit(counter_rows)) if counter_rows else None
    argv = ["entail"]
    for premise in premises:
        argv += ["--premise", o.print_parenthesised(premise, rng, rng.choice(_SPELLINGS))]
    argv += ["--conclusion", o.print_parenthesised(goal, rng, "ascii")]
    code = 1 if counter else 0
    if as_json:
        expect = _expect_verdict(code, json_fields={"valid": not counter}, counterexample=counter)
        return argv + ["--format", "json"], expect
    lines = ["inválido", f"contraejemplo: {_valuation_text(counter)}"] if counter else ["válido"]
    return argv, _expect_verdict(code, text_lines=lines)


def _small_tree(rng: Random, names, want: str):
    while True:
        tree = random_tree(rng, names, rng.randint(3, 6))
        vectors = o.Vectors(o.atom_names(tree))
        if o.classify_vector(vectors.of(tree), vectors.full) == want:
            return tree


def _deep_check(argv) -> Callable[[CliResult], bool]:
    if argv[2] == "classify":
        # Any depth of negation pairs or parentheses around P is contingent,
        # refuted at P=F.
        return _expect_verdict(
            1, json_fields={"classification": "contingent"}, counterexample={"P": False}
        )

    def expect(result: CliResult) -> bool:
        if result.code == 2:
            return True
        envelope = _json_of(result)
        if result.code != 0 or envelope is None:
            return False
        tokens = re.findall(r"\w+|[^\w\s]", envelope["result"]["negation_nnf"])
        negation = tokens[3 * 2000 : -4]
        return (
            tokens[: 3 * 2000] == ["exists", "x", "."] * 2000
            and negation in (["~"], ["¬"], ["!"], ["no"])
            and tokens[-4:] == ["P", "(", "x", ")"]
        )

    return expect


def cli_commands(rng: Random, copies: int = 1, deep: bool = True) -> list[tuple[str, list[str], Callable]]:
    """(kind, argv, check): ``copies`` sets of every subcommand in text and
    JSON mode with usage and parse errors, then (with ``deep``) the three
    deep-nesting inputs."""
    cmds = [cmd for _ in range(copies) for cmd in _cli_set(rng)]
    if deep:
        cmds += [("deep", argv, _cli_check(_deep_check(argv))) for argv in DEEP_INPUTS]
    return cmds


def _verdict_word(code: int, valid: bool):
    """Exit ``code`` and a first line of válido / inválido."""
    word = "válido" if valid else "inválido"
    return lambda r: r.code == code and r.out.splitlines()[:1] == [word]


def _result_of(result: CliResult) -> dict:
    envelope = _json_of(result)
    if envelope is None:
        raise ValueError("not one JSON object")
    return envelope["result"]


def _json_flag(as_json: bool) -> list[str]:
    return ["--format", "json"] if as_json else []


def _cli_set(rng: Random) -> list[tuple[str, list[str], Callable]]:
    cmds: list[tuple[str, list[str], Callable]] = []

    def add(argv, expect):
        kind = next((a for a in argv if not a.startswith("-") and a != "json"), "usage")
        cmds.append((kind, argv, _cli_check(expect)))

    names = atom_pool(rng, 3)
    table_tree = random_tree(rng, names, 5)
    vectors = o.Vectors(o.atom_names(table_tree))
    vector = vectors.of(table_tree)
    table_text = o.print_parenthesised(table_tree, rng, "keyword")
    want_rows = [(vectors.valuation(i), bool(vector >> i & 1)) for i in range(vectors.rows)]

    def table_text_check(r: CliResult) -> bool:
        rows = [line.split() for line in r.out.splitlines()[1:]]
        cells = [["V" if b else "F" for b in (*valuation.values(), value)] for valuation, value in want_rows]
        return r.code == 0 and rows == cells

    def table_json_check(r: CliResult) -> bool:
        rows = [{"valuation": valuation, "value": value} for valuation, value in want_rows]
        return r.code == 0 and _result_of(r)["rows"] == rows

    add(["table", table_text], table_text_check)
    add(["table", "--format", "json", table_text], table_json_check)
    for want in ("tautology", "contingent", "contradiction"):
        for as_json in (False, True):
            add(*_classify_cmd(_small_tree(rng, names, want), rng, as_json))

    left = random_tree(rng, names, 5)
    for right, as_json in (
        (rewrite(left, rng), False),
        (rewrite(left, rng), True),
        (random_tree(rng, names, 5), False),
        (random_tree(rng, names, 5), True),
    ):
        both = ("iff", left, right)
        both_vectors = o.Vectors(o.atom_names(both))
        row = o.first_false_row(both_vectors.of(both), both_vectors.full)
        counter = None if row is None else both_vectors.valuation(row)
        argv = ["equiv", o.print_parenthesised(left, rng, "ascii"), o.print_parenthesised(right, rng, "symbolic")]
        if as_json:
            fields = {"equivalent": row is None}
            add(argv + ["--format", "json"], _expect_verdict(int(row is not None), json_fields=fields, counterexample=counter))
        elif row is None:
            add(argv, _expect_verdict(0, text_lines=["equivalentes"]))
        else:
            lines = ["no equivalentes", f"contraejemplo: {_valuation_text(counter)}"]
            add(argv, _expect_verdict(1, text_lines=lines))

    rule_names = list(_RULE_METAVARIABLES)
    add(["rules", "list"], lambda r: r.code == 0 and r.out.splitlines() == rule_names)
    add(["--format", "json", "rules", "list"], lambda r: r.code == 0 and [x["name"] for x in _result_of(r)["rules"]] == rule_names)
    rule = rng.choice(rule_names)
    metavariables = list(_RULE_METAVARIABLES[rule])
    add(["rules", "show", rule], lambda r: r.code == 0 and r.out.splitlines()[2] == "metavariables: " + " ".join(metavariables))
    add(["rules", "show", rule, "--format", "json"], _expect_verdict(0, json_fields={"name": rule, "metavariables": metavariables}))
    rule = rng.choice(rule_names)
    add(["rules", "verify", rule], _expect_verdict(0, text_lines=["tautología"]))
    add(["rules", "verify", rule, "--format", "json"], _expect_verdict(0, json_fields={"classification": "tautology"}, counterexample=None))

    chain = atom_pool(rng, 4)
    premises = [("atom", chain[0])] + [("implies", ("atom", a), ("atom", b)) for a, b in zip(chain, chain[1:])]
    for used in (premises, premises[1:]):  # valid, then without the chain's start
        for as_json in (False, True):
            add(*_entail_cmd(used, ("atom", chain[-1]), rng, as_json))

    moods = list(o.CLASSICAL_MOODS)
    add(["syllogism", "list"], lambda r: r.code == 0 and [line.split(":")[0] for line in r.out.splitlines()] == moods)
    add(["syllogism", "list", "--format", "json"], lambda r: r.code == 0 and [x["name"] for x in _result_of(r)["syllogisms"]] == moods)
    for mood, flags in (
        (rng.choice(moods), []),
        (rng.choice(("darapti", "felapton")), []),
        (rng.choice(moods), ["--existential-import"]),
    ):
        valid = o.CLASSICAL_MOODS[mood][bool(flags)]
        add(["syllogism", "check", mood] + flags, _verdict_word(int(not valid), valid))
        fields = {"valid": valid, "valid_with_existential_import": o.CLASSICAL_MOODS[mood][1]}
        add(["syllogism", "check", mood, "--format", "json"] + flags, _expect_verdict(int(not valid), json_fields=fields))
    for as_json in (False, True):
        a, b, mid = atom_pool(rng, 3)
        forms = ((rng.choice(_KINDS), mid, b), (rng.choice(_KINDS), a, mid), (rng.choice(_KINDS), a, b))
        flag = rng.random() < 0.5
        valid, inhabited, _ = o.syllogism_search(*forms, flag)
        argv = ["syllogism", "custom", *(":".join(f) for f in forms)] + (["--existential-import"] if flag else [])
        if not as_json:
            add(argv, _verdict_word(int(not valid), valid))
            continue
        counter = None
        if not valid:
            size, extensions = o.model_of(sorted((a, b, mid)), inhabited)
            counter = {"universe_size": size, "extensions": extensions}
        add(argv + ["--format", "json"], _expect_verdict(int(not valid), json_fields={"valid": valid}, counterexample=counter))

    tree = _monadic_tree(rng, 5)
    text = o.print_monadic(tree, rng)
    negate = _negate_check(tree)
    # The CLI's output is read back with deduce's own monadic parser, which
    # grammar-roundtrip checks against the benchmark's printer.
    add(["quant", "negate", text], lambda r: r.code == 0 and negate(categorical.parse_monadic(r.out)))
    add(
        ["quant", "negate", text, "--format", "json"],
        lambda r: r.code == 0 and negate(categorical.parse_monadic(_result_of(r)["negation_nnf"])),
    )

    n, m = rng.randint(2, 10**6), rng.randint(0, 10**6)
    add(["jugs", "gcd", "--n", str(n), "--m", str(m)], _expect_verdict(0, text_lines=[str(math.gcd(n, m))]))
    add(["jugs", "gcd", "--n", str(m + 1), "--m", str(n), "--format", "json"], _expect_verdict(0, json_fields={"gcd": math.gcd(m + 1, n)}))
    for as_json in (False, True):
        n, m = rng.randint(2, 10**6), rng.randint(1, 10**6)

        def bezout_check(r: CliResult, n=n, m=m, as_json=as_json) -> bool:
            res = _result_of(r) if as_json else dict(item.split("=") for item in r.out.split())
            g, a, b = (int(res[k]) for k in "gab")
            return r.code == 0 and g == math.gcd(n, m) and a * n + b * m == g and 0 <= a < m // g

        add(["jugs", "bezout", "--n", str(n), "--m", str(m)] + _json_flag(as_json), bezout_check)
    g = rng.randint(1, 9)
    n, m = _coprime_pair(rng, 2, 50)
    amounts = [str(a) for a in range(g, 61, g)]
    add(["jugs", "amounts", "--n", str(n * g), "--m", str(m * g), "--limit", "60"], _expect_verdict(0, text_lines=[" ".join(amounts)]))
    add(
        ["jugs", "amounts", "--n", str(m * g), "--m", str(n * g), "--limit", "90", "--format", "json"],
        _expect_verdict(0, json_fields={"amounts": list(range(g, 91, g))}),
    )
    for strategy in ("certificate", "shortest"):
        n, m = _coprime_pair(rng, 2, 60)
        target = rng.randint(1, 200)

        def plan_check(r: CliResult, n=n, m=m, target=target, strategy=strategy) -> bool:
            res = _result_of(r)
            runs = [(a["action"] == "add", a["capacity"], 1) for a in res["actions"]]
            if r.code != 0 or o.replay(runs, n, m) != target or res["length"] != len(runs):
                return False
            return strategy == "certificate" or len(runs) == o.min_plan_length(n, m, target)

        argv = ["jugs", "plan", "--n", str(n), "--m", str(m), "--target", str(target), "--strategy", strategy]
        add(argv + ["--format", "json"], plan_check)
    g = rng.randint(2, 9)
    n, m = _coprime_pair(rng, 2, 50)
    target = g * rng.randint(1, 50) + 1
    add(
        ["jugs", "plan", "--n", str(n * g), "--m", str(m * g), "--target", str(target)],
        lambda r: r.code == 1 and r.out.splitlines()[0] == "inalcanzable" and f"= {g} " in r.out,
    )

    add([], _expect_usage("usage"))
    add(["frobnicate"], _expect_usage("invalid choice"))
    add(["classify", f"{names[0]} y"], _expect_usage("UnexpectedEnd"))
    add(["classify", f"({names[0]} ó {names[1]}"], _expect_usage("UnbalancedParen"))
    add(["jugs", "plan", "--n", "0", "--m", "3", "--target", "1"], _expect_usage("usage"))
    add(["syllogism", "check", "nonexistent"], _expect_usage("unknown syllogism"))
    return cmds


def subprocess_op(kind: str, argv: list[str], check, root: str, env: dict) -> Op:
    command = [sys.executable, "-m", "deduce.cli", *argv]

    def run() -> CliResult:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=60)
        return CliResult(done.returncode, done.stdout, done.stderr)

    return Op(kind, run, check)


def in_process_op(kind: str, argv: list[str], check) -> Op:
    """``deduce.cli.main(argv)`` with its output captured; an exception that
    escapes ``main`` counts as a traceback."""

    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except RecursionError:
                return CliResult(1, out.getvalue(), err.getvalue() + "Traceback: RecursionError\n")
        return CliResult(code, out.getvalue(), err.getvalue())

    return Op(kind, run, check)


def probe_ops(rng: Random) -> list[Op]:
    """One small call each to the traced functions the CLI never makes."""
    names = atom_pool(rng, 4)
    left = random_tree(rng, names, 6)
    n, m = _coprime_pair(rng, 2, 100)
    target = rng.randint(1, 500)
    holder: dict[str, Any] = {}
    return [
        _equivalent_op(left, rewrite(left, rng)),
        _plan_op(n, m, target, jugs.Strategy.CERTIFICATE, holder),
        Op(
            "simulate",
            lambda: jugs.simulate(holder["plan"], n, m),
            lambda out: out == target,
        ),
    ]


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def build_ops(workload: str, rng: Random, root: str) -> list[Op]:
    if workload == "prop-enum":
        return prop_enum(rng)
    if workload == "grammar-roundtrip":
        return grammar_roundtrip(rng)
    if workload == "models-plans":
        return models_plans(rng)
    if workload == "cli-mix":
        env = cli_env(root)
        commands = cli_commands(rng, copies=2)
        return [subprocess_op(kind, argv, check, root, env) for kind, argv, check in commands]
    raise ValueError(f"unknown workload {workload!r}")
