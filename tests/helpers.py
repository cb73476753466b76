"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they are checking:
propositional answers come from one call per canonical row of
``reference_evaluate`` (the recursive walk that ``evaluate`` replaced),
monadic ones from the recursive ``reference_eval_monadic``, table rows
from the row-at-a-time ``reference_truth_table``, parses from
the character-at-a-time ``reference_parse``, token lists from the token
pattern read by ``findall`` in ``pattern_tokenize``, the text of a
truth table from a grid whose columns are measured cell by cell, its JSON
from ``json.dumps`` of one dict per row, record reprs
and equality from frozen dataclass twins, entailment is scanned
premise-by-premise without building the implication formula, syllogism validity is decided by evaluating the three forms on
each canonical model or by naive enumeration of every model up to a
universe size, jug reachability is a plain breadth-first closure over
running totals, plans are replayed one action at a time, and the
command-line parser is the argparse tree spelt out one call per parser and
option.  ``contract_digest`` hashes what ``deduce`` prints for a list of argvs,
so that a committed digest pins the output contract.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
from collections import deque
from collections.abc import Sequence
from dataclasses import make_dataclass
from pathlib import Path
from random import Random
from unittest import mock

import hypothesis.strategies as st

import deduce
from deduce import cli
from deduce.categorical import (
    CategoricalForm,
    Exists,
    FiniteModel,
    ForAll,
    FormKind,
    MAnd,
    MImplies,
    MNot,
    MOr,
    MonadicFormula,
    PredApp,
    Syllogism,
    Verdict,
    canonical_models,
    eval_categorical,
)
from deduce._record import Record
from deduce.jugs import Action, AddJug, PlanViolation, RemoveJug, ViolationKind
from deduce.logic import (
    And,
    Atomic,
    Classification,
    Formula,
    Iff,
    Implies,
    Not,
    MissingAtom,
    Or,
    TableRow,
    TruthTable,
    _scan,
    prop,
)
from deduce.parser import (
    _BOTTOM,
    _NOT_PREC,
    _PAREN,
    _SCOPE,
    _WORDS,
    _Fault,
    ErrorKind,
    ParseError,
    SourceSpan,
    Style,
    format_formula,
)

# --- Random propositional formulas ------------------------------------------

_BINARY = (Or, And, Implies, Iff)


def random_formula(rng: Random, names: tuple[str, ...], max_depth: int) -> Formula:
    if max_depth == 0 or rng.random() < 0.3:
        return prop(rng.choice(names))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, names, max_depth - 1))
    left = random_formula(rng, names, max_depth - 1)
    right = random_formula(rng, names, max_depth - 1)
    return _BINARY[kind - 1](left, right)


def formula_strategy(names=("P", "Q", "R", "S", "T"), max_leaves=12):
    leaves = st.sampled_from([prop(name) for name in names])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Implies, kids, kids),
            st.builds(Iff, kids, kids),
        ),
        max_leaves=max_leaves,
    )


# --- Propositional reference: one recursive walk per canonical row ----------


def reference_evaluate(formula: Formula, valuation) -> bool:
    """``logic.evaluate`` by one recursive call per node, short-circuiting
    ``or`` and ``and``."""
    match formula:
        case Atomic(atom):
            try:
                return valuation[atom.name]
            except KeyError:
                raise MissingAtom(atom.name) from None
        case Not(inner):
            return not reference_evaluate(inner, valuation)
        case Or(left, right):
            return reference_evaluate(left, valuation) or reference_evaluate(right, valuation)
        case And(left, right):
            return reference_evaluate(left, valuation) and reference_evaluate(right, valuation)
        case Implies(left, right):
            return (not reference_evaluate(left, valuation)) or reference_evaluate(
                right, valuation
            )
        case Iff(left, right):
            return reference_evaluate(left, valuation) == reference_evaluate(right, valuation)
    raise TypeError(f"not a formula: {formula!r}")


def atom_names(formula: Formula) -> list[str]:
    """The formula's atom names, alphabetical, by a plain recursive walk."""
    if isinstance(formula, Atomic):
        return [formula.atom.name]
    if isinstance(formula, Not):
        return atom_names(formula.inner)
    return sorted(set(atom_names(formula.left)) | set(atom_names(formula.right)))


def canonical_valuations(names):
    """Every valuation of ``names``: first name varying slowest, V before F."""
    for bits in itertools.product((True, False), repeat=len(names)):
        yield dict(zip(names, bits))


def reference_table(formula: Formula, names) -> list[tuple[dict[str, bool], bool]]:
    return [(v, reference_evaluate(formula, v)) for v in canonical_valuations(names)]


def reference_truth_table(formula: Formula, over=None) -> TruthTable:
    """``logic.truth_table`` with rows built one at a time: a ``dict`` of
    all the columns and a constructed ``TableRow`` per canonical row.  The
    values come from the engine's own scan, so this checks how rows are
    built, not what the formula evaluates to."""
    columns, full, vectors = _scan(formula, over)
    width = full.bit_length()
    values = "".join(format(vector, f"0{width}b")[::-1] for vector in vectors)
    names = [atom.name for atom in columns]
    rows = tuple(
        TableRow(dict(zip(names, bits)), value == "1")
        for bits, value in zip(itertools.product((True, False), repeat=len(names)), values)
    )
    return TruthTable(columns, rows)


def reference_table_lines(formula: Formula) -> list[str]:
    """The text of ``deduce table``, laid out as a grid: every column as
    wide as its widest cell, cells left-justified, two spaces between
    columns, trailing blanks stripped."""
    names = atom_names(formula)
    grid = [names + [format_formula(formula, Style.SPANISH)]]
    for valuation, value in reference_table(formula, names):
        grid.append(["V" if valuation[name] else "F" for name in names] + ["V" if value else "F"])
    widths = [max(len(line[col]) for line in grid) for col in range(len(grid[0]))]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in grid
    ]


def reference_table_json(formula: Formula) -> str:
    """The stdout of ``deduce table --format json``: the envelope, with a
    dict per row of ``reference_truth_table``, dumped by ``json``."""
    table = reference_truth_table(formula)
    result = {
        "formula": format_formula(formula),
        "atoms": [atom.name for atom in table.atoms],
        "rows": [{"valuation": row.valuation, "value": row.value} for row in table.rows],
    }
    envelope = {"status": "ok", "command": "table", "result": result, "counterexample": None}
    return json.dumps(envelope, sort_keys=True, ensure_ascii=True, separators=(",", ":")) + "\n"


def reference_classify(formula: Formula) -> Classification:
    values = {value for _, value in reference_table(formula, atom_names(formula))}
    if values == {True}:
        return Classification.TAUTOLOGY
    if values == {False}:
        return Classification.CONTRADICTION
    return Classification.CONTINGENT


def reference_falsifying(formula: Formula) -> dict[str, bool] | None:
    for valuation in canonical_valuations(atom_names(formula)):
        if not reference_evaluate(formula, valuation):
            return valuation
    return None


def reference_equivalent(f: Formula, g: Formula) -> bool:
    names = sorted(set(atom_names(f)) | set(atom_names(g)))
    return all(
        reference_evaluate(f, v) == reference_evaluate(g, v)
        for v in canonical_valuations(names)
    )


# --- Entailment oracle: direct scan, no implication formula ------------------


def scan_entails(premises, conclusion) -> tuple[bool, dict[str, bool] | None]:
    """Check every valuation of the joint atoms directly."""
    joint = set(atom_names(conclusion))
    for premise in premises:
        joint.update(atom_names(premise))
    for valuation in canonical_valuations(sorted(joint)):
        if all(
            reference_evaluate(premise, valuation) for premise in premises
        ) and not reference_evaluate(conclusion, valuation):
            return False, valuation
    return True, None


# --- Random monadic formulas (closed, depth-bounded) -------------------------

_VARS = ("x", "z", "w")


def random_monadic(
    rng: Random, max_depth: int = 4, preds: tuple[str, ...] = ("P", "Q", "R")
) -> MonadicFormula:
    var = rng.choice(_VARS)
    quantifier = rng.choice((ForAll, Exists))
    return quantifier(var, _random_monadic_body(rng, max_depth - 1, preds, [var]))


def _random_monadic_body(rng, depth, preds, scope) -> MonadicFormula:
    if depth == 0 or rng.random() < 0.3:
        return PredApp(rng.choice(preds), rng.choice(scope))
    choice = rng.randrange(6)
    if choice == 0:
        return MNot(_random_monadic_body(rng, depth - 1, preds, scope))
    if choice < 4:
        connective = (MAnd, MOr, MImplies)[choice - 1]
        return connective(
            _random_monadic_body(rng, depth - 1, preds, scope),
            _random_monadic_body(rng, depth - 1, preds, scope),
        )
    var = rng.choice(_VARS)
    quantifier = ForAll if choice == 4 else Exists
    return quantifier(var, _random_monadic_body(rng, depth - 1, preds, scope + [var]))


def reference_eval_monadic(formula: MonadicFormula, model: FiniteModel) -> bool:
    """``categorical.eval_monadic`` on a closed formula, by one recursive
    call per node and element, short-circuiting like ``all`` and ``any``."""

    def go(f: MonadicFormula, env: dict[str, int]) -> bool:
        match f:
            case PredApp(pred, var):
                return env[var] in model.extension(pred)
            case MNot(inner):
                return not go(inner, env)
            case MAnd(a, b):
                return go(a, env) and go(b, env)
            case MOr(a, b):
                return go(a, env) or go(b, env)
            case MImplies(a, b):
                return (not go(a, env)) or go(b, env)
            case ForAll(var, body):
                return all(
                    go(body, env | {var: element})
                    for element in range(model.universe_size)
                )
            case Exists(var, body):
                return any(
                    go(body, env | {var: element})
                    for element in range(model.universe_size)
                )
        raise TypeError(f"not a monadic formula: {f!r}")

    return go(formula, {})


def is_nnf(formula: MonadicFormula) -> bool:
    """Negations only on predicate applications (and no implications left
    behind negation pushing would need)."""
    match formula:
        case PredApp():
            return True
        case MNot(inner):
            return isinstance(inner, PredApp)
        case MAnd(a, b) | MOr(a, b) | MImplies(a, b):
            return is_nnf(a) and is_nnf(b)
        case ForAll(_, body) | Exists(_, body):
            return is_nnf(body)
    return False


def all_models(names: tuple[str, ...], max_size: int) -> list[FiniteModel]:
    """Every model over the given predicates with universe size up to max_size."""
    models = []
    codes = range(2 ** len(names))
    for size in range(max_size + 1):
        for assignment in itertools.product(codes, repeat=size):
            extensions = {
                name: frozenset(
                    element
                    for element, code in enumerate(assignment)
                    if code >> bit & 1
                )
                for bit, name in enumerate(names)
            }
            models.append(FiniteModel(size, extensions))
    return models


# --- Syllogism oracle: naive enumeration -------------------------------------


def random_mood(rng: Random) -> Syllogism:
    kinds = list(FormKind)
    major_terms = rng.choice((("M", "B"), ("B", "M")))
    minor_terms = rng.choice((("A", "M"), ("M", "A")))
    return Syllogism(
        CategoricalForm(rng.choice(kinds), *major_terms),
        CategoricalForm(rng.choice(kinds), *minor_terms),
        CategoricalForm(rng.choice(kinds), "A", "B"),
    )


def naive_valid_syllogism(
    syllogism: Syllogism, models: list[FiniteModel], existential_import: bool
) -> bool:
    names = syllogism.term_names()
    for model in models:
        if existential_import and not all(model.extensions[name] for name in names):
            continue
        if (
            eval_categorical(syllogism.major, model)
            and eval_categorical(syllogism.minor, model)
            and not eval_categorical(syllogism.conclusion, model)
        ):
            return False
    return True


def reference_valid_syllogism(
    syllogism: Syllogism, existential_import: bool = False
) -> Verdict:
    """The first canonical model, in enumeration order, that satisfies both
    premises and falsifies the conclusion, by evaluating the three forms on
    each model in turn."""
    names = syllogism.term_names()
    for model in canonical_models((names[0], names[1], names[2]), existential_import):
        if (
            eval_categorical(syllogism.major, model)
            and eval_categorical(syllogism.minor, model)
            and not eval_categorical(syllogism.conclusion, model)
        ):
            return Verdict(valid=False, counter_model=model)
    return Verdict(valid=True)


# --- Jug oracle: breadth-first closure over running totals -------------------


def oracle_ceiling(n: int, m: int, target: int) -> int:
    # Generous: covers both the certificate-style peak (< n·m) and the
    # reordering bound 2·max(n, m).
    return max(target, n * m, 2 * max(n, m))


def bfs_reachable(n: int, m: int, ceiling: int) -> set[int]:
    seen = {0}
    queue = deque([0])
    while queue:
        total = queue.popleft()
        for neighbor in (total + n, total + m, total - n, total - m):
            if 0 <= neighbor <= ceiling and neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


def bfs_min_plan_length(n: int, m: int, target: int, ceiling: int) -> int | None:
    distances = {0: 0}
    queue = deque([0])
    while queue:
        total = queue.popleft()
        if total == target:
            return distances[total]
        for neighbor in (total + n, total + m, total - n, total - m):
            if 0 <= neighbor <= ceiling and neighbor not in distances:
                distances[neighbor] = distances[total] + 1
                queue.append(neighbor)
    return None


# --- Plan replay reference: one action at a time ------------------------------


def reference_simulate(actions: Sequence[Action], n: int, m: int) -> int:
    """``jugs.simulate`` on the plan of ``actions``, one action at a time."""
    total = 0
    for index, action in enumerate(actions):
        if action.capacity not in (n, m):
            raise PlanViolation(index, ViolationKind.FOREIGN_CAPACITY)
        if isinstance(action, AddJug):
            total += action.capacity
        elif isinstance(action, RemoveJug):
            if total < action.capacity:
                raise PlanViolation(index, ViolationKind.NEGATIVE_AMOUNT)
            total -= action.capacity
        else:
            raise TypeError(f"not a plan action: {action!r}")
    return total


# --- Parser reference: the tokenizer that reads one character at a time ------
#
# The shared parser as it was before its tokenizer became one compiled
# pattern per grammar: tokens carry their offsets, symbols are tried with
# ``str.startswith``, longest first, and every leaf builds its own name.

#: The argument in a binary operator's frame.
_BINARY_FRAME = object()


def _reference_tokenize(text: str, grammar) -> list[tuple[str, str, int, int]]:
    tokens: list[tuple[str, str, int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalnum():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            kind = _WORDS.get(word)
            if kind is None and word.isascii():
                if word[0].isupper():
                    kind = "name"
                elif grammar.variables and word[0].islower():
                    kind = "var"
            if kind is None:
                raise ParseError(
                    ErrorKind.UNKNOWN_TOKEN, SourceSpan(i, j), f"unknown word {word!r}"
                )
            tokens.append((kind, word, i, j))
            i = j
            continue
        for symbol, kind in grammar.symbols:
            if text.startswith(symbol, i):
                tokens.append((kind, symbol, i, i + len(symbol)))
                i += len(symbol)
                break
        else:
            raise ParseError(
                ErrorKind.UNKNOWN_TOKEN, SourceSpan(i, i + 1), f"unknown character {ch!r}"
            )
    tokens.append(("end", "", n, n))
    return tokens


def _reference_expected(token: tuple[str, str, int, int], wanted: str) -> ParseError:
    kind, text, start, end = token
    if kind == "end":
        return ParseError(ErrorKind.UNEXPECTED_END, SourceSpan(start, end), f"expected {wanted}")
    return ParseError(
        ErrorKind.UNKNOWN_TOKEN, SourceSpan(start, end), f"expected {wanted}, found {text!r}"
    )


def _reference_unclosed(token: tuple[str, str, int, int]) -> ParseError:
    kind, text, start, end = token
    message = "missing ')'" if kind == "end" else f"expected ')', found {text!r}"
    return ParseError(ErrorKind.UNBALANCED_PAREN, SourceSpan(start, end), message)


def _reference_variable(tokens: list, pos: int, grammar) -> str:
    token = tokens[pos]
    if token[0] != "var" or token[1] in grammar.quantifiers:
        raise _reference_expected(token, "a variable")
    return token[1]


def _reference_reduce(frames: list, operands: list, floor: int) -> None:
    while frames[-1][0] > floor:
        _, ctor, arg = frames.pop()
        if arg is _BINARY_FRAME:
            right = operands.pop()
            operands[-1] = ctor(operands[-1], right)
        elif arg is None:
            operands[-1] = ctor(operands[-1])
        else:
            operands[-1] = ctor(arg, operands[-1])


def reference_parse(text: str, grammar):
    """``text`` parsed in ``grammar`` (``parser._PROPOSITIONAL`` or
    ``categorical._monadic()``) by the character-at-a-time reference: the same
    tree, or a ``ParseError`` of the same kind, span and message, as the
    library parser must give."""
    tokens = _reference_tokenize(text, grammar)
    binary, quantifiers = grammar.binary, grammar.quantifiers
    frames: list = [(_BOTTOM, None, None)]
    operands: list = []
    opened = 0
    pos = 0
    while True:
        while True:
            token = tokens[pos]
            kind = token[0]
            if kind == "not":
                frames.append((_NOT_PREC, grammar.negation, None))
            elif kind == "(":
                frames.append((_PAREN, None, None))
                opened += 1
            elif kind == "var" and token[1] in quantifiers:
                var = _reference_variable(tokens, pos + 1, grammar)
                pos += 2
                if tokens[pos][0] != ".":
                    raise _reference_expected(tokens[pos], "'.'")
                frames.append((_SCOPE, quantifiers[token[1]], var))
            else:
                break
            pos += 1
        if kind == "name":
            if grammar.variables:
                if tokens[pos + 1][0] != "(":
                    raise _reference_expected(tokens[pos + 1], "'('")
                var = _reference_variable(tokens, pos + 2, grammar)
                pos += 3
                if tokens[pos][0] != ")":
                    raise _reference_unclosed(tokens[pos])
                operands.append(grammar.leaf(grammar.name(token[1]), var))
            else:
                operands.append(grammar.leaf(grammar.name(token[1])))
        elif kind == ")":
            raise ParseError(
                ErrorKind.UNBALANCED_PAREN, SourceSpan(token[2], token[3]), "unmatched ')'"
            )
        else:
            raise _reference_expected(token, "a formula")
        while True:
            pos += 1
            token = tokens[pos]
            kind = token[0]
            operator = binary.get(kind)
            if operator is not None:
                threshold, prec, ctor = operator
                if frames[-1][0] > threshold:
                    _reference_reduce(frames, operands, threshold)
                frames.append((prec, ctor, _BINARY_FRAME))
                pos += 1
                break
            if kind == ")" and opened:
                _reference_reduce(frames, operands, _PAREN)
                frames.pop()
                opened -= 1
            elif opened:
                raise _reference_unclosed(token)
            elif kind != "end":
                raise ParseError(
                    ErrorKind.TRAILING_INPUT,
                    SourceSpan(token[2], token[3]),
                    f"unexpected input {token[1]!r} after a complete formula",
                )
            else:
                _reference_reduce(frames, operands, _BOTTOM)
                return operands[0]


def pattern_tokenize(text: str, grammar) -> tuple[list[str], list[str]]:
    """The kinds and the words of the tokens of ``text`` as
    ``grammar.pattern.findall`` reads them, both closed by the "end"
    sentinel, or the ``parser._Fault`` at the first unknown token: the
    answer the library's split tokenizer must give."""
    words = grammar.pattern.findall(text)
    kinds = []
    for index, word in enumerate(words):
        kind = grammar.kinds.get(word)
        if kind is None and word.isascii() and word.isalnum():
            if word[0].isupper():
                kind = "name"
            elif grammar.variables and word[0].islower():
                kind = "var"
        if kind is None:
            noun = "word" if word.isalnum() else "character"
            raise _Fault(index, ErrorKind.UNKNOWN_TOKEN, f"unknown {noun} {word!r}")
        kinds.append(kind)
    return [*kinds, "end"], [*words, ""]


# --- Record reference: frozen dataclasses of the same names and fields -------

_TWINS: dict[type, type] = {}


def dataclass_twin(record: Record):
    """``record`` rebuilt, recursively, from frozen dataclasses with the same
    class names and fields, whose generated ``repr`` and ``==`` the
    hand-written ones must match.  For trees within the recursion limit."""
    kind = type(record)
    twin = _TWINS.get(kind)
    if twin is None:
        twin = _TWINS[kind] = make_dataclass(kind.__qualname__, kind.__match_args__, frozen=True)
    return twin(
        *(
            dataclass_twin(value) if isinstance(value, Record) else value
            for value in record._values()
        )
    )


# --- Command-line reference: the argparse tree spelt out call by call --------


def reference_build_parser() -> argparse.ArgumentParser:
    """The ``deduce`` parser as one ``add_parser``/``add_argument`` call per
    parser and option, against which the table-built ``cli.build_parser``
    must print the same help, usage and errors and parse the same
    namespaces."""
    root = argparse.ArgumentParser(
        prog="deduce",
        description=(
            "Deduction toolkit: truth tables, named tautologies, Aristotelian "
            "syllogisms over finite models, and two-vessel measuring plans."
        ),
    )
    root.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    # The same flag is accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default=argparse.SUPPRESS,
        help="output format (default: text)",
    )

    subparsers = root.add_subparsers(dest="command", required=True)

    table = subparsers.add_parser(
        "table", parents=[common], help="print the truth table of a formula"
    )
    table.add_argument("formula", help="propositional formula, e.g. 'P y Q'")
    table.set_defaults(handler=cli._cmd_table)

    classify = subparsers.add_parser(
        "classify",
        parents=[common],
        help="classify a formula as tautology, contradiction, or contingent",
    )
    classify.add_argument("formula")
    classify.set_defaults(handler=cli._cmd_classify)

    equiv = subparsers.add_parser(
        "equiv", parents=[common], help="check two formulas for equivalence"
    )
    equiv.add_argument("left")
    equiv.add_argument("right")
    equiv.set_defaults(handler=cli._cmd_equiv)

    rules_parser = subparsers.add_parser(
        "rules", help="the eight named tautology schemata"
    )
    rules_sub = rules_parser.add_subparsers(dest="subcommand", required=True)
    rules_list = rules_sub.add_parser("list", parents=[common], help="list rule names")
    rules_list.set_defaults(handler=cli._cmd_rules_list)
    rules_show = rules_sub.add_parser(
        "show", parents=[common], help="show a rule's pattern and metavariables"
    )
    rules_show.add_argument("name")
    rules_show.set_defaults(handler=cli._cmd_rules_show)
    rules_verify = rules_sub.add_parser(
        "verify", parents=[common], help="re-classify a rule's pattern"
    )
    rules_verify.add_argument("name")
    rules_verify.set_defaults(handler=cli._cmd_rules_verify)

    entail = subparsers.add_parser(
        "entail", parents=[common], help="check semantic entailment"
    )
    entail.add_argument(
        "--premise",
        action="append",
        default=[],
        metavar="FORMULA",
        help="a premise (repeatable; none means: is the conclusion a tautology?)",
    )
    entail.add_argument("--conclusion", required=True, metavar="FORMULA")
    entail.set_defaults(handler=cli._cmd_entail)

    syllogism = subparsers.add_parser(
        "syllogism", help="Aristotelian syllogisms over finite models"
    )
    syllogism_sub = syllogism.add_subparsers(dest="subcommand", required=True)
    syllogism_list = syllogism_sub.add_parser(
        "list", parents=[common], help="list the ten named moods"
    )
    syllogism_list.set_defaults(handler=cli._cmd_syllogism_list)
    syllogism_check = syllogism_sub.add_parser(
        "check", parents=[common], help="check a named mood for validity"
    )
    syllogism_check.add_argument("name")
    syllogism_check.add_argument(
        "--existential-import",
        action="store_true",
        help="restrict to models where all three terms denote non-empty sets",
    )
    syllogism_check.set_defaults(handler=cli._cmd_syllogism_check)
    syllogism_custom = syllogism_sub.add_parser(
        "custom",
        parents=[common],
        help="check a custom syllogism given as all:S:P / no:S:P / some:S:P / some-not:S:P",
    )
    syllogism_custom.add_argument("major")
    syllogism_custom.add_argument("minor")
    syllogism_custom.add_argument("conclusion")
    syllogism_custom.add_argument(
        "--existential-import",
        action="store_true",
        help="restrict to models where all three terms denote non-empty sets",
    )
    syllogism_custom.set_defaults(handler=cli._cmd_syllogism_custom)

    quant = subparsers.add_parser("quant", help="quantified monadic formulas")
    quant_sub = quant.add_subparsers(dest="subcommand", required=True)
    quant_negate = quant_sub.add_parser(
        "negate",
        parents=[common],
        help="negate a closed monadic formula into negation normal form",
    )
    quant_negate.add_argument(
        "formula", help="e.g. 'forall x. P(x) -> Q(x)' or 'exists x. P(x) & ~Q(x)'"
    )
    quant_negate.set_defaults(handler=cli._cmd_quant_negate)

    jugs_parser = subparsers.add_parser(
        "jugs", help="two-vessel measuring in the marked-container model"
    )
    jugs_sub = jugs_parser.add_subparsers(dest="subcommand", required=True)
    jugs_gcd = jugs_sub.add_parser("gcd", parents=[common], help="greatest common divisor")
    jugs_gcd.add_argument("--n", type=cli._positive_int, required=True)
    jugs_gcd.add_argument("--m", type=cli._nonnegative_int, required=True)
    jugs_gcd.set_defaults(handler=cli._cmd_jugs_gcd)
    jugs_bezout = jugs_sub.add_parser(
        "bezout", parents=[common], help="Bézout certificate a·n + b·m = gcd(n, m)"
    )
    jugs_bezout.add_argument("--n", type=cli._positive_int, required=True)
    jugs_bezout.add_argument("--m", type=cli._positive_int, required=True)
    jugs_bezout.set_defaults(handler=cli._cmd_jugs_bezout)
    jugs_amounts = jugs_sub.add_parser(
        "amounts", parents=[common], help="all producible amounts up to a limit"
    )
    jugs_amounts.add_argument("--n", type=cli._positive_int, required=True)
    jugs_amounts.add_argument("--m", type=cli._positive_int, required=True)
    jugs_amounts.add_argument("--limit", type=cli._positive_int, required=True)
    jugs_amounts.set_defaults(handler=cli._cmd_jugs_amounts)
    jugs_plan = jugs_sub.add_parser(
        "plan", parents=[common], help="synthesize a pour plan for a target amount"
    )
    jugs_plan.add_argument("--n", type=cli._positive_int, required=True)
    jugs_plan.add_argument("--m", type=cli._positive_int, required=True)
    jugs_plan.add_argument("--target", type=cli._positive_int, required=True)
    jugs_plan.add_argument(
        "--strategy",
        # The values of ``jugs.Strategy``, spelt out so that parsing the
        # command line does not import ``jugs``.
        choices=("certificate", "shortest"),
        default="certificate",
        help="certificate: scaled Bézout identity; shortest: minimal-length plan",
    )
    jugs_plan.set_defaults(handler=cli._cmd_jugs_plan)

    return root


# --- Output contract sweeps ---------------------------------------------------


def child_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on the path, for
    a child interpreter that runs ``deduce``."""
    src = str(Path(deduce.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_main(argv: Sequence[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# The message ``deduce``'s own integer type gives argparse to report.
_INTEGER_MESSAGE = re.compile(r"expected an integer .*")


def contract_digest(argvs: Sequence[Sequence[str]]) -> str:
    """SHA-256 over (argv, exit code, stdout, stderr) of ``cli.main`` on each
    of ``argvs``, at ``COLUMNS=80``.

    Only what ``deduce`` writes itself is hashed: argparse's usage lines and
    messages differ between Python versions, so an argparse report keeps
    just the integer-argument message ``deduce`` hands it (or nothing).
    """
    digest = hashlib.sha256()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in argvs:
            code, out, err = run_main(argv)
            if err.startswith("usage: "):
                own = _INTEGER_MESSAGE.search(err)
                err = own.group() if own else ""
            for part in (repr(list(argv)), str(code), out, err):
                data = part.encode()
                digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()
