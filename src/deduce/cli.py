"""Command-line interface with deterministic text and JSON output.

Exit codes are part of the contract: 0 for success / valid / tautology,
1 for invalid / contingent / not-achievable (with a counterexample), and
2 for usage or parse errors (reported on stderr with the offending span).

JSON mode always emits a single object:
``{"status": ..., "command": ..., "result": ..., "counterexample": ...}``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from itertools import repeat
from operator import getitem
from typing import TYPE_CHECKING

# ``categorical``, ``jugs``, ``rules`` and ``json`` are imported by the
# functions that run them, so a command loads only what it uses.
from . import logic
from ._record import Record, _setattr
from .logic import Classification, falsifying_valuation, format_truth_value
from .parser import ParseError, Style, format_formula, parse

if TYPE_CHECKING:
    from . import categorical, rules

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

#: ``deduce table`` prints one line per row; wider tables are refused up
#: front (exit 2) rather than built.  The library ``truth_table`` keeps
#: ``logic.MAX_ATOMS``.
TABLE_MAX_ATOMS = 16

_CLASS_SPANISH = {
    Classification.TAUTOLOGY: "tautología",
    Classification.CONTRADICTION: "contradicción",
    Classification.CONTINGENT: "contingente",
}


class Outcome(Record):
    __slots__ = ("command", "exit_code", "result", "counterexample", "text_lines")

    def __init__(
        self,
        command: str,
        exit_code: int,
        result: dict,
        counterexample: dict | None = None,
        text_lines: list[str] | None = None,
    ):
        _setattr(self, "command", command)
        _setattr(self, "exit_code", exit_code)
        _setattr(self, "result", result)
        _setattr(self, "counterexample", counterexample)
        _setattr(self, "text_lines", [] if text_lines is None else text_lines)


def _valuation_text(valuation: dict[str, bool]) -> str:
    return " ".join(
        f"{name}={format_truth_value(value)}" for name, value in valuation.items()
    )


def _model_json(model: categorical.FiniteModel) -> dict:
    return {
        "universe_size": model.universe_size,
        "extensions": {
            name: sorted(members) for name, members in sorted(model.extensions.items())
        },
    }


def _model_text(model: categorical.FiniteModel) -> str:
    universe = "{" + ",".join(str(e) for e in range(model.universe_size)) + "}"
    extensions = " ".join(
        f"{name}={{{','.join(str(e) for e in sorted(members))}}}"
        for name, members in sorted(model.extensions.items())
    )
    return f"universo={universe} {extensions}"


# --- Command handlers --------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> Outcome:
    formula = parse(args.formula)
    count = len(logic.atoms(formula))
    if count > TABLE_MAX_ATOMS:
        raise ValueError(
            f"table of {count} atoms has {1 << count} rows; the limit is "
            f"{TABLE_MAX_ATOMS} atoms ({1 << TABLE_MAX_ATOMS} rows)"
        )
    table = logic.truth_table(formula)
    names = [atom.name for atom in table.atoms]
    result = {"formula": format_formula(formula), "atoms": names}
    # Only JSON lists the rows; text prints them.
    if args.format == "json":
        result["rows"] = [
            {"valuation": row.valuation, "value": row.value} for row in table.rows
        ]
        return Outcome("table", EXIT_OK, result)
    # Every body cell is one letter, so each column is as wide as its header.
    # A column's two padded cells are (F, V), indexed by a row's value; each
    # valuation holds the columns in table order.
    cells = [("F".ljust(len(name)) + "  ", "V".ljust(len(name)) + "  ") for name in names]
    lines = ["  ".join(names + [format_formula(formula, Style.SPANISH)])]
    lines += [
        "".join(map(getitem, cells, row.valuation.values())) + format_truth_value(row.value)
        for row in table.rows
    ]
    return Outcome("table", EXIT_OK, result, text_lines=lines)


def _cmd_classify(args: argparse.Namespace) -> Outcome:
    formula = parse(args.formula)
    classification, counter = logic._decide(formula)
    result = {
        "formula": format_formula(formula),
        "classification": classification.value,
    }
    lines = [_CLASS_SPANISH[classification]]
    if classification is Classification.TAUTOLOGY:
        return Outcome("classify", EXIT_OK, result, text_lines=lines)
    lines.append(f"contraejemplo: {_valuation_text(counter)}")
    return Outcome("classify", EXIT_INVALID, result, counter, lines)


def _cmd_equiv(args: argparse.Namespace) -> Outcome:
    left = parse(args.left)
    right = parse(args.right)
    both = logic.Iff(left, right)
    counter = falsifying_valuation(both)
    result = {
        "left": format_formula(left),
        "right": format_formula(right),
        "equivalent": counter is None,
    }
    if counter is None:
        return Outcome("equiv", EXIT_OK, result, text_lines=["equivalentes"])
    lines = ["no equivalentes", f"contraejemplo: {_valuation_text(counter)}"]
    return Outcome("equiv", EXIT_INVALID, result, counter, lines)


def _rule_json(schema: rules.RuleSchema) -> dict:
    return {
        "name": schema.name,
        "metavariables": [atom.name for atom in schema.metavariables],
        "pattern": format_formula(schema.pattern),
    }


def _cmd_rules_list(args: argparse.Namespace) -> Outcome:
    from . import rules

    result = {"rules": [_rule_json(schema) for schema in rules.registry()]}
    lines = [schema.name for schema in rules.registry()]
    return Outcome("rules list", EXIT_OK, result, text_lines=lines)


def _cmd_rules_show(args: argparse.Namespace) -> Outcome:
    from . import rules

    schema = rules.get_rule(args.name)
    lines = [
        schema.name,
        f"patrón: {format_formula(schema.pattern, Style.SPANISH)}",
        "metavariables: " + " ".join(atom.name for atom in schema.metavariables),
    ]
    return Outcome("rules show", EXIT_OK, _rule_json(schema), text_lines=lines)


def _cmd_rules_verify(args: argparse.Namespace) -> Outcome:
    from . import rules

    schema = rules.get_rule(args.name)
    # The registry refuses, at import, any pattern that is not a tautology.
    classification = rules.verify_rule(args.name)
    result = {"name": schema.name, "classification": classification.value}
    lines = [_CLASS_SPANISH[classification]]
    return Outcome("rules verify", EXIT_OK, result, text_lines=lines)


def _cmd_entail(args: argparse.Namespace) -> Outcome:
    from . import rules

    premises = tuple(parse(text) for text in args.premise)
    conclusion = parse(args.conclusion)
    verdict = rules.entail(premises, conclusion)
    result = {
        "premises": [format_formula(premise) for premise in premises],
        "conclusion": format_formula(conclusion),
        "valid": verdict.valid,
    }
    if verdict.valid:
        return Outcome("entail", EXIT_OK, result, text_lines=["válido"])
    counter = verdict.countervaluation
    assert counter is not None
    lines = ["inválido", f"contraejemplo: {_valuation_text(counter)}"]
    return Outcome("entail", EXIT_INVALID, result, counter, lines)


def _syllogism_json(syllogism: categorical.Syllogism) -> dict:
    return {
        "major": syllogism.major.code,
        "minor": syllogism.minor.code,
        "conclusion": syllogism.conclusion.code,
    }


def _describe_syllogism(name: str, syllogism: categorical.Syllogism) -> str:
    return (
        f"{name}: si {syllogism.major.describe()} y {syllogism.minor.describe()} "
        f"entonces {syllogism.conclusion.describe()}"
    )


def _cmd_syllogism_list(args: argparse.Namespace) -> Outcome:
    from . import categorical

    entries = categorical.registry_syllogisms()
    result = {
        "syllogisms": [
            {"name": name, **_syllogism_json(syllogism)} for name, syllogism in entries
        ]
    }
    lines = [_describe_syllogism(name, syllogism) for name, syllogism in entries]
    return Outcome("syllogism list", EXIT_OK, result, text_lines=lines)


def _check_syllogism(
    command: str, label: str, syllogism: categorical.Syllogism, existential_import: bool
) -> Outcome:
    from . import categorical

    verdict = categorical.valid_syllogism(syllogism, existential_import)
    # The import models are a subset of all models, so a plain valid
    # verdict already settles the question with import.
    with_import = verdict.valid or (
        not existential_import and categorical.valid_syllogism(syllogism, True).valid
    )
    result = {
        "name": label,
        **_syllogism_json(syllogism),
        "existential_import": existential_import,
        "valid": verdict.valid,
        "valid_with_existential_import": with_import,
    }
    if verdict.valid:
        return Outcome(command, EXIT_OK, result, text_lines=["válido"])
    model = verdict.counter_model
    assert model is not None
    lines = ["inválido", f"contramodelo: {_model_text(model)}"]
    if not existential_import and with_import:
        lines.append("nota: válido con import existencial (--existential-import)")
    return Outcome(command, EXIT_INVALID, result, _model_json(model), lines)


def _cmd_syllogism_check(args: argparse.Namespace) -> Outcome:
    from . import categorical

    syllogism = categorical.get_syllogism(args.name)
    return _check_syllogism(
        "syllogism check", args.name.lower(), syllogism, args.existential_import
    )


def _cmd_syllogism_custom(args: argparse.Namespace) -> Outcome:
    from . import categorical

    syllogism = categorical.Syllogism(
        categorical.parse_categorical(args.major),
        categorical.parse_categorical(args.minor),
        categorical.parse_categorical(args.conclusion),
    )
    return _check_syllogism(
        "syllogism custom", "custom", syllogism, args.existential_import
    )


def _cmd_quant_negate(args: argparse.Namespace) -> Outcome:
    from . import categorical

    formula = categorical.parse_monadic(args.formula)
    negated = categorical.negate_quantifiers(formula)
    result = {
        "formula": categorical.format_monadic(formula),
        "negation_nnf": categorical.format_monadic(negated),
    }
    return Outcome(
        "quant negate", EXIT_OK, result, text_lines=[categorical.format_monadic(negated)]
    )


def _cmd_jugs_gcd(args: argparse.Namespace) -> Outcome:
    from . import jugs

    value = jugs.gcd(args.n, args.m)
    result = {"n": args.n, "m": args.m, "gcd": value}
    return Outcome("jugs gcd", EXIT_OK, result, text_lines=[str(value)])


def _cmd_jugs_bezout(args: argparse.Namespace) -> Outcome:
    from . import jugs

    certificate = jugs.bezout(args.n, args.m)
    result = {
        "n": args.n,
        "m": args.m,
        "g": certificate.g,
        "a": certificate.a,
        "b": certificate.b,
    }
    lines = [f"g={certificate.g} a={certificate.a} b={certificate.b}"]
    return Outcome("jugs bezout", EXIT_OK, result, text_lines=lines)


def _cmd_jugs_amounts(args: argparse.Namespace) -> Outcome:
    from . import jugs

    amounts = jugs.achievable_amounts(args.n, args.m, args.limit)
    result = {"n": args.n, "m": args.m, "limit": args.limit, "amounts": amounts}
    lines = [" ".join(str(amount) for amount in amounts)] if amounts else []
    return Outcome("jugs amounts", EXIT_OK, result, text_lines=lines)


def _cmd_jugs_plan(args: argparse.Namespace) -> Outcome:
    from . import jugs

    problem = jugs.JugProblem(n=args.n, m=args.m, target=args.target)
    strategy = jugs.Strategy(args.strategy)
    base = {"n": args.n, "m": args.m, "target": args.target, "strategy": strategy.value}
    try:
        pour_plan = jugs.plan(problem, strategy)
    except jugs.NotAchievable as exc:
        result = {**base, "achievable": False}
        lines = [
            "inalcanzable",
            f"mcd({exc.n}, {exc.m}) = {exc.gcd} no divide {exc.target}",
        ]
        return Outcome("jugs plan", EXIT_INVALID, result, {"gcd": exc.gcd}, lines)
    listed = args.format == "json"
    actions: list[dict] = []
    grouped: list[str] = []
    for action, count in pour_plan.runs:
        word = "add" if isinstance(action, jugs.AddJug) else "remove"
        grouped.append(f"{word} {action.capacity}" + (f" ×{count}" if count > 1 else ""))
        if listed:
            # One shared entry per run: a long plan lists the same few objects.
            actions.extend(repeat({"action": word, "capacity": action.capacity}, count))
    result = {**base, "achievable": True, "length": len(pour_plan)}
    # Only JSON lists the actions; text prints the runs.
    if listed:
        result["actions"] = actions
    return Outcome("jugs plan", EXIT_OK, result, text_lines=["; ".join(grouped)])


# --- Argument parsing --------------------------------------------------------


#: Longest argument text an error message quotes in full.
_ECHO_LIMIT = 40


def _int_at_least(text: str, minimum: int) -> int:
    # ArgumentTypeError keeps argparse from naming this function in the
    # message, as it does for a ValueError.
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value >= minimum:
            return value
    expected = f"an integer >= {minimum}"
    # Python 3.11+ refuses to convert more digits than this; 0 means no limit.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < digits < len(text):
        expected += f" of at most {digits} digits"
    shown = repr(text)
    if len(text) > _ECHO_LIMIT:
        shown = f"{text[:_ECHO_LIMIT]!r}... ({len(text)} characters)"
    raise argparse.ArgumentTypeError(f"expected {expected}, got {shown}")


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
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
    table.set_defaults(handler=_cmd_table)

    classify = subparsers.add_parser(
        "classify",
        parents=[common],
        help="classify a formula as tautology, contradiction, or contingent",
    )
    classify.add_argument("formula")
    classify.set_defaults(handler=_cmd_classify)

    equiv = subparsers.add_parser(
        "equiv", parents=[common], help="check two formulas for equivalence"
    )
    equiv.add_argument("left")
    equiv.add_argument("right")
    equiv.set_defaults(handler=_cmd_equiv)

    rules_parser = subparsers.add_parser(
        "rules", help="the eight named tautology schemata"
    )
    rules_sub = rules_parser.add_subparsers(dest="subcommand", required=True)
    rules_list = rules_sub.add_parser("list", parents=[common], help="list rule names")
    rules_list.set_defaults(handler=_cmd_rules_list)
    rules_show = rules_sub.add_parser(
        "show", parents=[common], help="show a rule's pattern and metavariables"
    )
    rules_show.add_argument("name")
    rules_show.set_defaults(handler=_cmd_rules_show)
    rules_verify = rules_sub.add_parser(
        "verify", parents=[common], help="re-classify a rule's pattern"
    )
    rules_verify.add_argument("name")
    rules_verify.set_defaults(handler=_cmd_rules_verify)

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
    entail.set_defaults(handler=_cmd_entail)

    syllogism = subparsers.add_parser(
        "syllogism", help="Aristotelian syllogisms over finite models"
    )
    syllogism_sub = syllogism.add_subparsers(dest="subcommand", required=True)
    syllogism_list = syllogism_sub.add_parser(
        "list", parents=[common], help="list the ten named moods"
    )
    syllogism_list.set_defaults(handler=_cmd_syllogism_list)
    syllogism_check = syllogism_sub.add_parser(
        "check", parents=[common], help="check a named mood for validity"
    )
    syllogism_check.add_argument("name")
    syllogism_check.add_argument(
        "--existential-import",
        action="store_true",
        help="restrict to models where all three terms denote non-empty sets",
    )
    syllogism_check.set_defaults(handler=_cmd_syllogism_check)
    syllogism_custom = syllogism_sub.add_parser(
        "custom",
        parents=[common],
        help="check a custom syllogism given as all:S:P / no:S:P / some:S:P / some-not:S:P",
    )
    syllogism_custom.add_argument("major")
    syllogism_custom.add_argument("minor")
    syllogism_custom.add_argument("conclusion")
    syllogism_custom.add_argument("--existential-import", action="store_true")
    syllogism_custom.set_defaults(handler=_cmd_syllogism_custom)

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
    quant_negate.set_defaults(handler=_cmd_quant_negate)

    jugs_parser = subparsers.add_parser(
        "jugs", help="two-vessel measuring in the marked-container model"
    )
    jugs_sub = jugs_parser.add_subparsers(dest="subcommand", required=True)
    jugs_gcd = jugs_sub.add_parser("gcd", parents=[common], help="greatest common divisor")
    jugs_gcd.add_argument("--n", type=_positive_int, required=True)
    jugs_gcd.add_argument("--m", type=_nonnegative_int, required=True)
    jugs_gcd.set_defaults(handler=_cmd_jugs_gcd)
    jugs_bezout = jugs_sub.add_parser(
        "bezout", parents=[common], help="Bézout certificate a·n + b·m = gcd(n, m)"
    )
    jugs_bezout.add_argument("--n", type=_positive_int, required=True)
    jugs_bezout.add_argument("--m", type=_positive_int, required=True)
    jugs_bezout.set_defaults(handler=_cmd_jugs_bezout)
    jugs_amounts = jugs_sub.add_parser(
        "amounts", parents=[common], help="all producible amounts up to a limit"
    )
    jugs_amounts.add_argument("--n", type=_positive_int, required=True)
    jugs_amounts.add_argument("--m", type=_positive_int, required=True)
    jugs_amounts.add_argument("--limit", type=_positive_int, required=True)
    jugs_amounts.set_defaults(handler=_cmd_jugs_amounts)
    jugs_plan = jugs_sub.add_parser(
        "plan", parents=[common], help="synthesize a pour plan for a target amount"
    )
    jugs_plan.add_argument("--n", type=_positive_int, required=True)
    jugs_plan.add_argument("--m", type=_positive_int, required=True)
    jugs_plan.add_argument("--target", type=_positive_int, required=True)
    jugs_plan.add_argument(
        "--strategy",
        # The values of ``jugs.Strategy``, spelt out so that parsing the
        # command line does not import ``jugs``.
        choices=("certificate", "shortest"),
        default="certificate",
        help="certificate: scaled Bézout identity; shortest: minimal-length plan",
    )
    jugs_plan.set_defaults(handler=_cmd_jugs_plan)

    return root


def _emit(outcome: Outcome, output_format: str) -> None:
    if output_format == "json":
        import json

        envelope = {
            "status": "ok" if outcome.exit_code == EXIT_OK else "invalid",
            "command": outcome.command,
            "result": outcome.result,
            "counterexample": outcome.counterexample,
        }
        sys.stdout.write(
            json.dumps(envelope, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
            + "\n"
        )
    else:
        for line in outcome.text_lines:
            sys.stdout.write(line + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        outcome = args.handler(args)
    except ParseError as exc:
        sys.stderr.write(
            f"error: {exc.kind.value} at {exc.span.start}..{exc.span.end}: "
            f"{exc.message}\n"
        )
        return EXIT_USAGE
    except (LookupError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        _emit(outcome, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  The answer stands; send whatever is
        # still buffered to devnull so that the flush at exit cannot fail
        # too (see "Note on SIGPIPE" in the ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return outcome.exit_code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
