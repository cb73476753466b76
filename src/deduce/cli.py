"""Command-line interface with deterministic text and JSON output.

Exit codes are part of the contract: 0 for success / valid / tautology,
1 for invalid / contingent / not-achievable (with a counterexample), and
2 for usage or parse errors (reported on stderr with the offending span).
A command's answer is its result and its counterexample; exit code 1 and
JSON status "invalid" mean that the counterexample is not None.

JSON mode always emits a single object:
``{"status": ..., "command": ..., "result": ..., "counterexample": ...}``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache
from itertools import chain, islice, product
from operator import add
from typing import TYPE_CHECKING

# Every module of the package, and ``json``, is imported by the functions
# that run it, so a command loads only what it uses.
if TYPE_CHECKING:
    from . import categorical, rules

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

#: A table's value string ("1"/"0") read as the V/F letters of its rows.
_LETTERS = str.maketrans("10", "VF")

#: Each ``logic.Classification`` value, in Spanish.
_CLASS_SPANISH = {
    "tautology": "tautología",
    "contradiction": "contradicción",
    "contingent": "contingente",
}


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
#
# A handler returns the command's answer: its result, in which a listing
# may be an iterator of its items' JSON texts, its counterexample (None
# unless refuted), its text lines and, if not "\n", what joins them.


def _refutable(result: dict, verdict: str, counter: dict[str, bool] | None) -> tuple:
    """A propositional answer: its ``verdict`` line, then the ``counter``
    valuation that refutes it, if there is one."""
    lines = [verdict]
    if counter is not None:
        from .logic import format_truth_value

        values = (f"{name}={format_truth_value(value)}" for name, value in counter.items())
        lines.append("contraejemplo: " + " ".join(values))
    return result, counter, lines


def _rows(cells: list[tuple[str, str]], tails: Iterable[str]) -> Iterator[str]:
    """Each canonical row's cells, joined, then its tail, from each
    column's (V, F) cells: ``product`` yields the rows in canonical order,
    the first column slowest and V before F, one at a time.  Each half of
    the columns is joined once per valuation of its own (at most 256 of
    them), so a row joins two strings, not one per column."""
    half = len(cells) // 2
    first, last = (list(map("".join, product(*part))) for part in (cells[:half], cells[half:]))
    return map(add, map("".join, product(first, last)), tails)


def _cmd_table(args: argparse.Namespace) -> tuple:
    from . import logic
    from .parser import Style, format_formula, parse

    formula = parse(args.formula)
    columns, values = logic._values(formula, None)
    names = [atom.name for atom in columns]
    # Both formats are rendered lazily from per-column cells and the value
    # string, with no valuation dicts, and ``_emit`` reads only the chosen
    # one.  JSON's cells are in ``sort_keys`` order: columns are sorted, and
    # "valuation" < "value".  Atom names are alphanumeric, so no fragment
    # needs escaping.
    heads = ['{"valuation":{'] + [","] * (len(names) - 1)
    fragments = [
        (f'{head}"{name}":true', f'{head}"{name}":false') for head, name in zip(heads, names)
    ]
    ends = {"1": '},"value":true}', "0": '},"value":false}'}
    rows = _rows(fragments, map(ends.__getitem__, values))
    result = {"formula": format_formula(formula), "atoms": names, "rows": rows}
    # Every body cell is one letter, so each column is as wide as its header.
    cells = [("V".ljust(len(name)) + "  ", "F".ljust(len(name)) + "  ") for name in names]
    header = "  ".join(names + [format_formula(formula, Style.SPANISH)])
    return result, None, chain([header], _rows(cells, values.translate(_LETTERS)))


def _cmd_classify(args: argparse.Namespace) -> tuple:
    from . import logic
    from .parser import format_formula, parse

    formula = parse(args.formula)
    classification, counter = logic._decide(formula)
    result = {
        "formula": format_formula(formula),
        "classification": classification.value,
    }
    return _refutable(result, _CLASS_SPANISH[classification.value], counter)


def _cmd_equiv(args: argparse.Namespace) -> tuple:
    from .logic import Iff, falsifying_valuation
    from .parser import format_formula, parse

    left = parse(args.left)
    right = parse(args.right)
    counter = falsifying_valuation(Iff(left, right))
    result = {
        "left": format_formula(left),
        "right": format_formula(right),
        "equivalent": counter is None,
    }
    return _refutable(result, "equivalentes" if counter is None else "no equivalentes", counter)


def _rule_json(schema: rules.RuleSchema) -> dict:
    from .parser import format_formula

    return {
        "name": schema.name,
        "metavariables": [atom.name for atom in schema.metavariables],
        "pattern": format_formula(schema.pattern),
    }


def _cmd_rules_list(args: argparse.Namespace) -> tuple:
    from . import rules

    result = {"rules": [_rule_json(schema) for schema in rules.registry()]}
    lines = [schema.name for schema in rules.registry()]
    return result, None, lines


def _cmd_rules_show(args: argparse.Namespace) -> tuple:
    from . import rules
    from .parser import Style, format_formula

    schema = rules.get_rule(args.name)
    lines = [
        schema.name,
        f"patrón: {format_formula(schema.pattern, Style.SPANISH)}",
        "metavariables: " + " ".join(atom.name for atom in schema.metavariables),
    ]
    return _rule_json(schema), None, lines


def _cmd_rules_verify(args: argparse.Namespace) -> tuple:
    from . import logic, rules

    schema = rules.get_rule(args.name)
    # One scan, as for ``classify``: a pattern that is no tautology is
    # refuted by its first falsifying row.
    classification, counter = logic._decide(schema.pattern)
    result = {"name": schema.name, "classification": classification.value}
    return _refutable(result, _CLASS_SPANISH[classification.value], counter)


def _cmd_entail(args: argparse.Namespace) -> tuple:
    from . import rules
    from .parser import format_formula, parse

    premises = tuple(parse(text) for text in args.premise)
    conclusion = parse(args.conclusion)
    verdict = rules.entail(premises, conclusion)
    result = {
        "premises": [format_formula(premise) for premise in premises],
        "conclusion": format_formula(conclusion),
        "valid": verdict.valid,
    }
    word = "válido" if verdict.valid else "inválido"
    return _refutable(result, word, verdict.countervaluation)


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


def _cmd_syllogism_list(args: argparse.Namespace) -> tuple:
    from . import categorical

    entries = categorical.registry_syllogisms()
    result = {
        "syllogisms": [
            {"name": name, **_syllogism_json(syllogism)} for name, syllogism in entries
        ]
    }
    lines = [_describe_syllogism(name, syllogism) for name, syllogism in entries]
    return result, None, lines


def _check_syllogism(
    label: str, syllogism: categorical.Syllogism, existential_import: bool
) -> tuple:
    from . import categorical

    verdict, with_import = categorical._verdicts(syllogism, existential_import)
    result = {
        "name": label,
        **_syllogism_json(syllogism),
        "existential_import": existential_import,
        "valid": verdict.valid,
        "valid_with_existential_import": with_import,
    }
    if verdict.valid:
        return result, None, ["válido"]
    model = verdict.counter_model
    lines = ["inválido", f"contramodelo: {_model_text(model)}"]
    # With import, an invalid verdict has ``with_import`` false.
    if with_import:
        lines.append("nota: válido con import existencial (--existential-import)")
    return result, _model_json(model), lines


def _cmd_syllogism_check(args: argparse.Namespace) -> tuple:
    from . import categorical

    syllogism = categorical.get_syllogism(args.name)
    return _check_syllogism(args.name.lower(), syllogism, args.existential_import)


def _cmd_syllogism_custom(args: argparse.Namespace) -> tuple:
    from . import categorical

    forms = map(categorical.parse_categorical, (args.major, args.minor, args.conclusion))
    return _check_syllogism("custom", categorical.Syllogism(*forms), args.existential_import)


def _cmd_quant_negate(args: argparse.Namespace) -> tuple:
    from . import categorical

    formula = categorical.parse_monadic(args.formula)
    negated = categorical.format_monadic(categorical.negate_quantifiers(formula))
    result = {"formula": categorical.format_monadic(formula), "negation_nnf": negated}
    return result, None, [negated]


def _cmd_jugs_gcd(args: argparse.Namespace) -> tuple:
    from . import jugs

    value = jugs.gcd(args.n, args.m)
    result = {"n": args.n, "m": args.m, "gcd": value}
    return result, None, [str(value)]


def _cmd_jugs_bezout(args: argparse.Namespace) -> tuple:
    from . import jugs

    certificate = jugs.bezout(args.n, args.m)
    result = {
        "n": args.n,
        "m": args.m,
        "g": certificate.g,
        "a": certificate.a,
        "b": certificate.b,
    }
    return result, None, [f"g={certificate.g} a={certificate.a} b={certificate.b}"]


def _cmd_jugs_amounts(args: argparse.Namespace) -> tuple:
    from . import jugs

    # One iterator is both the JSON listing and the text line's words, and
    # only the chosen format reads it: no list of amounts is ever built.
    amounts = map(str, jugs._amounts(args.n, args.m, args.limit))
    result = {"n": args.n, "m": args.m, "limit": args.limit, "amounts": amounts}
    return result, None, amounts, " "


def _cmd_jugs_plan(args: argparse.Namespace) -> tuple:
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
        return result, {"gcd": exc.gcd}, lines
    runs: list[tuple[str, int]] = []
    grouped: list[str] = []
    for action, count in pour_plan.runs:
        word = "add" if isinstance(action, jugs.AddJug) else "remove"
        grouped.append(f"{word} {action.capacity}" + (f" ×{count}" if count > 1 else ""))
        runs.append((f'{{"action":"{word}","capacity":{action.capacity}}}', count))
    result = {**base, "achievable": True, "length": len(pour_plan)}
    # Only JSON lists the actions, so only JSON is refused a plan past
    # ``jugs.MAX_PLAN_LENGTH``; text prints the runs.  Each run's entry is
    # rendered once, in ``sort_keys`` order, and joined as often as it runs.
    if args.format == "json":
        result["actions"] = jugs._expand(runs)
    return result, None, ["; ".join(grouped)]


# --- Argument parsing --------------------------------------------------------


def _integer(name: str, least: str = "") -> Callable[[str], int]:
    """The argparse type of option ``--name``: an integer in its limit's
    range, from the ``_limits`` constant named ``least`` if given.  Both
    ends are refused here, before the library's own check.  The limit is
    read on conversion, so that a usage error does not load ``_limits``."""

    def convert(text: str) -> int:
        from . import _limits

        limit = _limits.VALUES[name]
        low = getattr(_limits, least) if least else limit.least
        try:
            value = int(text)
        except ValueError:
            # Not an integer, or too long to be one in range: quoted as text.
            value = text
        else:
            if low <= value <= limit.most:
                return value
        # ArgumentTypeError keeps argparse from naming this function in the
        # message, as it does for a ValueError.
        raise argparse.ArgumentTypeError(_limits.refusal(limit, name, value, low))

    return convert


def _arg(*names: str, **options) -> tuple:
    """One ``add_argument`` call: its names and its options."""
    return names, options


def _option(name: str, least: str = "") -> tuple:
    """A required integer option, ``--name``, bounded by its limit."""
    return _arg(f"--{name}", type=_integer(name, least), required=True)


#: The capacities of the two vessels; ``jugs gcd`` alone takes m from
#: ``_limits.GCD_LEAST_M``.
_VESSELS = [_option("n"), _option("m")]


_NAME = _arg("name")
_EXISTENTIAL_IMPORT = _arg(
    "--existential-import", action="store_true",
    help="restrict to models where all three terms denote non-empty sets",
)

#: Every parser under the root, in help order: (command path, help,
#: arguments, handler).  A row without a handler is a group; its
#: subcommands are the later rows whose path starts with its name.
_COMMANDS = (
    ("table", "print the truth table of a formula",
     [_arg("formula", help="propositional formula, e.g. 'P y Q'")], _cmd_table),
    ("classify", "classify a formula as tautology, contradiction, or contingent",
     [_arg("formula")], _cmd_classify),
    ("equiv", "check two formulas for equivalence", [_arg("left"), _arg("right")], _cmd_equiv),
    ("rules", "the eight named tautology schemata", [], None),
    ("rules list", "list rule names", [], _cmd_rules_list),
    ("rules show", "show a rule's pattern and metavariables", [_NAME], _cmd_rules_show),
    ("rules verify", "re-classify a rule's pattern", [_NAME], _cmd_rules_verify),
    ("entail", "check semantic entailment", [
        _arg("--premise", action="append", default=[], metavar="FORMULA",
             help="a premise (repeatable; none means: is the conclusion a tautology?)"),
        _arg("--conclusion", required=True, metavar="FORMULA"),
    ], _cmd_entail),
    ("syllogism", "Aristotelian syllogisms over finite models", [], None),
    ("syllogism list", "list the ten named moods", [], _cmd_syllogism_list),
    ("syllogism check", "check a named mood for validity",
     [_NAME, _EXISTENTIAL_IMPORT],
     _cmd_syllogism_check),
    ("syllogism custom",
     "check a custom syllogism given as all:S:P / no:S:P / some:S:P / some-not:S:P",
     [_arg("major"), _arg("minor"), _arg("conclusion"),
      _EXISTENTIAL_IMPORT],
     _cmd_syllogism_custom),
    ("quant", "quantified monadic formulas", [], None),
    ("quant negate", "negate a closed monadic formula into negation normal form",
     [_arg("formula", help="e.g. 'forall x. P(x) -> Q(x)' or 'exists x. P(x) & ~Q(x)'")],
     _cmd_quant_negate),
    ("jugs", "two-vessel measuring in the marked-container model", [], None),
    ("jugs gcd", "greatest common divisor",
     [_option("n"), _option("m", "GCD_LEAST_M")], _cmd_jugs_gcd),
    ("jugs bezout", "Bézout certificate a·n + b·m = gcd(n, m)", _VESSELS, _cmd_jugs_bezout),
    ("jugs amounts", "all producible amounts up to a limit",
     [*_VESSELS, _option("limit")], _cmd_jugs_amounts),
    ("jugs plan", "synthesize a pour plan for a target amount", [
        *_VESSELS,
        _option("target"),
        # The values of ``jugs.Strategy``, spelt out so that parsing the
        # command line does not import ``jugs``.
        _arg("--strategy", choices=("certificate", "shortest"), default="certificate",
             help="certificate: scaled Bézout identity; shortest: minimal-length plan"),
    ], _cmd_jugs_plan),
)

_FORMAT = {"choices": ("text", "json"), "help": "output format (default: text)"}


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="deduce",
        description=(
            "Deduction toolkit: truth tables, named tautologies, Aristotelian "
            "syllogisms over finite models, and two-vessel measuring plans."
        ),
    )
    root.add_argument("--format", default="text", **_FORMAT)
    # The same flag is accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default=argparse.SUPPRESS, **_FORMAT)
    # Group path -> the subparsers its commands are added to.
    groups = {"": root.add_subparsers(dest="command", required=True)}
    for path, summary, arguments, handler in _COMMANDS:
        group, _, name = path.rpartition(" ")
        if handler is None:
            parser = groups[group].add_parser(name, help=summary)
            groups[path] = parser.add_subparsers(dest="subcommand", required=True)
            continue
        parser = groups[group].add_parser(name, parents=[common], help=summary)
        for names, options in arguments:
            parser.add_argument(*names, **options)
        parser.set_defaults(handler=handler)
    return root


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` runs, built on its first call: a parse leaves no
    state in it."""
    return build_parser()


#: About the most characters that ``_write`` joins into one write.
_BATCH_CHARS = 1 << 16


def _write(items: Iterable[str], sep: str) -> bool:
    """Writes ``sep.join(items)`` a batch at a time, of 4,096 amounts, 2,259
    plan actions or 337 rows of a 16-atom table, so that no more than a
    batch of a long answer is held as text.  Returns whether there was an
    item."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        return False
    # An answer's items are about as long as its first.
    size = _BATCH_CHARS // max(len(first), 16) or 1
    write = sys.stdout.write
    write(first)
    while batch := list(islice(items, size)):
        write(sep + sep.join(batch))
    return True


def _emit(
    output_format: str,
    command: str,
    result: dict,
    counterexample: dict | None,
    lines: Iterable[str],
    sep: str = "\n",
) -> None:
    if output_format == "json":
        import json

        envelope = {
            "status": "ok" if counterexample is None else "invalid",
            "command": command,
            "result": result,
            "counterexample": counterexample,
        }
        # ``json`` calls ``default`` only for a value it cannot encode: an
        # iterator of a listing's items, for which it writes a NUL string,
        # and the items go where it stands.  No other string of an answer
        # holds a NUL: each is a name or a formula ``deduce`` prints.
        listings: list[Iterator[str]] = []

        def placeholder(items: Iterator[str]) -> str:
            listings.append(items)
            return "\0"

        text = json.dumps(
            envelope, sort_keys=True, ensure_ascii=True, separators=(",", ":"),
            default=placeholder,
        )
        pieces = text.split('"\\u0000"')
        write = sys.stdout.write
        for piece, items in zip(pieces, listings):
            write(piece + "[")
            _write(items, ",")
            write("]")
        write(pieces[-1] + "\n")
    elif _write(lines, sep):
        sys.stdout.write("\n")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # The command path the parser matched names the command.
    command = f"{args.command} {args.subcommand}" if "subcommand" in args else args.command
    try:
        result, counterexample, *text = args.handler(args)
    except (LookupError, ValueError) as exc:
        # A ParseError is read through its attributes, so that ``main``
        # need not load the parser.
        span = getattr(exc, "span", None)
        if span is not None:
            exc = f"{exc.kind.value} at {span.start}..{span.end}: {exc.message}"
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        _emit(args.format, command, result, counterexample, *text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  The answer stands; send whatever is
        # still buffered to devnull so that the flush at exit cannot fail
        # too (see "Note on SIGPIPE" in the ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if counterexample is None else EXIT_INVALID


def console_main() -> None:
    """The ``deduce`` script: ``main`` on the process's own argv, then exit
    with its code.  Unlike ``main``, this owns the process."""
    for fd, name in ((1, "stdout"), (2, "stderr")):
        try:
            # Fails only if the descriptor is closed or cannot be written.
            os.write(fd, b"")
        except OSError:
            # What the answer prints there is dropped, and its exit code
            # stands.  A descriptor closed at start leaves its stream None.
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
            if getattr(sys, name) is None:
                setattr(sys, name, open(fd, "w", encoding="utf-8", errors="replace"))
    # An answer's text may hold characters that stdout's encoding (ASCII,
    # cp1252) cannot represent: those are escaped, not a traceback.
    sys.stdout.reconfigure(errors="backslashreplace")
    code = main()
    import gc

    # The process ends here, and nothing it made needs collecting: with
    # every object in the permanent generation, the collection that
    # finalization runs scans none of them.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
