"""Deduction toolkit.

Propositional formulas with truth-table semantics, the eight named
tautology schemata and semantic entailment, the ten Aristotelian syllogisms
checked over finite models, quantifier negation rewriting, and gcd-based
two-vessel measuring plans.  The ``deduce`` command exposes all of it.

``import deduce`` loads no submodule: each public name, and the submodules
``logic`` and ``parser``, are imported on their first access (PEP 562).
"""

__version__ = "0.1.0"

#: Each public name -> the submodule that defines it.
_HOMES = {
    **dict.fromkeys(
        (
            "MAX_ATOMS", "And", "Atom", "Atomic", "Classification", "Formula", "Iff",
            "Implies", "MissingAtom", "Not", "Or", "TableRow", "TooManyAtoms", "TruthTable",
            "atoms", "classify", "equivalent", "evaluate", "falsifying_valuation",
            "format_truth_value", "parse_truth_value", "prop", "substitute", "truth_table",
        ),
        "logic",
    ),
    **dict.fromkeys(
        ("ErrorKind", "ParseError", "SourceSpan", "Style", "format_formula", "parse"), "parser"
    ),
}
_SUBMODULES = ("logic", "parser")

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        # The import binds the submodule to its name here.
        return import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
