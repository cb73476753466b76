"""Registry of the eight classically named tautology schemata, and entailment.

Each schema is a formula pattern over metavariables; instantiating one
substitutes arbitrary formulas for the metavariables, which preserves
tautology.  Importing the registry only parses the patterns; a pattern is
classified when ``verify_rule`` is asked to.  ``entails`` is the general
semantic check: the premises entail the conclusion exactly when
premises-conjoined-implies-conclusion is a tautology.
"""

from __future__ import annotations

from functools import reduce
from collections.abc import Mapping, Sequence

from ._record import Record
from .logic import (
    And,
    Atom,
    Classification,
    Formula,
    Implies,
    atoms,
    classify,
    falsifying_valuation,
    substitute,
)
from .parser import parse


class UnknownRule(LookupError):
    """No schema with the requested name exists in the registry."""

    def __init__(self, name: str):
        super().__init__(f"unknown rule {name!r}")
        self.name = name

    def __reduce__(self):
        return type(self), (self.name,)


class RuleSchema(Record):
    __slots__ = ("name", "metavariables", "pattern")

    def __init__(self, name: str, metavariables: tuple[Atom, ...], pattern: Formula):
        _set_name(self, name)
        _set_metavariables(self, metavariables)
        _set_pattern(self, pattern)


_set_name = RuleSchema.name.__set__
_set_metavariables = RuleSchema.metavariables.__set__
_set_pattern = RuleSchema.pattern.__set__


class Entailment(Record):
    """Premises and a conclusion; empty premises ask whether the conclusion
    is a tautology outright."""

    __slots__ = ("premises", "conclusion")

    def __init__(self, premises: tuple[Formula, ...], conclusion: Formula):
        _set_premises(self, premises)
        _set_conclusion(self, conclusion)


_set_premises, _set_conclusion = Entailment.premises.__set__, Entailment.conclusion.__set__


class Verdict(Record):
    """Either valid, or invalid with one countervaluation (canonical row
    order) making every premise true and the conclusion false."""

    __slots__ = ("valid", "countervaluation")

    def __init__(self, valid: bool, countervaluation: dict[str, bool] | None = None):
        _set_valid(self, valid)
        _set_countervaluation(self, countervaluation)

    def __bool__(self) -> bool:
        return self.valid


_set_valid, _set_countervaluation = Verdict.valid.__set__, Verdict.countervaluation.__set__


# Names are ASCII, lowercase, hyphenated; accents are stripped so they work
# as command arguments.  Patterns in the keyword notation.
_RULE_SOURCES: tuple[tuple[str, str], ...] = (
    ("modus-ponens", "((P ⇒ Q) y P) ⇒ Q"),
    ("tollendo-ponens", "((P ó Q) y ¬P) ⇒ Q"),
    ("tollendo-tollens", "((P ⇒ Q) y ¬Q) ⇒ ¬P"),
    ("contrapuesta", "(P ⇒ Q) ⇒ (¬Q ⇒ ¬P)"),
    ("silogismo-hipotetico", "((P ⇒ Q) y (Q ⇒ R)) ⇒ (P ⇒ R)"),
    ("dilema-constructivo", "((P ⇒ Q) y (R ⇒ S) y (P ó R)) ⇒ (Q ó S)"),
    ("dilema-destructivo", "((P ⇒ Q) y (R ⇒ S) y (¬Q ó ¬S)) ⇒ (¬P ó ¬R)"),
    ("exportacion", "(P ⇒ (Q ⇒ R)) ⇔ ((P y Q) ⇒ R)"),
)


def _build_registry() -> tuple[RuleSchema, ...]:
    patterns = ((name, parse(source)) for name, source in _RULE_SOURCES)
    return tuple(RuleSchema(name, atoms(pattern), pattern) for name, pattern in patterns)


_REGISTRY: tuple[RuleSchema, ...] = _build_registry()
_BY_NAME: dict[str, RuleSchema] = {schema.name: schema for schema in _REGISTRY}


def registry() -> tuple[RuleSchema, ...]:
    """The eight named schemata, in their traditional order."""
    return _REGISTRY


def get_rule(name: str) -> RuleSchema:
    """Look up a schema by name (case-insensitive); raises ``UnknownRule``."""
    schema = _BY_NAME.get(name.lower())
    if schema is None:
        raise UnknownRule(name)
    return schema


def verify_rule(name: str) -> Classification:
    """Re-classify the named schema's pattern from scratch."""
    return classify(get_rule(name).pattern)


def instantiate(name: str, substitution: Mapping[str, Formula]) -> Formula:
    """Substitute formulas for the schema's metavariables.

    Unmapped metavariables stay atomic; mapping a name that is not a
    metavariable of the schema is rejected.
    """
    schema = get_rule(name)
    allowed = {atom.name for atom in schema.metavariables}
    extra = set(substitution) - allowed
    if extra:
        raise ValueError(
            f"not metavariables of {schema.name!r}: {', '.join(sorted(extra))}"
        )
    return substitute(schema.pattern, substitution)


def entails(entailment: Entailment) -> Verdict:
    """Decide semantic entailment via the implication-tautology reduction.

    The premises (conjoined, left-associated) implying the conclusion is
    checked for tautology; the first falsifying valuation in canonical row
    order, if any, is returned as the countervaluation.
    """
    formula: Formula = entailment.conclusion
    if entailment.premises:
        formula = Implies(reduce(And, entailment.premises), formula)
    counter = falsifying_valuation(formula)
    return Verdict(valid=counter is None, countervaluation=counter)


def entail(premises: Sequence[Formula], conclusion: Formula) -> Verdict:
    """Convenience wrapper building the ``Entailment`` record."""
    return entails(Entailment(premises=tuple(premises), conclusion=conclusion))
