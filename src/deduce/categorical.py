"""Categorical statements, Aristotelian syllogisms, and finite-model checking.

A categorical form is one of the four classical statement shapes over two
predicate names (all/no/some/some-not).  Syllogism validity is decided over
canonical finite models: three predicates split any universe into at most
eight regions, and duplicating elements inside a region never changes a
categorical form's truth value, so the 256 models with at most one element
per region are enough.  A set of these models is a 256-bit int, bit ``m``
for the model whose inhabited regions are the set bits of ``m`` (Venn's
region method, with truth tables as bit vectors): a particular form holds
in the models that inhabit one of its regions, a universal in the rest.
Those sets are one table of 36 ints built at import, one per kind and per
(subject, predicate) pair of term bits, so a verdict is three lookups:
``major & minor & ~conclusion`` holds the counter-models, and its lowest
bit is the first counter-model of the canonical enumeration.  The same
module carries a small monadic quantifier language with negation rewriting
into negation normal form; ``predicates`` and ``free_variables`` read one
walk that collects a formula's predicate names and free variables together.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from enum import Enum
from functools import cache, reduce
from operator import and_, or_
from typing import TYPE_CHECKING

from ._record import Node, Record, _is_name, _is_variable

if TYPE_CHECKING:
    from .parser import _Grammar


class UnknownPredicate(LookupError):
    """A model does not give an extension for some predicate."""

    def __init__(self, name: str):
        super().__init__(f"model has no extension for predicate {name!r}")
        self.name = name

    def __reduce__(self):
        return type(self), (self.name,)


class UnknownSyllogism(LookupError):
    """No syllogism with the requested name exists in the registry."""

    def __init__(self, name: str):
        super().__init__(f"unknown syllogism {name!r}")
        self.name = name

    def __reduce__(self):
        return type(self), (self.name,)


class FormKind(Enum):
    UNIVERSAL_AFFIRMATIVE = "all"
    UNIVERSAL_NEGATIVE = "no"
    PARTICULAR_AFFIRMATIVE = "some"
    PARTICULAR_NEGATIVE = "some-not"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ``==``; ``Enum.__hash__`` is a Python function on 3.10-3.13,
    # and a verdict hashes a kind three times.
    __hash__ = object.__hash__


_SPANISH_TEMPLATES = {
    FormKind.UNIVERSAL_AFFIRMATIVE: "todo {s} es {p}",
    FormKind.UNIVERSAL_NEGATIVE: "ningún {s} es {p}",
    FormKind.PARTICULAR_AFFIRMATIVE: "algún {s} es {p}",
    FormKind.PARTICULAR_NEGATIVE: "algún {s} no es {p}",
}

_KIND_BY_CODE = {kind.value: kind for kind in FormKind}


class CategoricalForm(Record):
    """One of the four statement shapes applied to two predicate names.

    Subject and predicate may coincide ("todo A es A" is legal and always
    true); names follow the identifier rule: uppercase letter, then letters
    or digits.
    """

    __slots__ = ("kind", "subject", "predicate")

    def __init__(self, kind: FormKind, subject: str, predicate: str):
        # Any other kind would read as "some-not" in the model search.
        if not isinstance(kind, FormKind):
            raise TypeError(f"kind must be a FormKind, got {type(kind).__name__}")
        for name in (subject, predicate):
            if not _is_name(name):
                raise ValueError(f"invalid predicate name {name!r}")
        _set_kind(self, kind)
        _set_subject(self, subject)
        _set_predicate(self, predicate)

    @property
    def code(self) -> str:
        """Compact spelling, e.g. ``all:S:P``."""
        return f"{self.kind.value}:{self.subject}:{self.predicate}"

    def describe(self) -> str:
        """Classical Spanish reading, e.g. ``todo S es P``."""
        return _SPANISH_TEMPLATES[self.kind].format(s=self.subject, p=self.predicate)


_set_kind = CategoricalForm.kind.__set__
_set_subject = CategoricalForm.subject.__set__
_set_predicate = CategoricalForm.predicate.__set__


def parse_categorical(code: str) -> CategoricalForm:
    """Parse the compact ``kind:Subject:Predicate`` spelling."""
    parts = code.split(":")
    if len(parts) != 3 or parts[0] not in _KIND_BY_CODE:
        raise ValueError(
            f"malformed categorical form {code!r}: expected "
            "all:S:P, no:S:P, some:S:P, or some-not:S:P"
        )
    return CategoricalForm(_KIND_BY_CODE[parts[0]], parts[1], parts[2])


class Syllogism(Record):
    """Two premises and a conclusion naming exactly three distinct terms."""

    __slots__ = ("major", "minor", "conclusion")

    def __init__(
        self, major: CategoricalForm, minor: CategoricalForm, conclusion: CategoricalForm
    ):
        # Any other object would be misread by the model table, or fail in it.
        for field, form, store in (
            ("major", major, _set_major),
            ("minor", minor, _set_minor),
            ("conclusion", conclusion, _set_conclusion),
        ):
            if not isinstance(form, CategoricalForm):
                raise TypeError(
                    f"{field} must be a CategoricalForm, got {type(form).__name__}"
                )
            store(self, form)
        if len(self.term_names()) != 3:
            raise ValueError("a syllogism must mention exactly three distinct terms")

    def term_names(self) -> tuple[str, ...]:
        major, minor, conclusion = self.major, self.minor, self.conclusion
        names = {
            major.subject, major.predicate,
            minor.subject, minor.predicate,
            conclusion.subject, conclusion.predicate,
        }
        return tuple(sorted(names))


_set_major = Syllogism.major.__set__
_set_minor = Syllogism.minor.__set__
_set_conclusion = Syllogism.conclusion.__set__


class FiniteModel(Record):
    """A universe ``{0, ..., universe_size - 1}`` with predicate extensions."""

    __slots__ = ("universe_size", "extensions")

    def __init__(self, universe_size: int, extensions: Mapping[str, frozenset[int]]):
        if universe_size < 0:
            raise ValueError("universe size must be non-negative")
        frozen = {name: frozenset(members) for name, members in extensions.items()}
        universe = range(universe_size)
        for name, members in frozen.items():
            if not all(member in universe for member in members):
                raise ValueError(
                    f"extension of {name!r} reaches outside the universe"
                )
        _set_universe_size(self, universe_size)
        _set_extensions(self, frozen)

    def extension(self, name: str) -> frozenset[int]:
        try:
            return self.extensions[name]
        except KeyError:
            raise UnknownPredicate(name) from None


_set_universe_size = FiniteModel.universe_size.__set__
_set_extensions = FiniteModel.extensions.__set__


class Verdict(Record):
    """Valid, or invalid with a counter-model satisfying both premises and
    falsifying the conclusion."""

    __slots__ = ("valid", "counter_model")

    def __init__(self, valid: bool, counter_model: FiniteModel | None = None):
        _set_valid(self, valid)
        _set_counter_model(self, counter_model)

    def __bool__(self) -> bool:
        return self.valid


_set_valid, _set_counter_model = Verdict.valid.__set__, Verdict.counter_model.__set__


def eval_categorical(form: CategoricalForm, model: FiniteModel) -> bool:
    """Truth of a categorical form in a model, by its set reading."""
    subject = model.extension(form.subject)
    predicate = model.extension(form.predicate)
    match form.kind:
        case FormKind.UNIVERSAL_AFFIRMATIVE:
            return subject <= predicate
        case FormKind.UNIVERSAL_NEGATIVE:
            return not (subject & predicate)
        case FormKind.PARTICULAR_AFFIRMATIVE:
            return bool(subject & predicate)
        case FormKind.PARTICULAR_NEGATIVE:
            return bool(subject - predicate)
    raise TypeError(f"not a categorical kind: {form.kind!r}")


# The ten named moods: major, minor and conclusion, spelt as for
# ``syllogism custom``.
_SYLLOGISMS: tuple[tuple[str, Syllogism], ...] = tuple(
    (name, Syllogism(*map(parse_categorical, forms.split())))
    for name, forms in (
        ("barbara", "all:M:B all:A:M all:A:B"),
        ("celarent", "no:M:B all:A:M no:A:B"),
        ("darii", "all:M:B some:A:M some:A:B"),
        ("ferio", "no:M:B some:A:M some-not:A:B"),
        ("cesare", "no:B:M all:A:M no:A:B"),
        ("camestres", "all:B:M no:A:M no:A:B"),
        ("festino", "no:B:M some:A:M some-not:A:B"),
        ("baroco", "all:B:M some-not:A:M some-not:A:B"),
        ("darapti", "all:M:B all:M:A some:A:B"),
        ("felapton", "no:M:B all:M:A some-not:A:B"),
    )
)
_SYLLOGISM_BY_NAME = {name: syllogism for name, syllogism in _SYLLOGISMS}


def registry_syllogisms() -> tuple[tuple[str, Syllogism], ...]:
    """The ten named moods, in their traditional order."""
    return _SYLLOGISMS


def get_syllogism(name: str) -> Syllogism:
    """Look up a mood by name (case-insensitive); raises ``UnknownSyllogism``."""
    syllogism = _SYLLOGISM_BY_NAME.get(name.lower())
    if syllogism is None:
        raise UnknownSyllogism(name)
    return syllogism


def _model_of(names: tuple[str, ...], mask: int) -> FiniteModel:
    """The canonical model whose inhabited regions are the set bits of
    ``mask``: one element per region, in ascending region order."""
    # The members of ``names[0]``, ``names[1]`` and ``names[2]``, read off
    # each set bit of ``mask`` in turn; bit r of 0b10101010 is set when
    # region r lies in ``names[0]``, and so on.
    first: list[int] = []
    second: list[int] = []
    third: list[int] = []
    size = 0
    while mask:
        low = mask & -mask
        if low & 0b10101010:
            first.append(size)
        if low & 0b11001100:
            second.append(size)
        if low & 0b11110000:
            third.append(size)
        size += 1
        mask ^= low
    # The members are 0 .. size - 1, so the constructor's range check and
    # second freeze are skipped.
    model = FiniteModel.__new__(FiniteModel)
    _set_universe_size(model, size)
    _set_extensions(
        model, dict(zip(names, (frozenset(first), frozenset(second), frozenset(third))))
    )
    return model


def canonical_models(
    names: tuple[str, str, str], existential_import: bool = False
) -> Iterator[FiniteModel]:
    """All 256 canonical models over three predicate names, ascending.

    Each of the eight membership regions appears zero or one times; region
    ``r`` contains the predicate ``names[i]`` exactly when bit ``i`` of ``r``
    is set.  With ``existential_import`` only models where every extension
    is non-empty are produced.  Raises ``ValueError`` unless ``names`` are
    three distinct names.
    """
    if len(names) != 3 or len(set(names)) != 3:
        raise ValueError(f"expected three distinct predicate names, got {names!r}")
    return (
        _model_of(names, mask)
        for mask in range(256)
        if not existential_import or _IMPORT >> mask & 1
    )


# A model set is an int whose bit ``m`` stands for the canonical model
# ``_model_of(names, m)``.  ``_INHABITED[r]`` holds the models that inhabit
# region ``r``: the ``m`` with bit ``r`` set, which is 2^r set bits above
# 2^r clear ones, repeated every 2^(r+1) bits (``_ALL // (2^(2^(r+1)) - 1)``
# has one set bit per period).
_ALL = (1 << 256) - 1
_INHABITED = tuple(
    _ALL // ((1 << (2 << r)) - 1) * (((1 << (1 << r)) - 1) << (1 << r)) for r in range(8)
)


def _union(regions: Iterable[int]) -> int:
    """The models that inhabit at least one of ``regions``."""
    return reduce(or_, (_INHABITED[r] for r in regions), 0)


# Existential import: each of the three terms has an inhabited region.
_IMPORT = reduce(
    and_, (_union(r for r in range(8) if r >> bit & 1) for bit in range(3))
)


def _form_table() -> dict[tuple[FormKind, int, int], int]:
    """The canonical models of each form, keyed by its kind and the bits of
    its subject and predicate.  A particular holds where one of its regions
    is inhabited, a universal where none is; the regions are the subject's
    that lie inside the predicate (no, some) or outside it (all, some-not)."""
    table = {}
    for subject in range(3):
        for predicate in range(3):
            regions = [r for r in range(8) if r >> subject & 1]
            inside = _union(r for r in regions if r >> predicate & 1)
            outside = _union(r for r in regions if not r >> predicate & 1)
            for kind, models in (
                (FormKind.UNIVERSAL_AFFIRMATIVE, _ALL ^ outside),
                (FormKind.UNIVERSAL_NEGATIVE, _ALL ^ inside),
                (FormKind.PARTICULAR_AFFIRMATIVE, inside),
                (FormKind.PARTICULAR_NEGATIVE, outside),
            ):
                table[kind, subject, predicate] = models
    return table


_FORM_MODELS = _form_table()


def _counter_models(syllogism: Syllogism) -> tuple[int, tuple[str, ...]]:
    """The canonical counter-models of ``syllogism``, the models of both
    premises outside the conclusion's, and the term names that number its
    bits."""
    names = syllogism.term_names()
    major, minor, conclusion = syllogism.major, syllogism.minor, syllogism.conclusion
    index = names.index
    return (
        _FORM_MODELS[major.kind, index(major.subject), index(major.predicate)]
        & _FORM_MODELS[minor.kind, index(minor.subject), index(minor.predicate)]
        & ~_FORM_MODELS[conclusion.kind, index(conclusion.subject), index(conclusion.predicate)]
    ), names


def _verdicts(syllogism: Syllogism, existential_import: bool) -> tuple[Verdict, bool]:
    """The verdict on ``syllogism``, with or without existential import, and
    whether it is valid with import.  One counter-model mask gives both: the
    import models are a subset of all models, so the counter-models with
    import are ``counters & _IMPORT``."""
    counters, names = _counter_models(syllogism)
    with_import = not counters & _IMPORT
    if existential_import:
        counters &= _IMPORT
    if not counters:
        return Verdict(True), with_import
    first = (counters & -counters).bit_length() - 1
    return Verdict(False, _model_of(names, first)), with_import


def valid_syllogism(syllogism: Syllogism, existential_import: bool = False) -> Verdict:
    """Decide a syllogism over the 256 canonical models at once.

    Its counter-models are the models of both premises outside the
    conclusion's; the lowest is the first counter-model of the canonical
    enumeration, so output is deterministic.  ``existential_import``
    restricts the models to those where all three terms denote non-empty
    sets.  Raises ``TypeError`` when ``syllogism`` is not a ``Syllogism``.
    """
    # Any other object would fail deep in the model table, or be misread.
    if not isinstance(syllogism, Syllogism):
        raise TypeError(f"syllogism must be a Syllogism, got {type(syllogism).__name__}")
    return _verdicts(syllogism, existential_import)[0]


# --- Monadic quantifier language ------------------------------------------


class MonadicFormula(Node):
    """Base class for the quantified fragment: one variable sort, unary
    predicates, no functions or equality."""

    __slots__ = ()


def _checked_variable(var: str) -> str:
    """``var``, if the monadic parser reads it as a variable."""
    if not isinstance(var, str):
        raise TypeError(f"variable must be a str, got {type(var).__name__}")
    if not _is_variable(var) or var in _keywords():
        raise ValueError(f"invalid variable {var!r}")
    return var


class PredApp(MonadicFormula):
    __slots__ = ("pred", "var")

    def __init__(self, pred: str, var: str):
        if not _is_name(pred):
            raise ValueError(f"invalid predicate name {pred!r}")
        _set_pred(self, pred)
        _set_app_var(self, _checked_variable(var))


_set_pred, _set_app_var = PredApp.pred.__set__, PredApp.var.__set__


class MNot(MonadicFormula):
    __slots__ = ("inner",)

    def __init__(self, inner: MonadicFormula):
        _set_inner(self, inner)


_set_inner = MNot.inner.__set__


class _MBinary(MonadicFormula):
    __slots__ = ("left", "right")

    def __init__(self, left: MonadicFormula, right: MonadicFormula):
        _set_left(self, left)
        _set_right(self, right)


_set_left, _set_right = _MBinary.left.__set__, _MBinary.right.__set__


class MAnd(_MBinary):
    __slots__ = ()


class MOr(_MBinary):
    __slots__ = ()


class MImplies(_MBinary):
    __slots__ = ()


class _Quantifier(MonadicFormula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: MonadicFormula):
        _set_var(self, _checked_variable(var))
        _set_body(self, body)


_set_var, _set_body = _Quantifier.var.__set__, _Quantifier.body.__set__


class ForAll(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


_BINARY_NODES = (MAnd, MOr, MImplies)
_QUANTIFIER_NODES = (ForAll, Exists)
#: Ends a quantifier's scope on ``_symbols``'s work stack, above the bound
#: variable's name; no field of a formula is this object.
_SCOPE_END = object()


def _symbols(formula: MonadicFormula) -> tuple[set[str], set[str]]:
    """The predicate names and the free variables of ``formula``, from one
    walk with an explicit stack (no recursion limit on nesting depth)."""
    names: set[str] = set()
    free: set[str] = set()
    bound: dict[str, int] = {}
    # Work items are formulas to visit, or ``_SCOPE_END`` above a bound
    # variable's name where its quantifier's scope ends.
    pending: list = [formula]
    while pending:
        node = pending.pop()
        kind = type(node)
        if node is _SCOPE_END:
            bound[pending.pop()] -= 1
        elif kind is PredApp:
            names.add(node.pred)
            if not bound.get(node.var):
                free.add(node.var)
        elif kind is MNot:
            pending.append(node.inner)
        elif kind in _BINARY_NODES:
            pending.append(node.right)
            pending.append(node.left)
        elif kind in _QUANTIFIER_NODES:
            bound[node.var] = bound.get(node.var, 0) + 1
            pending.append(node.var)
            pending.append(_SCOPE_END)
            pending.append(node.body)
        else:
            raise TypeError(f"not a monadic formula: {node!r}")
    return names, free


def free_variables(formula: MonadicFormula) -> frozenset[str]:
    return frozenset(_symbols(formula)[1])


def predicates(formula: MonadicFormula) -> tuple[str, ...]:
    """All predicate names occurring in the formula, sorted."""
    return tuple(sorted(_symbols(formula)[0]))


def _require_closed(formula: MonadicFormula) -> None:
    free = _symbols(formula)[1]
    if free:
        raise ValueError(
            f"formula must be closed; free variables: {', '.join(sorted(free))}"
        )


def eval_monadic(formula: MonadicFormula, model: FiniteModel) -> bool:
    """Standard finite-domain semantics for a closed monadic formula.

    A universal over the empty universe is true and an existential false.
    """
    _require_closed(formula)
    size = model.universe_size
    value = False
    # Work items are ``(node, env, None)``, which evaluates ``node`` into
    # ``value``, and ``(node, env, element)``, which resumes ``node`` with
    # the value of the item run above it.
    pending: list = [(formula, {}, None)]
    while pending:
        node, env, element = pending.pop()
        kind = type(node)
        if element is None:
            if kind is PredApp:
                value = env[node.var] in model.extension(node.pred)
            elif kind is MNot:
                pending.append((node, env, 0))
                pending.append((node.inner, env, None))
            elif kind in _BINARY_NODES:
                pending.append((node, env, 0))
                pending.append((node.left, env, None))
            else:
                # A quantifier: ``_require_closed`` refused any other node.
                # Its answer over an empty universe, or so far.
                value = kind is ForAll
                pending.append((node, env, 0))
        elif kind is MNot:
            value = not value
        elif kind in _BINARY_NODES:
            # A false left operand settles MAnd (false) and MImplies (true),
            # a true one MOr (true); otherwise the right operand decides.
            if value is (kind is not MOr):
                pending.append((node.right, env, None))
            elif kind is MImplies:
                value = True
        elif value is (kind is ForAll) and element < size:
            # Not yet settled: go on with the next element.
            pending.append((node, env, element + 1))
            pending.append((node.body, env | {node.var: element}, None))
    return value


# Node class -> (constructor of its normal form, of its negation's); an
# implication's antecedent changes polarity.
_NNF = {
    MAnd: (MAnd, MOr),
    MOr: (MOr, MAnd),
    MImplies: (MOr, MAnd),
    ForAll: (ForAll, Exists),
    Exists: (Exists, ForAll),
}


def negate_quantifiers(formula: MonadicFormula) -> MonadicFormula:
    """Negation normal form of the NEGATION of a closed formula.

    Quantifier duals, De Morgan, and implication elimination push negation
    inward until it sits only on predicate applications, by one walk that
    carries each subformula's polarity.

    Work items are ``(formula, negated)`` to visit, ``(constructor, None)``
    to join the last two results, and ``(constructor, quantifier)`` to bind
    the last result to the quantifier's variable, whatever that holds.
    """
    _require_closed(formula)
    out: list[MonadicFormula] = []
    pending: list = [(formula, True)]
    while pending:
        node, arg = pending.pop()
        if arg is None:
            right = out.pop()
            out[-1] = node(out[-1], right)
            continue
        if type(arg) in _QUANTIFIER_NODES:
            out[-1] = node(arg.var, out[-1])
            continue
        kind = type(node)
        if kind is PredApp:
            out.append(MNot(node) if arg else node)
        elif kind is MNot:
            pending.append((node.inner, not arg))
        elif kind in _BINARY_NODES:
            pending.append((_NNF[kind][arg], None))
            pending.append((node.right, arg))
            pending.append((node.left, not arg if kind is MImplies else arg))
        else:
            # A quantifier: ``_require_closed`` refused any other node.
            pending.append((_NNF[kind][arg], node))
            pending.append((node.body, arg))
    return out[0]


# --- Surface syntax for monadic formulas ------------------------------------
#
# The propositional grammar without the biconditional, plus "forall x." /
# "exists x." and predicate application "P(x)".  A quantifier's body
# extends as far right as possible.  Lowercase identifiers are variables,
# except the quantifier keywords; "y", "o", "ó" and "no" are connectives.


@cache
def _monadic() -> _Grammar:
    """The monadic grammar, built the first time the language is used, so
    that the syllogism half of this module loads neither ``parser`` nor
    ``logic``."""
    from .parser import Style, _Grammar

    return _Grammar(
        binary={"and": MAnd, "or": MOr, "implies": MImplies},
        negation=MNot,
        leaf=PredApp,
        name=str,
        leaf_text=lambda node: f"{node.pred}({node.var})",
        quantifiers={"forall": ForAll, "exists": Exists},
        styles={Style.ASCII: {"not": "~", "and": "&", "or": "|", "implies": "->"}},
        noun="monadic formula",
    )


@cache
def _keywords() -> frozenset[str]:
    """The words of the monadic grammar that no variable may be: its
    connective words and its quantifiers, read once from the grammar."""
    grammar = _monadic()
    return frozenset({*grammar.kinds, *grammar.quantifiers})


def parse_monadic(text: str) -> MonadicFormula:
    """Parse the monadic surface syntax; raises ``ParseError`` on a fault."""
    from .parser import _parse

    return _parse(text, _monadic())


def format_monadic(formula: MonadicFormula) -> str:
    """Render in the ASCII surface syntax with minimal parentheses."""
    from .parser import Style, _format

    return _format(formula, _monadic(), Style.ASCII)
