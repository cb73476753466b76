"""Text syntax for propositional formulas: tokenizer, parser, pretty-printer.

The grammar accepts alias spellings for every connective (symbolic, ASCII,
and the Spanish keywords), so ``P y Q``, ``P & Q`` and ``P ∧ Q`` all denote
the same formula.  Precedence, tightest first: not, and, or, implies, iff;
and/or associate left, implies/iff associate right.

Printing is parenthesization-minimal: the output re-parses to a structurally
equal formula in any of the three styles.

One grammar core serves this language and the monadic one of
``categorical``: a ``_Grammar`` table drives one tokenizer, one
operator-precedence parser (Dijkstra's shunting-yard) and one printer.
They keep explicit stacks, so nesting depth is bounded only by memory.

The tokenizer puts spaces around every symbol with ``str.replace`` and
splits the text with ``str.split``; tokens carry no offsets.  A compiled
pattern per grammar reads the text again only when a parse fails: for the
first unknown token, and for the span of the offending one.  Each distinct
name is classified once per parse, and a parse makes one node per distinct
leaf: every ``P`` of a formula, or every ``P(x)``, is the same node.  Nodes
are immutable, and ``==``, ``hash``, ``copy`` and ``pickle`` keep a shared
subtree shared.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from enum import Enum
from functools import cached_property
from itertools import islice
from operator import attrgetter
from typing import NamedTuple

from ._record import _is_name, _is_variable
from .logic import And, Atom, Atomic, Formula, Iff, Implies, Not, Or


class SourceSpan(NamedTuple):
    """Half-open character range into the original input."""

    start: int
    end: int


class ErrorKind(Enum):
    UNBALANCED_PAREN = "UnbalancedParen"
    UNKNOWN_TOKEN = "UnknownToken"
    UNEXPECTED_END = "UnexpectedEnd"
    TRAILING_INPUT = "TrailingInput"


class ParseError(ValueError):
    """Parse failure with a typed kind and the offending input span."""

    def __init__(self, kind: ErrorKind, span: SourceSpan, message: str):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.kind = kind
        self.span = span
        self.message = message

    def __reduce__(self):
        return type(self), (self.kind, self.span, self.message)


class Style(Enum):
    ASCII = "ascii"
    UNICODE = "unicode"
    SPANISH = "spanish"


# --- Grammar core ------------------------------------------------------------
#
# A token is a kind and a word, kept in two parallel lists.  The kind is one
# of ``_SPELLINGS``, "name" (an uppercase-initial ASCII word), "var" (a
# lowercase ASCII word, in a grammar with variables) or "end", a sentinel
# closing both lists whose span is the end of the input.

# Every spelling of each token kind.  The words are reserved; names start
# uppercase so they can never clash.
_SPELLINGS = {
    "not": ("¬", "!", "~", "no"),
    "and": ("&", "∧", "y"),
    "or": ("|", "∨", "o", "ó"),
    "implies": ("->", "=>", "⇒"),
    "iff": ("<->", "<=>", "⇔"),
    "(": ("(",),
    ")": (")",),
    ".": (".",),
}
_WORDS = {s: kind for kind, spellings in _SPELLINGS.items() for s in spellings if s.isalnum()}
# Binary connectives: precedence (higher binds tighter), right-associative.
_CONNECTIVES = {"and": (3, False), "or": (2, False), "implies": (1, True), "iff": (0, True)}
# Negation binds tighter than every binary connective.  A quantifier prints
# at 0, the floor of a whole formula and of its own body.
_NOT_PREC = 4
# Parser frames below every binary operator: a quantifier scope only ends
# at a closing parenthesis or the end, and a parenthesis only at its match.
_SCOPE, _PAREN, _BOTTOM = -1, -2, -3
# The frame of every open parenthesis.
_OPEN = (_PAREN, None, None)


class _Grammar:
    """One language's table for the shared tokenizer, parser and printer.

    ``binary`` maps the grammar's connectives to their constructors.
    The ``leaf`` constructor takes ``name(word)``, and also a variable in a
    grammar with ``quantifiers`` (keyword -> constructor of ``(variable,
    body)``); ``leaf_text`` prints its nodes.
    ``styles`` spells the connectives for printing.  Symbols of a kind the
    grammar does not use are unknown characters to it.
    """

    def __init__(
        self,
        binary: Mapping[str, type],
        negation: type,
        leaf: type,
        name: Callable[[str], object],
        leaf_text: Callable[[object], str],
        quantifiers: Mapping[str, type],
        styles: Mapping[Style, Mapping[str, str]],
        noun: str,
    ):
        kinds = {*binary, "not", "(", ")"}
        if quantifiers:
            kinds.add(".")
        # Longest first, so that "<->" is never read as "<" then "->".
        self.symbols = sorted(
            ((s, kind) for kind in kinds for s in _SPELLINGS[kind] if not s.isalnum()),
            key=lambda pair: -len(pair[0]),
        )
        self.kinds = {**_WORDS, **dict(self.symbols)}
        # Spaces around every symbol, shortest first.  A longer symbol is
        # then found as its shorter ones already padded: "<->" as "< -> ".
        self.padding = []
        for symbol, _ in reversed(self.symbols):
            padded = symbol
            for old, new in self.padding:
                padded = padded.replace(old, new)
            self.padding.append((padded, f" {symbol} "))
        self.variables = bool(quantifiers)
        self.negation = negation
        self.leaf = leaf
        self.name = name
        self.quantifiers = quantifiers
        self.noun = noun
        # A binary operator first applies every pending frame above its
        # threshold: one of equal precedence too when it associates left.
        self.binary = {}
        for kind, ctor in binary.items():
            prec, right = _CONNECTIVES[kind]
            self.binary[kind] = (prec if right else prec - 1, prec, ctor)
        # Per style, node class -> (shape, precedence, text, floors of the
        # children); a child is parenthesised when it binds below its floor.
        self.printers = {}
        for style, spelled in styles.items():
            nodes = self.printers[style] = {
                leaf: ("leaf", None, leaf_text, None, None),
                negation: ("not", _NOT_PREC, spelled["not"], _NOT_PREC, None),
            }
            for kind, ctor in binary.items():
                prec, right = _CONNECTIVES[kind]
                floors = (prec + 1, prec) if right else (prec, prec + 1)
                nodes[ctor] = ("binary", prec, f" {spelled[kind]} ", *floors)
            for word, ctor in quantifiers.items():
                nodes[ctor] = ("scope", 0, word + " ", 0, None)

    @cached_property
    def pattern(self) -> re.Pattern:
        """The token pattern, compiled on the first failed parse.

        A token is a run of letters and digits (exactly ``str.isalnum``), a
        symbol, or any other character but a space, which is unknown.  It
        reads every text as the padded split does, up to the first unknown
        token, so it serves only to find that token and a fault's span.
        """
        symbols = "|".join(re.escape(symbol) for symbol, _ in self.symbols)
        return re.compile(rf"[^\W_]+|{symbols}|\S")


def _tokenize(text: str, grammar: _Grammar) -> tuple[list[str], list[str]]:
    """The kinds and the words of the tokens of ``text``, both closed by the
    "end" sentinel; raises ``_Fault`` at the first unknown token."""
    padded = text
    # A replace per symbol beats one translate + 4 replaces (2.5x) and one re.sub (7.7x).
    for symbol, spaced in grammar.padding:
        padded = padded.replace(symbol, spaced)
    words = padded.split()
    # Names and variables are classified once per distinct word.
    found = {word: _classify(word, grammar) for word in set(words).difference(grammar.kinds)}
    if None in found.values():
        raise _unknown(text, grammar)
    kinds = list(map({**grammar.kinds, **found}.__getitem__, words))
    kinds.append("end")
    words.append("")
    return kinds, words


def _classify(word: str, grammar: _Grammar) -> str | None:
    if _is_name(word):
        return "name"
    if grammar.variables and _is_variable(word):
        return "var"
    return None


def _unknown(text: str, grammar: _Grammar) -> _Fault:
    # The first unknown token as the token pattern reads it.  The split
    # finds a piece that is no token only where the pattern reads a word
    # that is neither a name nor a variable, or a character no symbol holds.
    words = grammar.pattern.findall(text)
    index = next(
        i
        for i, word in enumerate(words)
        if word not in grammar.kinds and _classify(word, grammar) is None
    )
    noun = "word" if words[index].isalnum() else "character"
    return _Fault(index, ErrorKind.UNKNOWN_TOKEN, f"unknown {noun} {words[index]!r}")


class _Fault(Exception):
    """A parse error at a token index: ``(index, kind, message)``.
    ``_parse`` turns it into a ``ParseError`` with the token's span."""


def _expected(kinds: list, words: list, pos: int, wanted: str) -> _Fault:
    if kinds[pos] == "end":
        return _Fault(pos, ErrorKind.UNEXPECTED_END, f"expected {wanted}")
    return _Fault(pos, ErrorKind.UNKNOWN_TOKEN, f"expected {wanted}, found {words[pos]!r}")


def _unclosed(kinds: list, words: list, pos: int) -> _Fault:
    message = "missing ')'" if kinds[pos] == "end" else f"expected ')', found {words[pos]!r}"
    return _Fault(pos, ErrorKind.UNBALANCED_PAREN, message)


def _variable(kinds: list, words: list, pos: int, grammar: _Grammar) -> str:
    if kinds[pos] != "var" or words[pos] in grammar.quantifiers:
        raise _expected(kinds, words, pos, "a variable")
    return words[pos]


def _parse(text: str, grammar: _Grammar):
    """Parse ``text`` in ``grammar``; raises ``ParseError`` on the first fault."""
    try:
        return _read(*_tokenize(text, grammar), grammar)
    except _Fault as fault:
        index, kind, message = fault.args
        spans = (match.span() for match in grammar.pattern.finditer(text))
        span = SourceSpan(*next(islice(spans, index, None), (len(text), len(text))))
        raise ParseError(kind, span, message) from None


def _read(kinds: list, words: list, grammar: _Grammar):
    """Build the tree of the tokens, or raise ``_Fault`` at the first fault.

    Tokens are read once, left to right, alternating between the place of
    an operand (prefixes up to a leaf) and the place of an operator.  Frames
    are ``(precedence, constructor, argument)``: a binary operator (its left
    operand), the negation (argument ``None``), a quantifier (the variable)
    or an open parenthesis.  The negation's frame and the parenthesis's are
    the same tuple at every use.  After each operand, the frames above a
    floor (the operator's threshold, the parenthesis or the bottom) apply to
    it in turn.  A leaf node is made once per distinct leaf and shared.
    """
    binary, quantifiers, variables = grammar.binary, grammar.quantifiers, grammar.variables
    negation = (_NOT_PREC, grammar.negation, None)
    frames: list = [(_BOTTOM, None, None)]
    push, pop = frames.append, frames.pop
    leaves: dict = {}
    opened = 0
    pos = 0
    while True:
        kind = kinds[pos]
        while kind != "name":
            if kind == "not":
                push(negation)
            elif kind == "(":
                push(_OPEN)
                opened += 1
            elif kind == "var" and words[pos] in quantifiers:
                quantifier = quantifiers[words[pos]]
                var = _variable(kinds, words, pos + 1, grammar)
                pos += 2
                if kinds[pos] != ".":
                    raise _expected(kinds, words, pos, "'.'")
                push((_SCOPE, quantifier, var))
            elif kind == ")":
                raise _Fault(pos, ErrorKind.UNBALANCED_PAREN, "unmatched ')'")
            else:
                raise _expected(kinds, words, pos, "a formula")
            pos += 1
            kind = kinds[pos]
        # Keyed by the name, or by the name and the variable.
        key = word = words[pos]
        if variables:
            if kinds[pos + 1] != "(":
                raise _expected(kinds, words, pos + 1, "'('")
            key = word, _variable(kinds, words, pos + 2, grammar)
            pos += 3
            if kinds[pos] != ")":
                raise _unclosed(kinds, words, pos)
        operand = leaves.get(key)
        if operand is None:
            name = grammar.name(word)
            leaf = grammar.leaf(name, key[1]) if variables else grammar.leaf(name)
            operand = leaves[key] = leaf
        while True:
            pos += 1
            kind = kinds[pos]
            operator = binary.get(kind)
            if operator is not None:
                floor = operator[0]
            elif kind == ")" and opened:
                floor = _PAREN
            elif opened:
                raise _unclosed(kinds, words, pos)
            elif kind != "end":
                raise _Fault(
                    pos,
                    ErrorKind.TRAILING_INPUT,
                    f"unexpected input {words[pos]!r} after a complete formula",
                )
            else:
                floor = _BOTTOM
            while frames[-1][0] > floor:
                _, ctor, arg = pop()
                operand = ctor(operand) if arg is None else ctor(arg, operand)
            if operator is not None:
                push((operator[1], operator[2], operand))
                pos += 1
                break
            if floor == _BOTTOM:
                return operand
            pop()
            opened -= 1


def _format(formula, grammar: _Grammar, style: Style) -> str:
    """Render ``formula`` with the fewest parentheses that re-parse to it.

    A node's left operand, or its only one, is written at once, in an inner
    loop down to a leaf.  The stack holds what waits: a closing ``")"``, or
    ``(text, node, floor)``, which emits a binary operator's text and then
    writes its right operand ``node``, in parentheses if it binds below
    ``floor``.
    """
    nodes = grammar.printers[style]
    out: list[str] = []
    emit = out.append
    stack: list = [("", formula, 0)]
    push, pop = stack.append, stack.pop
    while stack:
        item = pop()
        if type(item) is str:
            emit(item)
            continue
        text, node, floor = item
        emit(text)
        while True:
            entry = nodes.get(type(node))
            if entry is None:
                raise TypeError(f"not a {grammar.noun}: {node!r}")
            shape, prec, text, left, right = entry
            if shape == "leaf":
                emit(text(node))
                break
            if prec < floor:
                emit("(")
                push(")")
            if shape == "binary":
                push((text, node.right, right))
                node, floor = node.left, left
            elif shape == "not":
                emit(text)
                node, floor = node.inner, left
            else:
                emit(f"{text}{node.var}. ")
                node, floor = node.body, left
    return "".join(out)


# --- The propositional language -----------------------------------------------

_PROPOSITIONAL = _Grammar(
    binary={"and": And, "or": Or, "implies": Implies, "iff": Iff},
    negation=Not,
    leaf=Atomic,
    name=Atom,
    leaf_text=attrgetter("atom.name"),
    quantifiers={},
    styles={
        Style.ASCII: {"not": "!", "and": "&", "or": "|", "implies": "->", "iff": "<->"},
        Style.UNICODE: {"not": "¬", "and": "∧", "or": "∨", "implies": "⇒", "iff": "⇔"},
        Style.SPANISH: {"not": "¬", "and": "y", "or": "ó", "implies": "⇒", "iff": "⇔"},
    },
    noun="formula",
)


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula; raises ``ParseError`` on the first fault."""
    return _parse(text, _PROPOSITIONAL)


def format_formula(formula: Formula, style: Style = Style.ASCII) -> str:
    """Render ``formula`` with minimal parentheses in the given style.
    Raises ``TypeError`` when ``style`` is not a ``Style``."""
    if not isinstance(style, Style):
        raise TypeError(f"style must be a Style, got {type(style).__name__}")
    return _format(formula, _PROPOSITIONAL, style)
