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

The tokenizer is one compiled pattern per grammar, run by ``findall``;
tokens carry no offsets, and the offending token's span is recomputed by
scanning the text again only when an error is reported.  Each distinct
name is classified and made into an atom once per parse; every leaf is
still a node of its own.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import NamedTuple

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
# A token is a pair ``(kind, text)``: a kind of ``_SPELLINGS``, "name" (an
# uppercase-initial ASCII word), "var" (a lowercase ASCII word, in a grammar
# with variables) or "end", a sentinel closing every token list whose span
# is the end of the input.

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
_BINARY = object()  # the argument in a binary operator's frame


class _Grammar:
    """One language's table for the shared tokenizer, parser and printer.

    ``binary`` maps the grammar's connectives to their constructors.
    The ``leaf`` constructor takes ``name(word)``, made once per distinct
    word in a parse, and also a variable in a grammar with ``quantifiers``
    (keyword -> constructor of ``(variable, body)``); ``leaf_text`` prints
    its nodes.
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
        """The tokenizer, compiled on the first parse rather than at import.

        A token is a run of letters and digits (exactly ``str.isalnum``), a
        symbol, or any other character but a space, which is unknown.
        """
        symbols = "|".join(re.escape(symbol) for symbol, _ in self.symbols)
        return re.compile(rf"[^\W_]+|{symbols}|\S")


def _tokenize(text: str, grammar: _Grammar) -> list[tuple[str, str]]:
    words = grammar.pattern.findall(text)
    kinds = grammar.kinds
    # Names and variables are classified once per distinct word.
    found = {word: _classify(word, grammar) for word in set(words).difference(kinds)}
    unknown = {word for word, kind in found.items() if kind is None}
    if unknown:
        index = next(i for i, word in enumerate(words) if word in unknown)
        noun = "word" if words[index].isalnum() else "character"
        raise _Fault(index, ErrorKind.UNKNOWN_TOKEN, f"unknown {noun} {words[index]!r}")
    tokens = list(zip(map({**kinds, **found}.__getitem__, words), words))
    tokens.append(("end", ""))
    return tokens


def _classify(word: str, grammar: _Grammar) -> str | None:
    if word.isascii():
        if word[0].isupper():
            return "name"
        if grammar.variables and word[0].islower():
            return "var"
    return None


class _Fault(Exception):
    """A parse error at a token index: ``(index, kind, message)``.
    ``_parse`` turns it into a ``ParseError`` with the token's span."""


def _expected(tokens: list, pos: int, wanted: str) -> _Fault:
    kind, text = tokens[pos]
    if kind == "end":
        return _Fault(pos, ErrorKind.UNEXPECTED_END, f"expected {wanted}")
    return _Fault(pos, ErrorKind.UNKNOWN_TOKEN, f"expected {wanted}, found {text!r}")


def _unclosed(tokens: list, pos: int) -> _Fault:
    kind, text = tokens[pos]
    message = "missing ')'" if kind == "end" else f"expected ')', found {text!r}"
    return _Fault(pos, ErrorKind.UNBALANCED_PAREN, message)


def _variable(tokens: list, pos: int, grammar: _Grammar) -> str:
    token = tokens[pos]
    if token[0] != "var" or token[1] in grammar.quantifiers:
        raise _expected(tokens, pos, "a variable")
    return token[1]


def _reduce(frames: list, operands: list, floor: int) -> None:
    """Apply the pending operators above ``floor`` to the operand stack."""
    while frames[-1][0] > floor:
        _, ctor, arg = frames.pop()
        if arg is _BINARY:
            right = operands.pop()
            operands[-1] = ctor(operands[-1], right)
        elif arg is None:
            operands[-1] = ctor(operands[-1])
        else:
            operands[-1] = ctor(arg, operands[-1])


def _parse(text: str, grammar: _Grammar):
    """Parse ``text`` in ``grammar``; raises ``ParseError`` on the first fault."""
    try:
        return _read(_tokenize(text, grammar), grammar)
    except _Fault as fault:
        index, kind, message = fault.args
        spans = (match.span() for match in grammar.pattern.finditer(text))
        span = SourceSpan(*next(islice(spans, index, None), (len(text), len(text))))
        raise ParseError(kind, span, message) from None


def _read(tokens: list, grammar: _Grammar):
    """Build the tree of ``tokens``, or raise ``_Fault`` at the first fault.

    Tokens are read once, left to right, alternating between the place of
    an operand (prefixes, then a leaf) and the place of an operator.  Frames
    are ``(precedence, constructor, argument)``: a binary operator, the
    negation (argument ``None``), a quantifier (the variable) or an open
    parenthesis.
    """
    binary, quantifiers = grammar.binary, grammar.quantifiers
    frames: list = [(_BOTTOM, None, None)]
    operands: list = []
    names: dict = {}
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
                var = _variable(tokens, pos + 1, grammar)
                pos += 2
                if tokens[pos][0] != ".":
                    raise _expected(tokens, pos, "'.'")
                frames.append((_SCOPE, quantifiers[token[1]], var))
            else:
                break
            pos += 1
        if kind == "name":
            name = names.get(token[1])
            if name is None:
                name = names[token[1]] = grammar.name(token[1])
            if grammar.variables:
                if tokens[pos + 1][0] != "(":
                    raise _expected(tokens, pos + 1, "'('")
                var = _variable(tokens, pos + 2, grammar)
                pos += 3
                if tokens[pos][0] != ")":
                    raise _unclosed(tokens, pos)
                operands.append(grammar.leaf(name, var))
            else:
                operands.append(grammar.leaf(name))
        elif kind == ")":
            raise _Fault(pos, ErrorKind.UNBALANCED_PAREN, "unmatched ')'")
        else:
            raise _expected(tokens, pos, "a formula")
        while True:
            pos += 1
            token = tokens[pos]
            kind = token[0]
            operator = binary.get(kind)
            if operator is not None:
                threshold, prec, ctor = operator
                if frames[-1][0] > threshold:
                    _reduce(frames, operands, threshold)
                frames.append((prec, ctor, _BINARY))
                pos += 1
                break
            if kind == ")" and opened:
                _reduce(frames, operands, _PAREN)
                frames.pop()
                opened -= 1
            elif opened:
                raise _unclosed(tokens, pos)
            elif kind != "end":
                raise _Fault(
                    pos,
                    ErrorKind.TRAILING_INPUT,
                    f"unexpected input {token[1]!r} after a complete formula",
                )
            else:
                _reduce(frames, operands, _BOTTOM)
                return operands[0]


def _format(formula, grammar: _Grammar, style: Style) -> str:
    """Render ``formula`` with the fewest parentheses that re-parse to it.

    Work items are strings to emit, or ``(node, floor)`` to expand.
    """
    nodes = grammar.printers[style]
    out: list[str] = []
    stack: list = [(formula, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, floor = item
        entry = nodes.get(type(node))
        if entry is None:
            raise TypeError(f"not a {grammar.noun}: {node!r}")
        shape, prec, text, left, right = entry
        if shape == "leaf":
            out.append(text(node))
            continue
        if prec < floor:
            out.append("(")
            stack.append(")")
        if shape == "binary":
            stack.append((node.right, right))
            stack.append(text)
            stack.append((node.left, left))
        elif shape == "not":
            out.append(text)
            stack.append((node.inner, left))
        else:
            out.append(f"{text}{node.var}. ")
            stack.append((node.body, left))
    return "".join(out)


# --- The propositional language -----------------------------------------------

_PROPOSITIONAL = _Grammar(
    binary={"and": And, "or": Or, "implies": Implies, "iff": Iff},
    negation=Not,
    leaf=Atomic,
    name=Atom,
    leaf_text=lambda node: node.atom.name,
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
    """Render ``formula`` with minimal parentheses in the given style."""
    return _format(formula, _PROPOSITIONAL, style)
