import copy
import pickle
import re
import sys
from functools import partial
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from deduce.categorical import (
    CategoricalForm,
    FormKind,
    PredApp,
    _monadic,
    format_monadic,
    parse_monadic,
)
from deduce.logic import And, Atom, Iff, Implies, Not, Or, prop
from deduce.parser import (
    _PROPOSITIONAL,
    _SPELLINGS,
    ErrorKind,
    ParseError,
    Style,
    _Fault,
    _parse,
    _tokenize,
    format_formula,
    parse,
)
from helpers import formula_strategy, pattern_tokenize, random_monadic, reference_parse

P, Q, R, S = prop("P"), prop("Q"), prop("R"), prop("S")


class TestParse:
    def test_single_conditional(self):
        assert parse("P -> Q") == Implies(P, Q)

    def test_tollendo_ponens_antecedent(self):
        assert parse("(P ó Q) y (¬P)") == And(Or(P, Q), Not(P))

    def test_conditional_is_right_associative(self):
        assert parse("P -> Q -> R") == Implies(P, Implies(Q, R))

    def test_biconditional_is_right_associative(self):
        assert parse("P <-> Q <-> R") == Iff(P, Iff(Q, R))

    def test_conjunction_is_left_associative(self):
        assert parse("P y Q y R") == And(And(P, Q), R)

    def test_disjunction_is_left_associative(self):
        assert parse("P o Q o R") == Or(Or(P, Q), R)

    def test_precedence_not_and_or_implies_iff(self):
        assert parse("¬P y Q ó R ⇒ S ⇔ P") == Iff(
            Implies(Or(And(Not(P), Q), R), S), P
        )

    def test_whitespace_insensitive(self):
        assert parse("  P&Q  ") == parse("P y Q") == And(P, Q)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("¬P", Not(P)),
            ("!P", Not(P)),
            ("~P", Not(P)),
            ("no P", Not(P)),
            ("P y Q", And(P, Q)),
            ("P & Q", And(P, Q)),
            ("P ∧ Q", And(P, Q)),
            ("P ó Q", Or(P, Q)),
            ("P o Q", Or(P, Q)),
            ("P | Q", Or(P, Q)),
            ("P ∨ Q", Or(P, Q)),
            ("P ⇒ Q", Implies(P, Q)),
            ("P -> Q", Implies(P, Q)),
            ("P => Q", Implies(P, Q)),
            ("P ⇔ Q", Iff(P, Q)),
            ("P <-> Q", Iff(P, Q)),
            ("P <=> Q", Iff(P, Q)),
        ],
    )
    def test_operator_aliases(self, text, expected):
        assert parse(text) == expected

    def test_a_repeated_name_is_one_shared_leaf(self):
        formula = parse("P y P")
        assert formula.left is formula.right

    def test_a_predicate_keeps_one_leaf_per_variable(self):
        # "y" is a connective, so the second variable is "z".
        formula = parse_monadic("P(x) & P(z) & P(x)")
        (x, z), again = (formula.left.left, formula.left.right), formula.right
        assert x is again and x != z and (x.var, z.var) == ("x", "z")

    def test_shared_leaves_survive_pickle_and_deepcopy(self):
        formula = parse("(P -> Q) y (Q ó ¬P) y (P <-> Q)")
        digest = hash(formula)
        for copied in (pickle.loads(pickle.dumps(formula)), copy.deepcopy(formula)):
            assert copied == formula and hash(copied) == digest
            conditional, disjunction = copied.left.left, copied.left.right
            assert conditional.left is copied.right.left is disjunction.right.inner
            assert conditional.right is disjunction.left is copied.right.right

    def test_multi_character_atoms(self):
        assert parse("Llueve ⇒ PastoMojado") == Implies(
            prop("Llueve"), prop("PastoMojado")
        )


class TestParseErrors:
    def test_operator_where_operand_expected(self):
        with pytest.raises(ParseError) as excinfo:
            parse("P y ó Q")
        error = excinfo.value
        assert error.kind is ErrorKind.UNKNOWN_TOKEN
        assert error.span == (4, 5)

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("P y", ErrorKind.UNEXPECTED_END),
            ("", ErrorKind.UNEXPECTED_END),
            ("¬", ErrorKind.UNEXPECTED_END),
            ("(P y Q", ErrorKind.UNBALANCED_PAREN),
            ("(", ErrorKind.UNEXPECTED_END),
            (")P", ErrorKind.UNBALANCED_PAREN),
            ("()", ErrorKind.UNBALANCED_PAREN),
            ("(P Q)", ErrorKind.UNBALANCED_PAREN),
            ("P Q", ErrorKind.TRAILING_INPUT),
            ("P)", ErrorKind.TRAILING_INPUT),
            ("P @ Q", ErrorKind.UNKNOWN_TOKEN),
            ("P y q", ErrorKind.UNKNOWN_TOKEN),
            ("p -> Q", ErrorKind.UNKNOWN_TOKEN),
            ("P ⇒ ⇒ Q", ErrorKind.UNKNOWN_TOKEN),
            ("1 y P", ErrorKind.UNKNOWN_TOKEN),
            ("P < Q", ErrorKind.UNKNOWN_TOKEN),
        ],
    )
    def test_error_kinds(self, text, kind):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert excinfo.value.kind is kind

    @pytest.mark.parametrize(
        "text",
        ["P y ó Q", "(P y Q", ")P", "P Q", "P @ Q", "", "¬", "P y", "(P Q)", "()"],
    )
    def test_spans_are_in_bounds(self, text):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        span = excinfo.value.span
        assert 0 <= span.start <= span.end <= len(text)

    @pytest.mark.parametrize(
        "text", ["P y ó Q", "(P y Q", ")P", "P Q", "P @ Q", "(P Q)"]
    )
    def test_prefix_before_span_fails_differently(self, text):
        # Reparsing the prefix must not reproduce the same kind earlier:
        # the reported span is the leftmost witness of that fault.
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        original = excinfo.value
        try:
            parse(text[: original.span.start])
        except ParseError as prefix_error:
            if prefix_error.kind is original.kind:
                assert prefix_error.span.start >= original.span.start


class TestFormat:
    def test_unicode_conditional(self):
        assert format_formula(Implies(P, Q), Style.UNICODE) == "P ⇒ Q"

    def test_spanish_with_minimal_parens(self):
        assert format_formula(And(Or(P, Q), Not(P)), Style.SPANISH) == "(P ó Q) y ¬P"

    def test_ascii_double_negation(self):
        assert format_formula(Not(Not(P)), Style.ASCII) == "!!P"

    def test_right_nested_conditional_needs_no_parens(self):
        assert format_formula(Implies(P, Implies(Q, R))) == "P -> Q -> R"

    def test_left_nested_conditional_keeps_parens(self):
        assert format_formula(Implies(Implies(P, Q), R)) == "(P -> Q) -> R"

    def test_right_nested_conjunction_keeps_parens(self):
        assert format_formula(And(P, And(Q, R))) == "P & (Q & R)"

    def test_default_style_is_ascii(self):
        assert format_formula(Iff(P, Q)) == "P <-> Q"


class TestRoundTrip:
    @given(formula_strategy())
    @settings(max_examples=300)
    def test_parse_inverts_format(self, formula):
        for style in Style:
            assert parse(format_formula(formula, style)) == formula

    @pytest.mark.parametrize(
        "text",
        [
            "P y ¬Q ó R",
            "no P ó no Q",
            "((P ⇒ Q) y P) ⇒ Q",
            "P <-> (Q -> R) <-> S",
            "¬(P ó Q) y ¬¬R",
        ],
    )
    def test_normalization_is_idempotent(self, text):
        once = format_formula(parse(text))
        assert format_formula(parse(once)) == once

    @given(formula_strategy())
    @settings(max_examples=100)
    def test_normalization_is_idempotent_random(self, formula):
        for style in Style:
            once = format_formula(formula, style)
            assert format_formula(parse(once), style) == once


# (input, kind, span, message) as the parser reported them before its
# recursive descent was replaced by the shared precedence parser: at least
# one input for every place the parser raises.
GOLDEN_ERRORS = [
    # unknown word
    ('P y q', ErrorKind.UNKNOWN_TOKEN, (4, 5), "unknown word 'q'"),
    ('p -> Q', ErrorKind.UNKNOWN_TOKEN, (0, 1), "unknown word 'p'"),
    ('1 y P', ErrorKind.UNKNOWN_TOKEN, (0, 1), "unknown word '1'"),
    ('forall x. P', ErrorKind.UNKNOWN_TOKEN, (0, 6), "unknown word 'forall'"),
    ('P y óx', ErrorKind.UNKNOWN_TOKEN, (4, 6), "unknown word 'óx'"),
    ('Ñ y P', ErrorKind.UNKNOWN_TOKEN, (0, 1), "unknown word 'Ñ'"),
    # unknown character, including '.'
    ('P @ Q', ErrorKind.UNKNOWN_TOKEN, (2, 3), "unknown character '@'"),
    ('P < Q', ErrorKind.UNKNOWN_TOKEN, (2, 3), "unknown character '<'"),
    ('P . Q', ErrorKind.UNKNOWN_TOKEN, (2, 3), "unknown character '.'"),
    ('P <- Q', ErrorKind.UNKNOWN_TOKEN, (2, 3), "unknown character '<'"),
    ('P< ->Q', ErrorKind.UNKNOWN_TOKEN, (1, 2), "unknown character '<'"),
    ('P y ?', ErrorKind.UNKNOWN_TOKEN, (4, 5), "unknown character '?'"),
    ('P ⇐ Q', ErrorKind.UNKNOWN_TOKEN, (2, 3), "unknown character '⇐'"),
    # trailing input
    ('P Q', ErrorKind.TRAILING_INPUT, (2, 3), "unexpected input 'Q' after a complete formula"),
    ('P)', ErrorKind.TRAILING_INPUT, (1, 2), "unexpected input ')' after a complete formula"),
    ('P ¬Q', ErrorKind.TRAILING_INPUT, (2, 3), "unexpected input '¬' after a complete formula"),
    ('(P) (Q)', ErrorKind.TRAILING_INPUT, (4, 5), "unexpected input '(' after a complete formula"),
    # expected a formula at the end
    ('', ErrorKind.UNEXPECTED_END, (0, 0), 'expected a formula'),
    ('P y', ErrorKind.UNEXPECTED_END, (3, 3), 'expected a formula'),
    ('¬', ErrorKind.UNEXPECTED_END, (1, 1), 'expected a formula'),
    ('(', ErrorKind.UNEXPECTED_END, (1, 1), 'expected a formula'),
    ('P -> ', ErrorKind.UNEXPECTED_END, (5, 5), 'expected a formula'),
    # missing ')' at the end
    ('(P y Q', ErrorKind.UNBALANCED_PAREN, (6, 6), "missing ')'"),
    ('((P)', ErrorKind.UNBALANCED_PAREN, (4, 4), "missing ')'"),
    ('(P -> (Q', ErrorKind.UNBALANCED_PAREN, (8, 8), "missing ')'"),
    # expected ')'
    ('(P Q)', ErrorKind.UNBALANCED_PAREN, (3, 4), "expected ')', found 'Q'"),
    ('(P ¬Q)', ErrorKind.UNBALANCED_PAREN, (3, 4), "expected ')', found '¬'"),
    ('((P) Q)', ErrorKind.UNBALANCED_PAREN, (5, 6), "expected ')', found 'Q'"),
    # unmatched ')'
    (')P', ErrorKind.UNBALANCED_PAREN, (0, 1), "unmatched ')'"),
    ('()', ErrorKind.UNBALANCED_PAREN, (1, 2), "unmatched ')'"),
    ('P & )', ErrorKind.UNBALANCED_PAREN, (4, 5), "unmatched ')'"),
    # expected a formula
    ('P y ó Q', ErrorKind.UNKNOWN_TOKEN, (4, 5), "expected a formula, found 'ó'"),
    ('P ⇒ ⇒ Q', ErrorKind.UNKNOWN_TOKEN, (4, 5), "expected a formula, found '⇒'"),
    ('& P', ErrorKind.UNKNOWN_TOKEN, (0, 1), "expected a formula, found '&'"),
    ('¬ <-> P', ErrorKind.UNKNOWN_TOKEN, (2, 5), "expected a formula, found '<->'"),
    # a tokenizing error wins over a later parse error
    ('P Q q', ErrorKind.UNKNOWN_TOKEN, (4, 5), "unknown word 'q'"),
    ('(P q', ErrorKind.UNKNOWN_TOKEN, (3, 4), "unknown word 'q'"),
    (') @', ErrorKind.UNKNOWN_TOKEN, (2, 3), "unknown character '@'"),
    ('P & & .', ErrorKind.UNKNOWN_TOKEN, (6, 7), "unknown character '.'"),
]


@pytest.mark.parametrize("text,kind,span,message", GOLDEN_ERRORS)
def test_golden_error_corpus(text, kind, span, message):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    error = excinfo.value
    assert (error.kind, error.span, error.message) == (kind, span, message)
    assert str(error) == f"{message} at {span[0]}..{span[1]}"


DEPTH = 20_000

# Input, then its printing in the ASCII, Unicode and Spanish styles.
DEEP = {
    "negations": ("¬" * DEPTH + "P", ("!" * DEPTH + "P", "¬" * DEPTH + "P", "¬" * DEPTH + "P")),
    "parentheses": ("(" * DEPTH + "P" + ")" * DEPTH, ("P", "P", "P")),
    "conjunctions": (
        " & ".join(["P"] * DEPTH),
        tuple(op.join(["P"] * DEPTH) for op in (" & ", " ∧ ", " y ")),
    ),
    "conditionals": (
        " -> ".join(["P"] * DEPTH),
        tuple(op.join(["P"] * DEPTH) for op in (" -> ", " ⇒ ", " ⇒ ")),
    ),
}


@pytest.mark.parametrize("name", DEEP)
def test_depth_is_bounded_only_by_memory(name):
    # At the default recursion limit: no nesting level costs a Python frame.
    text, printed = DEEP[name]
    formula = parse(text)
    styles = (Style.ASCII, Style.UNICODE, Style.SPANISH)
    for style, expected in zip(styles, printed):
        assert format_formula(formula, style) == expected


def test_deep_chains_keep_their_associativity():
    node = parse(DEEP["conjunctions"][0])
    for _ in range(DEPTH - 1):
        assert isinstance(node, And) and node.right == P
        node = node.left
    assert node == P
    node = parse(DEEP["conditionals"][0])
    for _ in range(DEPTH - 1):
        assert isinstance(node, Implies) and node.left == P
        node = node.right
    assert node == P


# --- The compiled tokenizer against the character-at-a-time reference -------

# Every spelling, names, lowercase words and quantifier keywords, words that
# start with a digit or hold '_' or non-ASCII letters, Unicode spaces and
# stray characters; pieces join without separators, so words run together.
_PIECES = (
    *(spelling for spellings in _SPELLINGS.values() for spelling in spellings),
    "P", "Q", "Llueve", "A1", "x", "z", "w", "forall", "exists", "1P", "2",
    "_", "P_1", "Ñ", "é", " ", "\u00a0", "\u2003", "\t", "\x1c", "?", "#",
    "<", "-", "=", ".", "P(x)", "forall x. ", "exists z.",
)
_GRAMMARS = {"propositional": _PROPOSITIONAL, "monadic": _monadic()}


def _outcome(parse_in, text, grammar):
    try:
        return parse_in(text, grammar)
    except ParseError as error:
        return (error.kind, error.span, error.message, str(error))


def _spliced(formula_text, pieces, at):
    # Well-formed text with stray pieces spliced in, so that both the
    # success path and errors deep inside a formula are drawn.
    cut = at % (len(formula_text) + 1)
    return formula_text[:cut] + "".join(pieces) + formula_text[cut:]


_TEXTS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=24).map("".join),
    st.builds(
        _spliced,
        st.builds(format_formula, formula_strategy(), st.sampled_from(Style)),
        st.lists(st.sampled_from(_PIECES), max_size=2),
        st.integers(min_value=0),
    ),
    st.builds(
        _spliced,
        st.builds(format_monadic, st.builds(random_monadic, st.randoms(use_true_random=False))),
        st.lists(st.sampled_from(_PIECES), max_size=2),
        st.integers(min_value=0),
    ),
)


@pytest.mark.parametrize("grammar", _GRAMMARS)
@given(text=_TEXTS)
@settings(max_examples=400)
def test_parse_agrees_with_the_reference(grammar, text):
    grammar = _GRAMMARS[grammar]
    assert _outcome(_parse, text, grammar) == _outcome(reference_parse, text, grammar)


@pytest.mark.parametrize("name", ["negations", "parentheses", "conjunctions"])
def test_deep_input_agrees_with_the_reference(name):
    text = DEEP[name][0]
    assert _parse(text, _PROPOSITIONAL) == reference_parse(text, _PROPOSITIONAL)


def test_character_classes_match_the_str_predicates():
    # The token pattern reads a word as a run of ``[^\W_]`` and skips ``\s``;
    # the reference reads them with ``str.isalnum`` and ``str.isspace``.
    # They agree on every code point, on the Python running the test.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"[^\W_]", everything) == [ch for ch in everything if ch.isalnum()]
    assert re.findall(r"\s", everything) == [ch for ch in everything if ch.isspace()]
    # ``str.split()``, in the split tokenizer, removes exactly what ``\s`` matches.
    assert "".join(everything.split()) == re.sub(r"\s", "", everything)


# --- The split tokenizer against the token pattern ---------------------------

# Every character of a symbol, and one or two of each other kind: words
# ASCII and not, the underscore, an unknown character, ASCII and Unicode
# spaces.  Every string of up to three of them covers each symbol glued
# to, split from or cut off by its neighbours.
_ALPHABET = sorted(
    {ch for spellings in _SPELLINGS.values() for s in spellings if not s.isalnum() for ch in s}
    | set("<-=>._? \t\u3000PxyóÑ1")
)


def _tokens_or_fault(tokenize, text, grammar):
    try:
        return tokenize(text, grammar)
    except _Fault as fault:
        return fault.args


@pytest.mark.parametrize("grammar", _GRAMMARS)
def test_the_split_tokenizer_agrees_with_the_pattern_on_every_short_text(grammar):
    grammar = _GRAMMARS[grammar]
    for size in range(4):
        for text in map("".join, product(_ALPHABET, repeat=size)):
            split = _tokens_or_fault(_tokenize, text, grammar)
            assert split == _tokens_or_fault(pattern_tokenize, text, grammar), text


# Uppercase and lowercase letters, digits, '_', non-ASCII letters, white
# space and a symbol: the characters that make a word a name or not.
_NAME_CHARACTERS = "AZazP09_Ñéß\n -"


@settings(max_examples=500)
@given(st.text(_NAME_CHARACTERS, max_size=4) | st.text(max_size=3))
def test_atoms_predicates_and_terms_accept_exactly_the_words_read_as_names(word):
    try:
        read = _tokenize(word, _PROPOSITIONAL) == (["name", "end"], [word, ""])
    except _Fault:
        read = False
    constructors = {
        "Atom": Atom,
        "PredApp": partial(PredApp, var="x"),
        "CategoricalForm": partial(CategoricalForm, FormKind.UNIVERSAL_AFFIRMATIVE, "S"),
    }
    for name, make in constructors.items():
        try:
            make(word)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted is read, name


@pytest.mark.parametrize(
    ("grammar", "valid"),
    [("propositional", "¬(P -> Q) <-> R y S"), ("monadic", "forall x. ~(P(x) -> Q(x))")],
)
@pytest.mark.parametrize("invalid", ["P ?", "P y", "(P"])
def test_the_token_pattern_is_compiled_only_when_a_parse_fails(grammar, valid, invalid):
    grammar = copy.copy(_GRAMMARS[grammar])
    grammar.__dict__.pop("pattern", None)
    _parse(valid, grammar)
    assert "pattern" not in grammar.__dict__
    with pytest.raises(ParseError):
        _parse(invalid, grammar)
    assert "pattern" in grammar.__dict__
