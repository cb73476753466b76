import itertools
import re
from functools import reduce
from random import Random

import pytest
from hypothesis import given, settings

from deduce import logic
from deduce._limits import TABLE_ATOMS, refusal
from deduce.logic import (
    MAX_ATOMS,
    MAX_TABLE_ATOMS,
    And,
    Atom,
    Classification,
    Iff,
    Implies,
    MissingAtom,
    Not,
    Or,
    TooManyAtoms,
    atoms,
    classify,
    equivalent,
    evaluate,
    falsifying_valuation,
    format_truth_value,
    parse_truth_value,
    prop,
    substitute,
    truth_table,
)
from deduce.parser import format_formula, parse
from helpers import (
    canonical_valuations,
    formula_strategy,
    random_formula,
    reference_evaluate,
)

P, Q, R = prop("P"), prop("Q"), prop("R")


class TestAtom:
    def test_equality_is_by_name(self):
        assert Atom("P") == Atom("P")
        assert Atom("P") != Atom("Q")

    @pytest.mark.parametrize("name", ["p", "1A", "", "P Q", "ó", "y"])
    def test_rejects_bad_names(self, name):
        with pytest.raises(ValueError):
            Atom(name)

    @pytest.mark.parametrize("name", ["P", "Llueve", "PastoMojado", "P1", "X2y"])
    def test_accepts_identifiers(self, name):
        assert Atom(name).name == name


class TestEvaluate:
    def test_negation_of_true(self):
        assert evaluate(Not(P), {"P": True}) is False

    def test_conditional_true_antecedent_false_consequent(self):
        assert evaluate(Implies(P, Q), {"P": True, "Q": False}) is False

    def test_biconditional_reflexive(self):
        assert evaluate(Iff(P, P), {"P": False}) is True

    def test_missing_atom(self):
        with pytest.raises(MissingAtom) as excinfo:
            evaluate(And(P, Q), {"P": True})
        assert excinfo.value.name == "Q"

    def test_missing_atom_whatever_the_other_operand_reads(self):
        # ``P | Q`` is true once P is, but Q is still an atom of the formula.
        with pytest.raises(MissingAtom) as excinfo:
            evaluate(Or(P, Q), {"P": True})
        assert excinfo.value.name == "Q"

    @given(formula_strategy())
    def test_agrees_with_the_recursive_walk(self, formula):
        for valuation in canonical_valuations(("P", "Q", "R", "S", "T")):
            assert evaluate(formula, valuation) is reference_evaluate(formula, valuation)

    # The five connective tables, row by row.
    @pytest.mark.parametrize(
        "build,rows",
        [
            (lambda: Not(P), {(True,): False, (False,): True}),
            (
                lambda: Or(P, Q),
                {
                    (True, True): True,
                    (True, False): True,
                    (False, True): True,
                    (False, False): False,
                },
            ),
            (
                lambda: And(P, Q),
                {
                    (True, True): True,
                    (True, False): False,
                    (False, True): False,
                    (False, False): False,
                },
            ),
            (
                lambda: Implies(P, Q),
                {
                    (True, True): True,
                    (True, False): False,
                    (False, True): True,
                    (False, False): True,
                },
            ),
            (
                lambda: Iff(P, Q),
                {
                    (True, True): True,
                    (True, False): False,
                    (False, True): False,
                    (False, False): True,
                },
            ),
        ],
    )
    def test_connective_tables(self, build, rows):
        formula = build()
        names = [atom.name for atom in atoms(formula)]
        for inputs, expected in rows.items():
            assert evaluate(formula, dict(zip(names, inputs))) is expected


class TestAtoms:
    def test_simple_pair(self):
        assert atoms(Or(P, Q)) == (Atom("P"), Atom("Q"))

    def test_alphabetical_and_deduplicated(self):
        assert atoms(Implies(And(Q, P), Q)) == (Atom("P"), Atom("Q"))

    def test_double_negation(self):
        assert atoms(Not(Not(prop("R")))) == (Atom("R"),)


class TestTruthTable:
    def test_conjunction_rows_in_canonical_order(self):
        table = truth_table(And(P, Q))
        assert [row.valuation for row in table.rows] == [
            {"P": True, "Q": True},
            {"P": True, "Q": False},
            {"P": False, "Q": True},
            {"P": False, "Q": False},
        ]
        assert [row.value for row in table.rows] == [True, False, False, False]

    def test_biconditional_values(self):
        table = truth_table(Iff(P, Q))
        assert [row.value for row in table.rows] == [True, False, False, True]

    def test_excluded_middle_all_true(self):
        table = truth_table(Or(P, Not(P)))
        assert [row.value for row in table.rows] == [True, True]

    def test_widened_atom_set(self):
        table = truth_table(P, over=(Atom("P"), Atom("Q")))
        assert len(table.rows) == 4
        assert [row.value for row in table.rows] == [True, True, False, False]

    def test_repeated_atom_in_the_columns(self):
        with pytest.raises(ValueError, match="'P'"):
            truth_table(P, over=(Atom("P"), Atom("Q"), Atom("P")))

    @pytest.mark.parametrize("entry", ["P", None, prop("Q"), "Q"])
    def test_columns_must_be_atoms(self, entry):
        with pytest.raises(TypeError, match=re.escape(f"over must hold atoms, got {entry!r}")):
            truth_table(P, over=[Atom("P"), entry])

    # ``over`` is checked for a non-atom, then a repeat, then too many
    # columns, then an atom of the formula it leaves out; each case breaks
    # two of these, and the first is the one refused.
    @pytest.mark.parametrize(
        "over,error,message",
        [
            (["P", "P", 7], TypeError, "over must hold atoms, got 7"),
            (["P", "Q", *(f"A{i}" for i in range(14)), "P"], ValueError, "over repeats atom 'P'"),
            (
                ["P", *(f"A{i}" for i in range(16))],
                TooManyAtoms,
                refusal(TABLE_ATOMS, "atom count", 17),
            ),
        ],
        ids=["non-atom-and-repeat", "repeat-and-too-many", "too-many-and-missing"],
    )
    def test_of_two_faults_in_the_columns_the_first_is_refused(self, over, error, message):
        columns = [Atom(entry) if isinstance(entry, str) else entry for entry in over]
        with pytest.raises(error) as excinfo:
            truth_table(And(P, Q), over=columns)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_too_many_atoms(self):
        wide = prop("A1")
        for i in range(2, MAX_ATOMS + 2):
            wide = Or(wide, prop(f"A{i}"))
        with pytest.raises(TooManyAtoms):
            truth_table(wide)

    @given(formula_strategy())
    @settings(max_examples=150)
    def test_row_count_and_uniqueness(self, formula):
        table = truth_table(formula)
        assert len(table.rows) == 2 ** len(table.atoms)
        distinct = {tuple(sorted(row.valuation.items())) for row in table.rows}
        assert len(distinct) == len(table.rows)

    @given(formula_strategy())
    @settings(max_examples=150)
    def test_eval_agrees_with_table_lookup(self, formula):
        for row in truth_table(formula).rows:
            assert evaluate(formula, row.valuation) is row.value

    @given(formula_strategy())
    @settings(max_examples=50)
    def test_reproducible(self, formula):
        assert truth_table(formula) == truth_table(formula)


class TestClassify:
    def test_excluded_middle_is_tautology(self):
        assert classify(Or(P, Not(P))) is Classification.TAUTOLOGY

    def test_conjunction_with_negation_is_contradiction(self):
        assert classify(And(P, Not(P))) is Classification.CONTRADICTION

    def test_conditional_is_contingent(self):
        assert classify(Implies(P, Q)) is Classification.CONTINGENT

    def test_falsifying_valuation_first_row(self):
        assert falsifying_valuation(Implies(P, Q)) == {"P": True, "Q": False}
        assert falsifying_valuation(Or(P, Not(P))) is None


class TestAtTheAtomLimit:
    NAMES = [f"A{i}" for i in range(1, MAX_ATOMS + 1)]

    def test_chain_tautology(self):
        links = [Implies(prop(a), prop(b)) for a, b in zip(self.NAMES, self.NAMES[1:])]
        chain = Implies(reduce(And, links), Implies(prop("A1"), prop(self.NAMES[-1])))
        assert len(atoms(chain)) == MAX_ATOMS
        assert classify(chain) is Classification.TAUTOLOGY

    def test_disjunction_false_only_at_the_last_row(self):
        wide = reduce(Or, [prop(name) for name in self.NAMES])
        assert falsifying_valuation(wide) == dict.fromkeys(self.NAMES, False)


class TestAtTheTableLimit:
    """A table has a row per valuation: ``truth_table`` answers at
    ``MAX_TABLE_ATOMS`` columns, and refuses one more, whether the formula
    or ``over`` brings it, before any block is scanned."""

    @staticmethod
    def cases(count):
        names = [f"A{i}" for i in range(count)]
        return [
            (reduce(Or, map(prop, names)), None),
            (reduce(Or, map(prop, names[:8])), [Atom(name) for name in names]),
        ]

    @pytest.mark.parametrize("case", [0, 1], ids=["by-formula", "by-over"])
    def test_at_the_limit(self, case):
        formula, over = self.cases(MAX_TABLE_ATOMS)[case]
        table = truth_table(formula, over)
        assert len(table.atoms) == MAX_TABLE_ATOMS == 16
        assert len(table.rows) == 1 << MAX_TABLE_ATOMS == 65_536
        # A disjunction is false only where each of its atoms is.
        falses = 1 << (MAX_TABLE_ATOMS - len(atoms(formula)))
        assert [row.value for row in table.rows].count(False) == falses

    @pytest.mark.parametrize("case", [0, 1], ids=["by-formula", "by-over"])
    def test_one_past_it_is_refused_before_any_block(self, monkeypatch, case):
        def unreachable(*args):
            raise AssertionError("a block was scanned")

        formula, over = self.cases(MAX_TABLE_ATOMS + 1)[case]
        monkeypatch.setattr(logic, "_run", unreachable)
        with pytest.raises(TooManyAtoms) as excinfo:
            truth_table(formula, over)
        assert (excinfo.value.count, excinfo.value.limit) == (17, 16)
        assert str(excinfo.value) == refusal(TABLE_ATOMS, "atom count", 17)


class TestEquivalent:
    def test_conditional_equals_disjunction_form(self):
        assert equivalent(Implies(P, Q), Or(Not(P), Q))

    def test_reflexive(self):
        assert equivalent(P, P)

    def test_negation_not_equivalent(self):
        assert not equivalent(P, Not(P))

    @given(formula_strategy(max_leaves=8), formula_strategy(max_leaves=8))
    @settings(max_examples=150)
    def test_lema_same_table_over_joint_atoms(self, f, g):
        joint = tuple(sorted(set(atoms(f)) | set(atoms(g))))
        same_tables = all(
            left.value == right.value
            for left, right in zip(truth_table(f, joint).rows, truth_table(g, joint).rows)
        )
        assert equivalent(f, g) == same_tables

    @given(formula_strategy(max_leaves=6))
    @settings(max_examples=100)
    def test_de_morgan_and_double_negation(self, f):
        g = random_formula(Random(7), ("P", "Q"), 2)
        assert equivalent(Not(Or(f, g)), And(Not(f), Not(g)))
        assert equivalent(Not(Not(f)), f)


class TestSubstitute:
    def test_direct_replacement(self):
        image = And(prop("A"), prop("B"))
        assert substitute(Implies(P, Q), {"P": image}) == Implies(image, Q)

    def test_empty_mapping_is_identity(self):
        assert substitute(P, {}) == P

    def test_simultaneous_at_all_occurrences(self):
        image = Not(R)
        assert substitute(Or(P, P), {"P": image}) == Or(image, image)

    def test_images_are_not_rewritten(self):
        # P maps to Q while Q maps to R; the inserted Q must survive.
        result = substitute(And(P, Q), {"P": Q, "Q": R})
        assert result == And(Q, R)

    @pytest.mark.parametrize("image", [3, "Q", Atom("Q"), None], ids=repr)
    def test_an_image_that_is_not_a_formula_is_refused(self, image):
        message = f"the image of atom 'P' must be a formula, got {type(image).__name__}"
        with pytest.raises(TypeError, match=re.escape(message)):
            substitute(And(P, Q), {"P": image})

    @given(formula_strategy(max_leaves=8), formula_strategy(max_leaves=4))
    @settings(max_examples=100)
    def test_substitution_lemma(self, f, image):
        # The value of f[P := image] under v is that of f under v with P
        # given image's value.
        result = substitute(f, {"P": image, "Q": Not(image)})
        names = {atom.name for atom in atoms(f) + atoms(image)} | {"P", "Q"}
        for bits in itertools.product((True, False), repeat=len(names)):
            v = dict(zip(sorted(names), bits))
            value = evaluate(image, v)
            assert evaluate(result, v) == evaluate(f, {**v, "P": value, "Q": not value})

    @pytest.mark.parametrize(
        "text,image,expected",
        [
            ("¬" * 20_000 + "P", And(Q, R), "!" * 20_000 + "(Q & R)"),
            (" & ".join(["P"] * 20_000), Or(Q, R), " & ".join(["(Q | R)"] * 20_000)),
            (
                " -> ".join(["P"] * 20_000),
                Implies(Q, R),
                " -> ".join(["(Q -> R)"] * 19_999 + ["Q -> R"]),
            ),
        ],
        ids=["negations", "conjunctions", "conditionals"],
    )
    def test_depth_is_bounded_only_by_memory(self, text, image, expected):
        # At the default recursion limit.
        assert format_formula(substitute(parse(text), {"P": image})) == expected


class TestTruthValueText:
    def test_format(self):
        assert format_truth_value(True) == "V"
        assert format_truth_value(False) == "F"

    @pytest.mark.parametrize(
        "text,expected",
        [("V", True), ("1", True), ("v", True), ("F", False), ("0", False), ("f", False)],
    )
    def test_parse_dual_notation(self, text, expected):
        assert parse_truth_value(text) is expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_truth_value("2")


class TestOperatorSugar:
    def test_builders(self):
        assert ~P == Not(P)
        assert (P & Q) == And(P, Q)
        assert (P | Q) == Or(P, Q)
        assert (P >> Q) == Implies(P, Q)
        assert P.iff(Q) == Iff(P, Q)


def test_valuation_count_brute_force():
    # 2^n distinct valuations for n up to 5, cross-checked by explicit product.
    for n in range(1, 6):
        formula = prop("A1")
        for i in range(2, n + 1):
            formula = Or(formula, prop(f"A{i}"))
        table = truth_table(formula)
        expected = list(itertools.product((True, False), repeat=n))
        got = [tuple(row.valuation[f"A{i}"] for i in range(1, n + 1)) for row in table.rows]
        assert got == expected
