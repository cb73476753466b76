"""The blocked truth-vector engine against one ``evaluate`` call per row.

Every check runs at the engine's own block size, at blocks of 128 rows and
at blocks of two and four rows, so that formulas of a few atoms already
span many blocks, the constant (high) columns are exercised as well as the
periodic ones, and the periodic columns are cut from the widest block's
masks at a width between the extremes.
Table rows are checked against the row-at-a-time builder, over columns
whose names sort differently as strings and as numbers (``P10`` before
``P2``), in that order, in numeric order and in random ones.
"""

import copy
import pickle
from functools import reduce
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from deduce import logic
from deduce.logic import (
    MAX_TABLE_ATOMS,
    And,
    Atom,
    Classification,
    MissingAtom,
    Not,
    Or,
    TableRow,
    classify,
    equivalent,
    falsifying_valuation,
    prop,
    truth_table,
)
from deduce.rules import entail
from helpers import (
    atom_names,
    formula_strategy,
    reference_classify,
    reference_equivalent,
    reference_falsifying,
    reference_table,
    reference_truth_table,
    scan_entails,
)

BLOCK_BITS = pytest.mark.parametrize("bits", [logic._BLOCK_BITS, 7, 2, 1])


def blocks_of(bits: int):
    return mock.patch.object(logic, "_BLOCK_BITS", bits)


@pytest.mark.parametrize("bits", range(logic._BLOCK_BITS + 1))
def test_masks_cut_to_a_block_are_its_periodic_columns(bits):
    # The division formula the table replaced: runs of 1 << shift ones
    # repeated every 2 << shift bits across the block.
    full = (1 << (1 << bits)) - 1
    for shift in range(bits):
        period = (1 << (2 << shift)) - 1
        ones = (1 << (1 << shift)) - 1
        assert logic._MASKS[shift] & full == full // period * ones
        assert logic._COLUMNS[bits][shift] == logic._MASKS[shift] & full
    assert len(logic._COLUMNS[bits]) == bits


class TestAgainstRowByRow:
    @BLOCK_BITS
    @given(formula_strategy())
    @settings(max_examples=100)
    def test_classify(self, bits, formula):
        with blocks_of(bits):
            assert classify(formula) is reference_classify(formula)

    @BLOCK_BITS
    @given(formula_strategy())
    @settings(max_examples=100)
    def test_falsifying_valuation_is_the_first_false_row(self, bits, formula):
        with blocks_of(bits):
            got = falsifying_valuation(formula)
        want = reference_falsifying(formula)
        assert got == want
        if want is not None:
            assert list(got) == list(want)

    @BLOCK_BITS
    @given(formula_strategy())
    @settings(max_examples=100)
    def test_one_scan_gives_the_classification_and_the_first_false_row(
        self, bits, formula
    ):
        with blocks_of(bits):
            classification, counter = logic._decide(formula)
        assert classification is reference_classify(formula)
        want = reference_falsifying(formula)
        assert counter == want
        if want is not None:
            assert list(counter) == list(want)

    @BLOCK_BITS
    @given(formula_strategy(max_leaves=8), formula_strategy(max_leaves=8))
    @settings(max_examples=100)
    def test_equivalent(self, bits, f, g):
        with blocks_of(bits):
            assert equivalent(f, g) == reference_equivalent(f, g)

    @BLOCK_BITS
    @given(
        st.lists(formula_strategy(max_leaves=6), max_size=3),
        formula_strategy(max_leaves=6),
    )
    @settings(max_examples=100)
    def test_entail(self, bits, premises, conclusion):
        with blocks_of(bits):
            verdict = entail(premises, conclusion)
        assert (verdict.valid, verdict.countervaluation) == scan_entails(
            premises, conclusion
        )

    @BLOCK_BITS
    @given(
        formula_strategy(),
        st.lists(st.sampled_from(("A", "U", "Z9")), unique=True),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_table_over_extra_atoms_in_any_order(self, bits, formula, extra, rng):
        names = atom_names(formula) + extra
        rng.shuffle(names)
        with blocks_of(bits):
            table = truth_table(formula, over=[Atom(name) for name in names])
        assert table.atoms == tuple(Atom(name) for name in names)
        rows = [(row.valuation, row.value) for row in table.rows]
        assert rows == reference_table(formula, names)
        assert all(list(row.valuation) == names for row in table.rows)


@BLOCK_BITS
@given(formula_strategy())
@settings(max_examples=100)
def test_own_columns_and_the_same_columns_given_scan_alike(bits, formula):
    # The formula's own columns and an ``over`` naming them are set up apart.
    over = tuple(Atom(name) for name in atom_names(formula))
    with blocks_of(bits):
        columns, full, vectors = logic._scan(formula)
        given_columns, given_full, given_vectors = logic._scan(formula, over)
        assert columns == given_columns == over
        assert full == given_full == (1 << (1 << min(len(over), bits))) - 1
        assert list(vectors) == list(given_vectors)


def clause_false_at(row: int, names: list[str]):
    """A disjunction of literals false exactly at canonical ``row``."""
    last = len(names) - 1
    return reduce(
        Or,
        [
            prop(name) if row >> (last - i) & 1 else Not(prop(name))
            for i, name in enumerate(names)
        ],
    )


# Blocks of 2^(n-1) rows put the second half of the table, where the first
# false row lies, in the second block; 12 is the engine's own block size.
@pytest.mark.parametrize(
    "n,bits", [(8, 7), (11, 10), (11, 12), (12, 11), (12, 12), (13, 12)]
)
def test_first_false_row_in_the_second_block(n, bits):
    names = [f"A{i:02}" for i in range(n)]
    first, later = (1 << (n - 1)) + 5, (1 << n) - 3
    formula = And(clause_false_at(first, names), clause_false_at(later, names))
    swapped = And(clause_false_at(later, names), clause_false_at(first, names))
    with blocks_of(bits):
        assert classify(formula) is Classification.CONTINGENT
        assert classify(Not(formula)) is Classification.CONTINGENT
        assert classify(Or(formula, Not(formula))) is Classification.TAUTOLOGY
        assert falsifying_valuation(formula) == reference_falsifying(formula)
        assert equivalent(formula, swapped)
        assert not equivalent(formula, clause_false_at(first, names))
        verdict = entail([clause_false_at(first, names)], clause_false_at(later, names))
        table = truth_table(formula)
    assert (verdict.valid, verdict.countervaluation) == scan_entails(
        [clause_false_at(first, names)], clause_false_at(later, names)
    )
    values = [row.value for row in table.rows]
    assert values == [value for _, value in reference_table(formula, names)]
    assert [i for i, value in enumerate(values) if not value] == [first, later]
    # A00 is the slowest column: true throughout the first half of the rows,
    # which is the first block wherever n > bits.  ``classify`` reads on
    # past the first false row until it meets a true one.
    head, tail = prop(names[0]), reduce(Or, map(prop, names[1:]))
    row_0 = dict.fromkeys(names, True)
    late = And(Not(head), tail)  # false at row 0, true only in the second half
    early = And(head, Or(tail, Not(prop(names[1]))))  # true in the first half only
    with blocks_of(bits):
        assert logic._decide(late) == (Classification.CONTINGENT, row_0)
        assert classify(late) is Classification.CONTINGENT
        assert logic._decide(And(late, head)) == (Classification.CONTRADICTION, row_0)
        assert classify(And(late, head)) is Classification.CONTRADICTION
        assert logic._decide(early) == (Classification.CONTINGENT, {**row_0, names[0]: False})
        assert classify(early) is Classification.CONTINGENT


class TestIncompleteOver:
    def test_missing_atom_is_named(self):
        with pytest.raises(MissingAtom) as excinfo:
            truth_table(And(prop("P"), prop("Q")), over=(Atom("P"),))
        assert excinfo.value.name == "Q"

    def test_missing_atom_raises_whatever_the_rows_would_read(self):
        # P ∨ (P ∧ Q) never needs Q's value, but Q is still not a column.
        with pytest.raises(MissingAtom):
            truth_table(Or(prop("P"), And(prop("P"), prop("Q"))), over=(Atom("P"),))


# Unpadded numbers: alphabetical order puts P10, P11 and P12 before P2.
COLUMNS = tuple(f"P{i}" for i in range(13))


@st.composite
def tables(draw):
    """A formula over some of the first 1-13 ``COLUMNS`` and the ``over``
    for its table: ``None`` (alphabetical columns), those columns in
    numeric order, or in random order."""
    width = draw(st.integers(1, len(COLUMNS)))
    used = draw(st.integers(1, width))
    formula = draw(formula_strategy(names=COLUMNS[:used], max_leaves=8))
    order = draw(st.sampled_from(("alphabetical", "numeric", "random")))
    if order == "alphabetical":
        return formula, None
    if order == "numeric":
        return formula, [Atom(name) for name in COLUMNS[:width]]
    return formula, [Atom(name) for name in draw(st.permutations(COLUMNS[:width]))]


class TestTableRows:
    @given(tables())
    @settings(max_examples=180, deadline=None)
    def test_rows_match_the_row_at_a_time_builder(self, table):
        formula, over = table
        got = truth_table(formula, over)
        want = reference_truth_table(formula, over)
        assert got.atoms == want.atoms
        assert len(got.rows) == len(want.rows)
        for row, expected in zip(got.rows, want.rows):
            assert list(row.valuation.items()) == list(expected.valuation.items())
            assert row.value is expected.value

    # Up to the library's limit: 65,536 rows doubled from one.
    @pytest.mark.parametrize("width", [1, 2, 7, 12, MAX_TABLE_ATOMS])
    def test_every_row_owns_its_valuation(self, width):
        formula = reduce(And, [prop(f"P{i}") for i in range(width)])
        rows = truth_table(formula).rows
        want = reference_truth_table(formula).rows
        assert len({id(row.valuation) for row in rows}) == len(rows)
        for row in rows[::5]:
            row.valuation["P0"] = not row.valuation["P0"]
            row.valuation["Z"] = True
        assert [row for i, row in enumerate(rows) if i % 5] == [
            row for i, row in enumerate(want) if i % 5
        ]
        assert truth_table(formula).rows == want

    def test_a_built_row_refuses_assignment(self):
        row = truth_table(And(prop("P"), prop("Q"))).rows[1]
        for name in ("valuation", "value"):
            with pytest.raises(AttributeError):
                setattr(row, name, None)
            with pytest.raises(AttributeError):
                delattr(row, name)
        assert (row.valuation, row.value) == ({"P": True, "Q": False}, False)

    def test_a_built_row_is_a_constructed_row(self):
        formula = Or(prop("P"), And(prop("Q"), Not(prop("R"))))
        over = [Atom(name) for name in ("S", "R", "P", "T", "Q", "U")]
        rows = truth_table(formula, over).rows
        for row in rows:
            twin = TableRow(dict(row.valuation), row.value)
            assert row == twin
            assert repr(row) == repr(twin)
            assert pickle.dumps(row) == pickle.dumps(twin)
            assert pickle.loads(pickle.dumps(row)) == twin
            duplicate = copy.copy(row)
            assert type(duplicate) is TableRow and duplicate == twin
