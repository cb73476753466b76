"""The record idiom shared by every record class of the package: documented
reprs, equality and hashing, immutability, class patterns, copying and
pickling, and the tree operations of formula nodes at any nesting depth."""

import copy
import functools
import pickle
from pathlib import Path
from random import Random
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given

import deduce
from deduce import rules
from deduce._record import Record
from deduce.categorical import (
    CategoricalForm,
    Exists,
    FiniteModel,
    ForAll,
    FormKind,
    MAnd,
    MImplies,
    MNot,
    MOr,
    PredApp,
    eval_categorical,
    eval_monadic,
    free_variables,
    get_syllogism,
    negate_quantifiers,
    predicates,
    valid_syllogism,
)
from deduce.jugs import AddJug, JugProblem, PourPlan, RemoveJug, bezout, plan, simulate
from deduce.logic import (
    And,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    TableRow,
    atoms,
    classify,
    evaluate,
    prop,
    substitute,
    truth_table,
)
from deduce.parser import format_formula, parse
from helpers import dataclass_twin, formula_strategy, random_monadic

P, Q = prop("P"), prop("Q")
_MODEL = FiniteModel(2, {"A": {0}, "B": {0, 1}, "M": set()})

# One instance of every record class.
RECORDS = [
    Atom("P"),
    P,
    Not(P),
    Or(P, Q),
    And(P, Q),
    Implies(P, Q),
    Iff(P, Q),
    TableRow({"P": True}, True),
    truth_table(And(P, Q)),
    CategoricalForm(FormKind.UNIVERSAL_AFFIRMATIVE, "S", "P"),
    get_syllogism("barbara"),
    _MODEL,
    valid_syllogism(get_syllogism("darapti")),
    PredApp("P", "x"),
    MNot(PredApp("P", "x")),
    MAnd(PredApp("P", "x"), PredApp("Q", "x")),
    MOr(PredApp("P", "x"), PredApp("Q", "x")),
    MImplies(PredApp("P", "x"), PredApp("Q", "x")),
    ForAll("x", PredApp("P", "x")),
    Exists("x", PredApp("P", "x")),
    JugProblem(3, 11, 1),
    bezout(3, 11),
    AddJug(3),
    RemoveJug(11),
    plan(JugProblem(3, 11, 1)),
    rules.get_rule("modus-ponens"),
    rules.Entailment((P,), Q),
    rules.entail([P], Q),
]


def _record_classes() -> set[type]:
    """Every public record class: a subclass of ``Record`` with fields."""
    found = set()
    pending = [Record]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if not subclass.__name__.startswith("_") and subclass.__match_args__:
                found.add(subclass)
    return found


def test_the_instances_cover_every_record_class():
    assert {type(record) for record in RECORDS} == _record_classes()
    assert len(RECORDS) == len(_record_classes())


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__qualname__)
class TestEveryRecord:
    def test_copy_deepcopy_and_pickle_round_trip(self, record):
        for twin in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(twin) is type(record)
            assert twin == record
            assert repr(twin) == repr(record)

    def test_repr_matches_dataclasses(self, record):
        assert repr(record) == repr(dataclass_twin(record))

    def test_assignment_raises(self, record):
        for name in type(record).__match_args__:
            value = getattr(record, name)
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_class_pattern_binds_the_first_field(self, record):
        kind = type(record)
        match record:
            case kind(first):
                assert first is getattr(record, kind.__match_args__[0])
            case _:
                pytest.fail(f"{kind.__qualname__}(first) did not match")


def test_documented_reprs():
    verdict = rules.entail([parse("Llueve ⇒ Mojado"), parse("Mojado")], parse("Llueve"))
    assert repr(verdict) == (
        "Verdict(valid=False, countervaluation={'Llueve': False, 'Mojado': True})"
    )
    assert repr(bezout(3, 11)) == "BezoutCertificate(g=1, a=4, b=-1)"
    assert repr(plan(JugProblem(3, 11, 1)).runs) == (
        "((AddJug(capacity=3), 4), (RemoveJug(capacity=11), 1))"
    )


def test_class_patterns_still_match():
    match And(P, Not(Q)):
        case And(left, Not(inner)):
            assert (left, inner) == (P, Q)
        case _:
            pytest.fail("And(l, r) did not match")
    match ForAll("x", PredApp("P", "x")):
        case ForAll(var, PredApp(pred, _)):
            assert (var, pred) == ("x", "P")
        case _:
            pytest.fail("ForAll(v, b) did not match")


@pytest.mark.parametrize(
    "one,other",
    [
        (And(P, Q), Or(P, Q)),
        (Implies(P, Q), Iff(P, Q)),
        (MAnd(PredApp("P", "x"), PredApp("Q", "x")), MOr(PredApp("P", "x"), PredApp("Q", "x"))),
        (ForAll("x", PredApp("P", "x")), Exists("x", PredApp("P", "x"))),
        (AddJug(3), RemoveJug(3)),
    ],
)
def test_classes_with_equal_fields_differ_and_hash_apart(one, other):
    assert one != other
    assert hash(one) != hash(other)
    assert one == copy.copy(one)
    assert hash(one) == hash(copy.copy(one))


def test_atoms_order_by_name():
    names = ["Q", "P1", "P", "Llueve"]
    assert [atom.name for atom in sorted(Atom(name) for name in names)] == sorted(names)
    assert Atom("P") < Atom("Q") <= Atom("Q") and Atom("Q") > Atom("P") >= Atom("P")
    assert not Atom("Q") < Atom("P")
    with pytest.raises(TypeError):
        Atom("P") < "Q"


def test_unhashable_fields_make_an_unhashable_record():
    with pytest.raises(TypeError):
        hash(TableRow({"P": True}, True))


def test_no_module_of_the_package_uses_dataclasses():
    package = Path(deduce.__file__).parent
    hits = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "dataclass" in line
    ]
    assert hits == []


# --- The generated methods these replace, as oracles ------------------------


@given(formula_strategy(), formula_strategy())
def test_formula_repr_and_equality_match_dataclasses(f, g):
    assert repr(f) == repr(dataclass_twin(f))
    assert (f == g) is (dataclass_twin(f) == dataclass_twin(g))
    assert (f != g) is (dataclass_twin(f) != dataclass_twin(g))
    rebuilt = parse(format_formula(f))
    assert rebuilt == f and hash(rebuilt) == hash(f)


@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_monadic_repr_and_equality_match_dataclasses(seed, other_seed):
    f = random_monadic(Random(seed))
    g = random_monadic(Random(other_seed))
    assert repr(f) == repr(dataclass_twin(f))
    assert (f == g) is (dataclass_twin(f) == dataclass_twin(g))
    same = random_monadic(Random(seed))
    assert same == f and hash(same) == hash(f)


# --- Tree operations at depth -------------------------------------------------

DEPTH = 20_000
_ATOMIC_P = "Atomic(atom=Atom(name='P'))"


def _fails_fast_on_recursion(test):
    """Report a ``RecursionError`` without its traceback, which pytest
    would search for the recursion by comparing the deep trees each frame
    holds: a recursive regression then fails at once instead of stalling."""

    @functools.wraps(test)
    def wrapper(*args, **kwargs):
        try:
            return test(*args, **kwargs)
        except RecursionError:
            pass
        pytest.fail("recursed once per nesting level", pytrace=False)

    return wrapper


def _negations(leaf):
    formula = leaf
    for _ in range(DEPTH):
        formula = Not(formula)
    return formula


def _right_chain(leaf):
    formula = leaf
    for _ in range(DEPTH):
        formula = And(P, formula)
    return formula


def _left_chain(leaf):
    formula = leaf
    for _ in range(DEPTH):
        formula = Implies(formula, P)
    return formula


@pytest.mark.parametrize(
    "build,text,with_q",
    [
        (_negations, "Not(inner=" * DEPTH + _ATOMIC_P + ")" * DEPTH, False),
        (_right_chain, f"And(left={_ATOMIC_P}, right=" * DEPTH + _ATOMIC_P + ")" * DEPTH, False),
        (_left_chain, "Implies(left=" * DEPTH + _ATOMIC_P + f", right={_ATOMIC_P})" * DEPTH, True),
    ],
    ids=["negations", "right-deep", "left-deep"],
)
@_fails_fast_on_recursion
def test_formula_operations_at_depth(build, text, with_q):
    # At the default recursion limit: none of these recurses per level.
    formula, twin, other = build(P), build(P), build(Q)
    assert formula == twin and not formula != twin
    assert formula != other
    assert hash(formula) == hash(twin)
    assert repr(formula) == text
    assert evaluate(formula, {"P": True}) is True
    # ``with_q``: the value when the innermost P becomes a false Q.
    assert evaluate(other, {"P": True, "Q": False}) is with_q
    # A node is immutable, so its copies are the node, also inside a container.
    assert copy.copy(formula) is formula and copy.deepcopy([formula])[0] is formula


@_fails_fast_on_recursion
def test_monadic_operations_at_depth():
    body = PredApp("P", "x")
    foralls, twin, negations = body, PredApp("P", "x"), body
    for _ in range(DEPTH):
        foralls = ForAll("x", foralls)
        twin = ForAll("x", twin)
        negations = MNot(negations)
    prefix = ForAll("x", negations)
    assert foralls == twin and hash(foralls) == hash(twin)
    assert prefix != ForAll("x", MNot(negations))
    assert repr(foralls) == "ForAll(var='x', body=" * DEPTH + "PredApp(pred='P', var='x')" + ")" * DEPTH
    for node in (foralls, negations):
        assert copy.copy(node) is node and copy.deepcopy([node])[0] is node
    for size, members in [(0, set()), (1, {0}), (1, set()), (3, {0, 2})]:
        model = FiniteModel(size, {"P": members})
        assert eval_monadic(foralls, model) is (members == set(range(size)))
        # An even number of negations.
        assert eval_monadic(prefix, model) is (members == set(range(size)))


@pytest.mark.parametrize(
    "build", [_negations, _right_chain, _left_chain], ids=["negations", "right-deep", "left-deep"]
)
@_fails_fast_on_recursion
def test_formulas_pickle_at_depth(build):
    formula = build(Q)
    twin = pickle.loads(pickle.dumps(formula))
    assert type(twin) is type(formula) and twin == formula and twin != build(P)
    assert hash(twin) == hash(formula)


@_fails_fast_on_recursion
def test_monadic_formulas_pickle_at_depth():
    formula = PredApp("P", "x")
    for i in range(DEPTH):
        formula = (ForAll, Exists)[i % 2]("x", MAnd(PredApp("Q", "x"), MNot(formula)))
    twin = pickle.loads(pickle.dumps(formula))
    assert type(twin) is type(formula) and twin == formula and hash(twin) == hash(formula)


@given(formula_strategy(), st.integers(0, 2**32))
def test_pickled_formulas_match_dataclasses(f, seed):
    g = random_monadic(Random(seed))
    for formula in (f, g):
        twin = pickle.loads(pickle.dumps(formula))
        assert repr(twin) == repr(formula)
        assert dataclass_twin(twin) == dataclass_twin(formula)


def test_a_shared_subtree_pickles_once():
    formula = P
    for _ in range(40):
        formula = And(formula, formula)
    data = pickle.dumps(formula)
    assert len(data) < 2_000
    node = pickle.loads(data)
    for _ in range(40):
        assert type(node) is And and node.left is node.right
        node = node.left
    assert node == P


# Each walker over a tree, handed a field value that is no node of it.  The
# values include what a walker could keep on its own work stack: an opcode
# (an int) and a bound variable's name (a str).
_WALKS = {
    "classify": lambda value: classify(And(P, value)),
    "atoms": lambda value: atoms(Or(value, P)),
    "evaluate": lambda value: evaluate(Not(value), {"P": True}),
    "substitute": lambda value: substitute(Implies(value, P), {}),
    "format_formula": lambda value: format_formula(Iff(P, value)),
    "predicates": lambda value: predicates(MAnd(PredApp("P", "x"), value)),
    "free_variables": lambda value: free_variables(
        ForAll("x", MAnd(PredApp("P", "x"), value))
    ),
    "negate_quantifiers": lambda value: negate_quantifiers(MNot(value)),
    "eval_monadic": lambda value: eval_monadic(
        Exists("x", MOr(PredApp("A", "x"), value)), _MODEL
    ),
}


@pytest.mark.parametrize("value", [0, -1, "x", None], ids=repr)
@pytest.mark.parametrize("walk", _WALKS.values(), ids=_WALKS)
def test_every_walker_refuses_a_field_that_is_no_node(walk, value):
    with pytest.raises(TypeError, match=f"^not a (monadic )?formula: {value!r}$"):
        walk(value)


@pytest.mark.parametrize("var", [None, 0, True, "x"], ids=repr)
def test_negation_binds_a_quantifier_variable_whatever_it_holds(var):
    # The rewrite keeps a quantifier on its work stack, never its variable,
    # so no variable can read as a work item of its own.
    formula = ForAll(var, MOr(PredApp("P", var), Exists(var, PredApp("Q", var))))
    negated = MAnd(MNot(PredApp("P", var)), ForAll(var, MNot(PredApp("Q", var))))
    assert negate_quantifiers(formula) == Exists(var, negated)


def test_duck_typed_records_are_refused():
    # Each has every field the function reads, but is not of its type.
    with pytest.raises(TypeError, match="^not a plan action: "):
        simulate(PourPlan([SimpleNamespace(capacity=3)]), 3, 5)
    form = SimpleNamespace(kind="all", subject="A", predicate="B")
    with pytest.raises(TypeError, match="^not a categorical kind: 'all'$"):
        eval_categorical(form, _MODEL)
