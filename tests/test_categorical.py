import copy
import os
import pickle
from functools import partial
from itertools import product
from random import Random
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

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
    MonadicFormula,
    PredApp,
    Syllogism,
    UnknownPredicate,
    UnknownSyllogism,
    canonical_models,
    eval_categorical,
    eval_monadic,
    format_monadic,
    free_variables,
    get_syllogism,
    negate_quantifiers,
    parse_categorical,
    parse_monadic,
    predicates,
    registry_syllogisms,
    valid_syllogism,
)
from deduce import categorical
from deduce.categorical import _FORM_MODELS, _IMPORT, _model_of
from deduce.parser import ErrorKind, ParseError
from helpers import (
    all_models,
    entered_code,
    is_nnf,
    naive_valid_syllogism,
    random_monadic,
    random_mood,
    reference_eval_monadic,
    reference_model,
    reference_valid_syllogism,
)

ALL, NO = FormKind.UNIVERSAL_AFFIRMATIVE, FormKind.UNIVERSAL_NEGATIVE
SOME, SOME_NOT = FormKind.PARTICULAR_AFFIRMATIVE, FormKind.PARTICULAR_NEGATIVE


def model(size, **extensions):
    return FiniteModel(size, {name: frozenset(ext) for name, ext in extensions.items()})


class TestCategoricalForms:
    def test_universal_affirmative_is_subset(self):
        m = model(2, S={0}, P={0, 1})
        assert eval_categorical(CategoricalForm(ALL, "S", "P"), m)

    def test_universal_is_vacuously_true_on_empty_subject(self):
        m = model(2, S=set(), P={1})
        assert eval_categorical(CategoricalForm(ALL, "S", "P"), m)
        assert eval_categorical(CategoricalForm(NO, "S", "P"), m)

    def test_particular_is_false_on_empty_subject(self):
        m = model(2, S=set(), P={0, 1})
        assert not eval_categorical(CategoricalForm(SOME, "S", "P"), m)
        assert not eval_categorical(CategoricalForm(SOME_NOT, "S", "P"), m)

    def test_all_four_kinds_on_a_mixed_model(self):
        m = model(3, S={0, 1}, P={1, 2})
        assert not eval_categorical(CategoricalForm(ALL, "S", "P"), m)
        assert not eval_categorical(CategoricalForm(NO, "S", "P"), m)
        assert eval_categorical(CategoricalForm(SOME, "S", "P"), m)
        assert eval_categorical(CategoricalForm(SOME_NOT, "S", "P"), m)

    def test_degenerate_self_form_is_always_true(self):
        m = model(2, A={0})
        assert eval_categorical(CategoricalForm(ALL, "A", "A"), m)

    @pytest.mark.parametrize("kind", ["all", "no", "some", "some-not", None])
    def test_a_kind_that_is_not_a_form_kind_is_refused(self, kind):
        message = f"kind must be a FormKind, got {type(kind).__name__}"
        with pytest.raises(TypeError, match=message):
            CategoricalForm(kind, "A", "B")

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            eval_categorical(CategoricalForm(ALL, "S", "P"), model(1, S={0}))

    def test_parse_and_describe(self):
        form = parse_categorical("some-not:A:B")
        assert form == CategoricalForm(SOME_NOT, "A", "B")
        assert form.describe() == "algún A no es B"
        assert form.code == "some-not:A:B"

    @pytest.mark.parametrize("code", ["", "all", "all:S", "every:S:P", "all:S:P:X", "all:s:P"])
    def test_parse_rejects_malformed(self, code):
        with pytest.raises(ValueError):
            parse_categorical(code)


class TestFiniteModel:
    def test_empty_universe_is_allowed(self):
        assert model(0, A=set()).universe_size == 0

    def test_extension_outside_universe_is_rejected(self):
        with pytest.raises(ValueError):
            model(1, A={3})

    def test_negative_universe_is_rejected(self):
        with pytest.raises(ValueError):
            FiniteModel(-1, {})

    @pytest.mark.parametrize("member", [True, 1.0, 0, 1.5, -1, 2, "0", None])
    def test_a_member_is_in_the_universe_as_range_membership_says(self, member):
        if member in range(2):
            assert FiniteModel(2, {"A": {member}}).extension("A") == {member}
        else:
            with pytest.raises(ValueError, match="reaches outside the universe"):
                FiniteModel(2, {"A": {member}})

    def test_a_huge_universe_is_not_iterated(self):
        # A check that walked the range would not end.
        assert FiniteModel(10**30, {"A": {5}}).extension("A") == {5}


def hash_or_refusal(value):
    try:
        return hash(value)
    except TypeError as refusal:
        return str(refusal)


class TestModelOf:
    # Key order differs from sorted order in the second triple.
    @pytest.mark.parametrize("names", [("A", "B", "M"), ("Zeta", "P1", "Q")])
    def test_every_mask_equals_the_public_constructor_model(self, names):
        for mask in range(256):
            built, expected = _model_of(names, mask), reference_model(names, mask)
            assert built == expected
            assert hash_or_refusal(built) == hash_or_refusal(expected)
            assert repr(built) == repr(expected)
            assert list(built.extensions) == list(expected.extensions) == list(names)
            assert all(type(ext) is frozenset for ext in built.extensions.values())
            assert pickle.dumps(built) == pickle.dumps(expected)
            for twin in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
                assert twin == expected
                assert repr(twin) == repr(expected)

    @pytest.mark.parametrize("flag", [False, True])
    def test_canonical_models_are_the_public_constructor_models(self, flag):
        names = ("Zeta", "P1", "Q")
        expected = [
            model
            for model in map(partial(reference_model, names), range(256))
            if not flag or all(model.extensions.values())
        ]
        assert list(canonical_models(names, flag)) == expected


class TestSyllogismRegistry:
    def test_exactly_ten_moods(self):
        assert len(registry_syllogisms()) == 10

    def test_barbara(self):
        barbara = get_syllogism("barbara")
        assert barbara.major == CategoricalForm(ALL, "M", "B")
        assert barbara.minor == CategoricalForm(ALL, "A", "M")
        assert barbara.conclusion == CategoricalForm(ALL, "A", "B")

    def test_baroco(self):
        baroco = get_syllogism("baroco")
        assert baroco.major == CategoricalForm(ALL, "B", "M")
        assert baroco.minor == CategoricalForm(SOME_NOT, "A", "M")
        assert baroco.conclusion == CategoricalForm(SOME_NOT, "A", "B")

    def test_unknown_name(self):
        with pytest.raises(UnknownSyllogism):
            get_syllogism("bocardo")

    @pytest.mark.parametrize("field", ["major", "minor", "conclusion"])
    @pytest.mark.parametrize(
        "other",
        [
            "all:M:B",
            # Form-like, with the kind's code where a FormKind belongs.
            SimpleNamespace(kind="all", subject="M", predicate="B"),
        ],
        ids=["code", "form-like"],
    )
    def test_a_field_that_is_not_a_categorical_form_is_refused(self, field, other):
        barbara = get_syllogism("barbara")
        forms = {"major": barbara.major, "minor": barbara.minor, "conclusion": barbara.conclusion}
        forms[field] = other
        message = f"{field} must be a CategoricalForm, got {type(other).__name__}"
        with pytest.raises(TypeError, match=message):
            Syllogism(**forms)

    def test_three_distinct_terms_required(self):
        with pytest.raises(ValueError):
            Syllogism(
                CategoricalForm(ALL, "A", "B"),
                CategoricalForm(ALL, "B", "A"),
                CategoricalForm(ALL, "A", "B"),
            )


VALID_WITHOUT_IMPORT = [
    "barbara",
    "celarent",
    "darii",
    "ferio",
    "cesare",
    "camestres",
    "festino",
    "baroco",
]


def python_frame_directories(action):
    """The directory of every Python frame entered while ``action()`` runs."""
    return {os.path.dirname(code.co_filename) for code in entered_code(action)}


PACKAGE = os.path.dirname(categorical.__file__)


class TestValidSyllogism:
    # In particular FormKind hashes in C, not through enum.py.
    @pytest.mark.parametrize("name", ["barbara", "darapti"])
    @pytest.mark.parametrize("flag", [False, True])
    def test_a_verdict_runs_only_the_package_own_code(self, name, flag):
        action = partial(valid_syllogism, get_syllogism(name), flag)
        assert python_frame_directories(action) == {PACKAGE}

    @pytest.mark.parametrize(
        "forms,flag",
        [
            ("all:M:B all:M:A some:A:B", False),  # darapti
            ("all:B:M all:A:M all:A:B", True),  # undistributed middle
        ],
    )
    def test_a_counter_model_skips_the_public_constructor(self, forms, flag):
        # Its members are region indices, inside the universe by construction.
        syllogism = Syllogism(*map(parse_categorical, forms.split()))
        action = partial(valid_syllogism, syllogism, flag)
        assert not action().valid
        assert FiniteModel.__init__.__code__ not in entered_code(action)

    def test_describe_runs_only_the_package_own_code(self):
        action = CategoricalForm(SOME_NOT, "S", "P").describe
        assert python_frame_directories(action) == {PACKAGE}

    @pytest.mark.parametrize(
        "other", ["barbara", CategoricalForm(ALL, "A", "B")], ids=["str", "form"]
    )
    def test_a_syllogism_that_is_not_a_syllogism_is_refused(self, other):
        message = f"syllogism must be a Syllogism, got {type(other).__name__}"
        with pytest.raises(TypeError, match=message):
            valid_syllogism(other)

    @pytest.mark.parametrize("name", VALID_WITHOUT_IMPORT)
    def test_eight_hold_without_import(self, name):
        assert valid_syllogism(get_syllogism(name)).valid

    @pytest.mark.parametrize("name", ["darapti", "felapton"])
    def test_two_need_existential_import(self, name):
        syllogism = get_syllogism(name)
        verdict = valid_syllogism(syllogism)
        assert not verdict.valid
        assert bool(verdict) is False
        counter = verdict.counter_model
        assert counter.extensions["M"] == frozenset()
        assert eval_categorical(syllogism.major, counter)
        assert eval_categorical(syllogism.minor, counter)
        assert not eval_categorical(syllogism.conclusion, counter)
        verdict = valid_syllogism(syllogism, existential_import=True)
        assert verdict.valid
        assert bool(verdict) is True

    @pytest.mark.parametrize("name", [name for name, _ in registry_syllogisms()])
    def test_all_ten_hold_with_import(self, name):
        assert valid_syllogism(get_syllogism(name), existential_import=True).valid

    def test_counter_models_refute(self):
        rng = Random(11)
        for _ in range(80):
            syllogism = random_mood(rng)
            for flag in (False, True):
                verdict = valid_syllogism(syllogism, flag)
                if not verdict.valid:
                    counter = verdict.counter_model
                    assert eval_categorical(syllogism.major, counter)
                    assert eval_categorical(syllogism.minor, counter)
                    assert not eval_categorical(syllogism.conclusion, counter)
                    if flag:
                        assert all(
                            counter.extensions[name]
                            for name in syllogism.term_names()
                        )

    def test_canonical_enumeration_is_256_models(self):
        assert sum(1 for _ in canonical_models(("A", "B", "M"))) == 256

    def test_existential_import_keeps_the_models_with_nonempty_extensions(self):
        names = ("A", "B", "M")
        expected = [m for m in canonical_models(names) if all(m.extensions.values())]
        kept = list(canonical_models(names, existential_import=True))
        assert kept == expected
        assert len(kept) == 218 == _IMPORT.bit_count()

    @pytest.mark.parametrize(
        "names", [("A", "B"), ("A", "A", "B"), ("A", "B", "C", "D")]
    )
    def test_canonical_models_need_three_distinct_predicate_names(self, names):
        with pytest.raises(ValueError):
            canonical_models(names)

    def test_canonical_agrees_with_naive_enumeration(self):
        models = all_models(("A", "B", "M"), 4)
        rng = Random(5)
        moods = [syllogism for _, syllogism in registry_syllogisms()]
        moods.extend(random_mood(rng) for _ in range(50))
        for syllogism in moods:
            for flag in (False, True):
                assert valid_syllogism(syllogism, flag).valid == naive_valid_syllogism(
                    syllogism, models, flag
                )


def _answer(verdict):
    model = verdict.counter_model
    if model is None:
        return verdict.valid, None
    return verdict.valid, model.universe_size, dict(model.extensions)


_FORMS_OVER_ABC = st.builds(
    CategoricalForm, st.sampled_from(FormKind), st.sampled_from("ABC"), st.sampled_from("ABC")
)


class TestSyllogismEngine:
    """``valid_syllogism`` against the 256-model reference search."""

    @given(_FORMS_OVER_ABC, _FORMS_OVER_ABC, _FORMS_OVER_ABC)
    @settings(max_examples=300)
    def test_verdict_and_counter_model_match_the_reference(self, major, minor, conclusion):
        terms = {major.subject, major.predicate, minor.subject, minor.predicate}
        assume(len(terms | {conclusion.subject, conclusion.predicate}) == 3)
        syllogism = Syllogism(major, minor, conclusion)
        for flag in (False, True):
            assert _answer(valid_syllogism(syllogism, flag)) == _answer(
                reference_valid_syllogism(syllogism, flag)
            )

    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("kind", list(FormKind))
    @pytest.mark.parametrize(
        "codes",
        [
            ("{self}", "all:B:C", "some:B:A"),
            ("some:B:C", "{self}", "some-not:C:A"),
            ("all:A:B", "all:B:C", "{self}"),
        ],
        ids=["major", "minor", "conclusion"],
    )
    def test_degenerate_self_forms(self, codes, kind, flag):
        forms = [parse_categorical(code.format(self=f"{kind.value}:A:A")) for code in codes]
        syllogism = Syllogism(*forms)
        verdict = valid_syllogism(syllogism, flag)
        assert _answer(verdict) == _answer(reference_valid_syllogism(syllogism, flag))
        # "todo A es A" always holds and "algún A no es A" never does.
        if forms[2].code == "all:A:A" or "some-not:A:A" in (forms[0].code, forms[1].code):
            assert verdict.valid

    def test_every_syllogism_over_three_terms_matches_set_semantics(self):
        # Bit m of each mask stands for the m-th canonical model; the masks
        # come from the set reading of each form, not from regions.
        models = list(canonical_models(("A", "B", "C")))
        forms = [
            CategoricalForm(kind, subject, predicate)
            for kind in FormKind
            for subject in "ABC"
            for predicate in "ABC"
        ]

        def mask(holds):
            return sum(1 << m for m, model in enumerate(models) if holds(model))

        masks = [mask(partial(eval_categorical, form)) for form in forms]
        # The table at import holds these masks, keyed by kind and term bits.
        assert _FORM_MODELS == {
            (form.kind, "ABC".index(form.subject), "ABC".index(form.predicate)): form_mask
            for form, form_mask in zip(forms, masks)
        }
        imported = mask(lambda model: all(model.extensions.values()))
        within = {False: (1 << 256) - 1, True: imported}
        cases = 0
        for (major, major_mask), (minor, minor_mask), (conclusion, conclusion_mask) in (
            product(zip(forms, masks), repeat=3)
        ):
            terms = {major.subject, major.predicate, minor.subject, minor.predicate}
            if len(terms | {conclusion.subject, conclusion.predicate}) != 3:
                continue
            syllogism = Syllogism(major, minor, conclusion)
            counters = major_mask & minor_mask & ~conclusion_mask
            for flag in (False, True):
                found = counters & within[flag]
                verdict = valid_syllogism(syllogism, flag)
                assert verdict.valid is (found == 0)
                expected = models[(found & -found).bit_length() - 1] if found else None
                assert verdict.counter_model == expected
                cases += 1
        assert cases == 69_120


class TestMonadicEval:
    def test_forall_over_empty_universe_is_true(self):
        assert eval_monadic(ForAll("x", PredApp("P", "x")), model(0, P=set()))

    def test_exists_over_empty_universe_is_false(self):
        assert not eval_monadic(Exists("x", PredApp("P", "x")), model(0, P=set()))

    def test_exists_with_witness(self):
        assert eval_monadic(Exists("x", PredApp("P", "x")), model(2, P={1}))

    def test_pointwise_excluded_middle(self):
        formula = ForAll("x", MOr(PredApp("P", "x"), MNot(PredApp("P", "x"))))
        for m in all_models(("P",), 3):
            assert eval_monadic(formula, m)

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            eval_monadic(ForAll("x", PredApp("P", "x")), model(1))

    def test_open_formula_is_rejected(self):
        with pytest.raises(ValueError):
            eval_monadic(PredApp("P", "x"), model(1, P={0}))

    @given(st.integers(0, 2**32))
    def test_agrees_with_the_recursive_walk(self, seed):
        formula = random_monadic(Random(seed))
        for m in all_models(("P", "Q", "R"), 2):
            assert eval_monadic(formula, m) is reference_eval_monadic(formula, m)

    @given(st.integers(0, 2**32))
    def test_stops_where_the_recursive_walk_stops(self, seed):
        # Short-circuits decide whether a missing predicate is ever read.
        formula = random_monadic(Random(seed))
        for m in all_models(("P", "Q"), 2):
            try:
                expected = reference_eval_monadic(formula, m)
            except UnknownPredicate as missing:
                with pytest.raises(UnknownPredicate) as excinfo:
                    eval_monadic(formula, m)
                assert excinfo.value.name == missing.name
            else:
                assert eval_monadic(formula, m) is expected

    def test_shadowing_rebinds_the_inner_variable(self):
        formula = Exists(
            "x", MAnd(PredApp("P", "x"), ForAll("x", PredApp("Q", "x")))
        )
        assert eval_monadic(formula, model(2, P={0}, Q={0, 1}))
        assert not eval_monadic(formula, model(2, P={0}, Q={0}))

    def test_free_variables(self):
        assert free_variables(PredApp("P", "x")) == {"x"}
        assert free_variables(ForAll("x", PredApp("P", "x"))) == frozenset()
        assert free_variables(
            ForAll("x", MAnd(PredApp("P", "x"), PredApp("Q", "z")))
        ) == {"z"}

    def test_predicates_listing(self):
        formula = ForAll("x", MImplies(PredApp("Q", "x"), PredApp("P", "x")))
        assert predicates(formula) == ("P", "Q")


class TestNegateQuantifiers:
    def test_negated_exists_becomes_forall(self):
        formula = Exists("x", PredApp("P", "x"))
        assert negate_quantifiers(formula) == ForAll("x", MNot(PredApp("P", "x")))

    def test_negated_forall_becomes_exists(self):
        formula = ForAll("x", PredApp("P", "x"))
        assert negate_quantifiers(formula) == Exists("x", MNot(PredApp("P", "x")))

    def test_implication_is_eliminated(self):
        formula = ForAll("x", MImplies(PredApp("P", "x"), PredApp("Q", "x")))
        expected = Exists("x", MAnd(PredApp("P", "x"), MNot(PredApp("Q", "x"))))
        assert negate_quantifiers(formula) == expected
        # Checked semantically on every model of size up to 3 as well.
        for m in all_models(("P", "Q"), 3):
            assert eval_monadic(expected, m) == (not eval_monadic(formula, m))

    def test_open_formula_is_rejected(self):
        with pytest.raises(ValueError):
            negate_quantifiers(PredApp("P", "x"))

    def test_negation_soundness_on_random_formulas(self):
        rng = Random(314)
        for _ in range(60):
            formula = random_monadic(rng)
            negated = negate_quantifiers(formula)
            assert is_nnf(negated)
            for m in all_models(predicates(formula), 3):
                assert eval_monadic(negated, m) == (not eval_monadic(formula, m))


def _categorical_as_monadic(form: CategoricalForm) -> MonadicFormula:
    s = PredApp(form.subject, "x")
    p = PredApp(form.predicate, "x")
    match form.kind:
        case FormKind.UNIVERSAL_AFFIRMATIVE:
            return ForAll("x", MImplies(s, p))
        case FormKind.UNIVERSAL_NEGATIVE:
            return ForAll("x", MImplies(s, MNot(p)))
        case FormKind.PARTICULAR_AFFIRMATIVE:
            return Exists("x", MAnd(s, p))
        case FormKind.PARTICULAR_NEGATIVE:
            return Exists("x", MAnd(s, MNot(p)))
    raise AssertionError


class TestCategoricalMonadicAgreement:
    def test_translations_agree_on_all_small_models(self):
        for kind in FormKind:
            form = CategoricalForm(kind, "S", "P")
            translated = _categorical_as_monadic(form)
            for m in all_models(("P", "S"), 3):
                assert eval_categorical(form, m) == eval_monadic(translated, m)


class TestMonadicSyntax:
    def test_parse_universal_conditional(self):
        assert parse_monadic("forall x. P(x) -> Q(x)") == ForAll(
            "x", MImplies(PredApp("P", "x"), PredApp("Q", "x"))
        )

    def test_parse_existential_conjunction(self):
        assert parse_monadic("exists x. P(x) & ~Q(x)") == Exists(
            "x", MAnd(PredApp("P", "x"), MNot(PredApp("Q", "x")))
        )

    def test_word_aliases(self):
        assert parse_monadic("forall x. no P(x) ó Q(x)") == ForAll(
            "x", MOr(MNot(PredApp("P", "x")), PredApp("Q", "x"))
        )

    def test_quantifier_body_extends_right(self):
        assert parse_monadic("exists x. P(x) & Q(x) -> R(x)") == Exists(
            "x",
            MImplies(MAnd(PredApp("P", "x"), PredApp("Q", "x")), PredApp("R", "x")),
        )

    def test_nested_quantifiers(self):
        formula = parse_monadic("forall x. P(x) -> exists z. Q(z)")
        assert formula == ForAll(
            "x", MImplies(PredApp("P", "x"), Exists("z", PredApp("Q", "z")))
        )

    def test_reserved_word_cannot_be_a_variable(self):
        with pytest.raises(ParseError) as excinfo:
            parse_monadic("forall y. P(y)")
        assert excinfo.value.kind is ErrorKind.UNKNOWN_TOKEN

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("forall x P(x)", ErrorKind.UNKNOWN_TOKEN),
            ("forall x.", ErrorKind.UNEXPECTED_END),
            ("exists x. P(x", ErrorKind.UNBALANCED_PAREN),
            ("P(x) Q(x)", ErrorKind.TRAILING_INPUT),
            ("forall x. P x", ErrorKind.UNKNOWN_TOKEN),
        ],
    )
    def test_error_kinds(self, text, kind):
        with pytest.raises(ParseError) as excinfo:
            parse_monadic(text)
        assert excinfo.value.kind is kind

    def test_round_trip_on_random_formulas(self):
        rng = Random(77)
        for _ in range(120):
            formula = random_monadic(rng)
            assert parse_monadic(format_monadic(formula)) == formula


# (input, kind, span, message) as the monadic parser reported them before it
# became a table for the shared precedence parser: at least one input for
# every place that parser raises.
GOLDEN_ERRORS = [
    # unknown word
    ('1x', ErrorKind.UNKNOWN_TOKEN, (0, 2), "unknown word '1x'"),
    ('forall x. P(x) & óx', ErrorKind.UNKNOWN_TOKEN, (17, 19), "unknown word 'óx'"),
    ('Ñ(x)', ErrorKind.UNKNOWN_TOKEN, (0, 1), "unknown word 'Ñ'"),
    # unknown character, including the biconditional at its first character
    ('forall x. P(x) & q1 @', ErrorKind.UNKNOWN_TOKEN, (20, 21), "unknown character '@'"),
    ('P(x) <-> Q(x)', ErrorKind.UNKNOWN_TOKEN, (5, 6), "unknown character '<'"),
    ('P(x) <=> Q(x)', ErrorKind.UNKNOWN_TOKEN, (5, 6), "unknown character '<'"),
    ('P(x) ⇔ Q(x)', ErrorKind.UNKNOWN_TOKEN, (5, 6), "unknown character '⇔'"),
    ('P(x) @ Q(x)', ErrorKind.UNKNOWN_TOKEN, (5, 6), "unknown character '@'"),
    ('forall x. P(x) # ', ErrorKind.UNKNOWN_TOKEN, (15, 16), "unknown character '#'"),
    ('exists x , P(x)', ErrorKind.UNKNOWN_TOKEN, (9, 10), "unknown character ','"),
    # trailing input
    ('P(x) Q(x)', ErrorKind.TRAILING_INPUT, (5, 6), "unexpected input 'Q' after a complete formula"),
    ('forall x. P(x))', ErrorKind.TRAILING_INPUT, (14, 15), "unexpected input ')' after a complete formula"),
    ('P(x) x', ErrorKind.TRAILING_INPUT, (5, 6), "unexpected input 'x' after a complete formula"),
    ('P(x) forall', ErrorKind.TRAILING_INPUT, (5, 11), "unexpected input 'forall' after a complete formula"),
    ('P(x) ~Q(x)', ErrorKind.TRAILING_INPUT, (5, 6), "unexpected input '~' after a complete formula"),
    # expected '.'
    ('forall x', ErrorKind.UNEXPECTED_END, (8, 8), "expected '.'"),
    ('forall x P(x)', ErrorKind.UNKNOWN_TOKEN, (9, 10), "expected '.', found 'P'"),
    # expected a variable, including reserved words
    ('forall', ErrorKind.UNEXPECTED_END, (6, 6), 'expected a variable'),
    ('forall y. P(y)', ErrorKind.UNKNOWN_TOKEN, (7, 8), "expected a variable, found 'y'"),
    ('forall forall. P(x)', ErrorKind.UNKNOWN_TOKEN, (7, 13), "expected a variable, found 'forall'"),
    ('exists exists. P(x)', ErrorKind.UNKNOWN_TOKEN, (7, 13), "expected a variable, found 'exists'"),
    ('forall X. P(X)', ErrorKind.UNKNOWN_TOKEN, (7, 8), "expected a variable, found 'X'"),
    ('P(y)', ErrorKind.UNKNOWN_TOKEN, (2, 3), "expected a variable, found 'y'"),
    ('P(no)', ErrorKind.UNKNOWN_TOKEN, (2, 4), "expected a variable, found 'no'"),
    ('P(', ErrorKind.UNEXPECTED_END, (2, 2), 'expected a variable'),
    ('P()', ErrorKind.UNKNOWN_TOKEN, (2, 3), "expected a variable, found ')'"),
    # expected '('
    ('forall x. P', ErrorKind.UNEXPECTED_END, (11, 11), "expected '('"),
    ('forall x. P x', ErrorKind.UNKNOWN_TOKEN, (12, 13), "expected '(', found 'x'"),
    ('P & Q(x)', ErrorKind.UNKNOWN_TOKEN, (2, 3), "expected '(', found '&'"),
    ('P Q q', ErrorKind.UNKNOWN_TOKEN, (2, 3), "expected '(', found 'Q'"),
    # missing ')' at the end
    ('exists x. P(x', ErrorKind.UNBALANCED_PAREN, (13, 13), "missing ')'"),
    ('(forall x. P(x)', ErrorKind.UNBALANCED_PAREN, (15, 15), "missing ')'"),
    ('((P(x))', ErrorKind.UNBALANCED_PAREN, (7, 7), "missing ')'"),
    # expected ')'
    ('P(x y)', ErrorKind.UNBALANCED_PAREN, (4, 5), "expected ')', found 'y'"),
    ('(P(x) Q(x))', ErrorKind.UNBALANCED_PAREN, (6, 7), "expected ')', found 'Q'"),
    ('(forall x. P(x) Q(x))', ErrorKind.UNBALANCED_PAREN, (16, 17), "expected ')', found 'Q'"),
    # unmatched ')'
    (')', ErrorKind.UNBALANCED_PAREN, (0, 1), "unmatched ')'"),
    ('P(x) & )', ErrorKind.UNBALANCED_PAREN, (7, 8), "unmatched ')'"),
    ('()', ErrorKind.UNBALANCED_PAREN, (1, 2), "unmatched ')'"),
    # expected a formula
    ('forall x.', ErrorKind.UNEXPECTED_END, (9, 9), 'expected a formula'),
    ('forall x. x', ErrorKind.UNKNOWN_TOKEN, (10, 11), "expected a formula, found 'x'"),
    ('P(x) & y', ErrorKind.UNKNOWN_TOKEN, (7, 8), "expected a formula, found 'y'"),
    ('', ErrorKind.UNEXPECTED_END, (0, 0), 'expected a formula'),
    ('~', ErrorKind.UNEXPECTED_END, (1, 1), 'expected a formula'),
    ('P(x) -> . Q(x)', ErrorKind.UNKNOWN_TOKEN, (8, 9), "expected a formula, found '.'"),
    # a tokenizing error wins over a later parse error
    ('P(x) Q(x) @', ErrorKind.UNKNOWN_TOKEN, (10, 11), "unknown character '@'"),
    ('forall y P <->', ErrorKind.UNKNOWN_TOKEN, (11, 12), "unknown character '<'"),
]


@pytest.mark.parametrize("text,kind,span,message", GOLDEN_ERRORS)
def test_golden_error_corpus(text, kind, span, message):
    with pytest.raises(ParseError) as excinfo:
        parse_monadic(text)
    error = excinfo.value
    assert (error.kind, error.span, error.message) == (kind, span, message)
    assert str(error) == f"{message} at {span[0]}..{span[1]}"


def test_deep_quantifier_prefix_at_the_default_recursion_limit():
    depth = 20_000
    text = "forall x. " * depth + "P(x)"
    formula = parse_monadic(text)
    assert format_monadic(formula) == text
    assert free_variables(formula) == frozenset()
    negated = negate_quantifiers(formula)
    assert format_monadic(negated) == "exists x. " * depth + "~P(x)"


@pytest.mark.parametrize(
    "text,names",
    [
        ("forall x. " * 20_000 + "P(x)", ("P",)),
        ("forall x. " + "~" * 20_000 + "Q(x)", ("Q",)),
        ("forall x. " + " & ".join(f"P{i % 3}(x)" for i in range(20_000)), ("P0", "P1", "P2")),
        ("forall x. " + " -> ".join(f"Q{i % 2}(x)" for i in range(20_000)), ("Q0", "Q1")),
    ],
    ids=["quantifiers", "negations", "conjunctions", "conditionals"],
)
def test_predicates_at_the_default_recursion_limit(text, names):
    assert predicates(parse_monadic(text)) == names


def test_free_variables_after_a_scope_ends():
    closed_left = MAnd(ForAll("x", PredApp("P", "x")), PredApp("Q", "x"))
    assert free_variables(closed_left) == {"x"}
    shadowed = ForAll("x", MAnd(ForAll("x", PredApp("P", "x")), PredApp("Q", "x")))
    assert free_variables(shadowed) == frozenset()
