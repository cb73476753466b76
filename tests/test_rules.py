from random import Random

import pytest
from hypothesis import given, settings

from deduce.logic import (
    And,
    Classification,
    Iff,
    Implies,
    classify,
    evaluate,
    prop,
)
from deduce.parser import parse
from deduce.rules import (
    Entailment,
    UnknownRule,
    entail,
    entails,
    get_rule,
    instantiate,
    registry,
    verify_rule,
)
from helpers import formula_strategy, random_formula, scan_entails

P, Q = prop("P"), prop("Q")

EXPECTED_NAMES = [
    "modus-ponens",
    "tollendo-ponens",
    "tollendo-tollens",
    "contrapuesta",
    "silogismo-hipotetico",
    "dilema-constructivo",
    "dilema-destructivo",
    "exportacion",
]


class TestRegistry:
    def test_exactly_eight_rules(self):
        assert [schema.name for schema in registry()] == EXPECTED_NAMES

    def test_modus_ponens_pattern(self):
        schema = get_rule("modus-ponens")
        assert schema.pattern == Implies(And(Implies(P, Q), P), Q)

    def test_exportacion_is_a_biconditional(self):
        assert isinstance(get_rule("exportacion").pattern, Iff)

    def test_patterns_use_only_their_metavariables(self):
        for schema in registry():
            from deduce.logic import atoms

            assert set(atoms(schema.pattern)) <= set(schema.metavariables)

    def test_lookup_is_case_insensitive(self):
        assert get_rule("Modus-Ponens") is get_rule("modus-ponens")

    def test_all_patterns_are_tautologies(self):
        for schema in registry():
            assert classify(schema.pattern) is Classification.TAUTOLOGY


class TestVerifyRule:
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_every_rule_verifies(self, name):
        assert verify_rule(name) is Classification.TAUTOLOGY

    def test_unknown_rule(self):
        with pytest.raises(UnknownRule):
            verify_rule("no-such-rule")


class TestInstantiate:
    def test_rain_wet_lawn(self):
        llueve, mojado = prop("Llueve"), prop("PastoMojado")
        result = instantiate("modus-ponens", {"P": llueve, "Q": mojado})
        assert result == Implies(And(Implies(llueve, mojado), llueve), mojado)

    def test_empty_substitution_is_the_pattern(self):
        assert instantiate("contrapuesta", {}) == get_rule("contrapuesta").pattern

    def test_substitution_preserves_tautology(self):
        image = And(prop("A"), prop("B"))
        result = instantiate("silogismo-hipotetico", {"P": image})
        assert classify(result) is Classification.TAUTOLOGY

    def test_rejects_non_metavariables(self):
        with pytest.raises(ValueError):
            instantiate("modus-ponens", {"Z": prop("A")})

    def test_rejects_an_image_that_is_not_a_formula(self):
        with pytest.raises(TypeError, match="the image of atom 'P' must be a formula, got int"):
            instantiate("modus-ponens", {"P": 3})

    def test_random_instances_stay_tautologies(self):
        rng = Random(42)
        names = ("A", "B", "C", "D")
        for _ in range(30):
            schema = rng.choice(registry())
            substitution = {
                atom.name: random_formula(rng, names, 2)
                for atom in schema.metavariables
            }
            assert classify(instantiate(schema.name, substitution)) is (
                Classification.TAUTOLOGY
            )


class TestEntails:
    def test_modus_ponens_instance_is_valid(self):
        verdict = entail(
            [parse("Llueve ⇒ Mojado"), parse("Llueve")], parse("Mojado")
        )
        assert verdict.valid
        assert bool(verdict) is True
        assert verdict.countervaluation is None

    def test_affirming_the_consequent_is_invalid(self):
        verdict = entail(
            [parse("Llueve ⇒ Mojado"), parse("Mojado")], parse("Llueve")
        )
        assert not verdict.valid
        assert bool(verdict) is False
        assert verdict.countervaluation == {"Llueve": False, "Mojado": True}

    def test_chained_implications_are_valid(self):
        verdict = entail(
            [parse("Tiza ⇒ Billar"), parse("Billar ⇒ Thurston"), parse("Tiza")],
            parse("Thurston"),
        )
        assert verdict.valid

    def test_entailment_record_form(self):
        record = Entailment(premises=(parse("P"),), conclusion=parse("P ó Q"))
        assert entails(record).valid

    def test_empty_premises_means_tautology(self):
        assert entail([], parse("P ó ¬P")).valid
        assert not entail([], parse("P ó Q")).valid

    @given(formula_strategy(max_leaves=6))
    @settings(max_examples=80)
    def test_empty_premises_matches_classify(self, conclusion):
        assert entail([], conclusion).valid == (
            classify(conclusion) is Classification.TAUTOLOGY
        )

    def test_countervaluation_refutes(self):
        rng = Random(99)
        names = ("P", "Q", "R")
        for _ in range(100):
            premises = [random_formula(rng, names, 2) for _ in range(rng.randrange(3))]
            conclusion = random_formula(rng, names, 2)
            verdict = entail(premises, conclusion)
            if not verdict.valid:
                valuation = verdict.countervaluation
                assert all(evaluate(premise, valuation) for premise in premises)
                assert not evaluate(conclusion, valuation)

    def test_monotone_under_extra_premises(self):
        rng = Random(7)
        names = ("P", "Q", "R", "S")
        checked = 0
        for _ in range(200):
            premises = [random_formula(rng, names, 2) for _ in range(rng.randrange(1, 3))]
            conclusion = random_formula(rng, names, 2)
            if entail(premises, conclusion).valid:
                extra = random_formula(rng, names, 2)
                assert entail(premises + [extra], conclusion).valid
                checked += 1
        assert checked > 10

    def test_agrees_with_direct_scan(self):
        rng = Random(2024)
        names = ("P", "Q", "R", "S", "T")
        for _ in range(150):
            premises = [random_formula(rng, names, 3) for _ in range(rng.randrange(4))]
            conclusion = random_formula(rng, names, 3)
            verdict = entail(premises, conclusion)
            oracle_valid, oracle_counter = scan_entails(premises, conclusion)
            assert verdict.valid == oracle_valid
            # Both scan the same canonical order, so counterexamples agree too.
            assert verdict.countervaluation == oracle_counter
