"""The benchmark's oracles against brute force on small inputs.

    python3 bench/test_oracles.py
"""

from __future__ import annotations

import itertools
import os
import sys
import unittest
from collections import deque
from random import Random

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracles as o  # noqa: E402
import workloads as w  # noqa: E402
from deduce import categorical, jugs, parser  # noqa: E402


def brute_value(tree, valuation) -> bool:
    op = tree[0]
    if op == "atom":
        return valuation[tree[1]]
    if op == "not":
        return not brute_value(tree[1], valuation)
    a, b = brute_value(tree[1], valuation), brute_value(tree[2], valuation)
    return {"and": a and b, "or": a or b, "implies": (not a) or b, "iff": a == b}[op]


def brute_rows(names):
    for bits in itertools.product((True, False), repeat=len(names)):
        yield dict(zip(names, bits))


class TruthVectors(unittest.TestCase):
    def test_against_row_by_row_evaluation(self):
        rng = Random(1)
        for _ in range(300):
            names = w.atom_pool(rng, rng.randint(1, 5))
            tree = w.random_tree(rng, names, rng.randint(1, 9))
            names = o.atom_names(tree)
            values = [brute_value(tree, v) for v in brute_rows(names)]
            vectors = o.Vectors(names)
            vector = vectors.of(tree)
            self.assertEqual([bool(vector >> r & 1) for r in range(vectors.rows)], values)
            kind = "tautology" if all(values) else "contradiction" if not any(values) else "contingent"
            self.assertEqual(o.classify_vector(vector, vectors.full), kind)
            false_rows = [r for r, v in enumerate(values) if not v]
            self.assertEqual(o.first_false_row(vector, vectors.full), false_rows[0] if false_rows else None)
            self.assertEqual(o.rows_visited(tree, classify=False), false_rows[0] + 1 if false_rows else len(values))
            changes = [r for r, v in enumerate(values) if v != values[0]]
            visited = changes[0] + 1 if changes else len(values)
            self.assertEqual(o.rows_visited(tree, classify=True), visited)
            self.assertEqual(o.first_contingent_row(tree, names), visited - 1 if visited <= 8 and changes else None)
            for r, valuation in enumerate(brute_rows(names)):
                self.assertEqual(vectors.valuation(r), valuation)

    def test_prefix_vectors_agree_with_the_full_table(self):
        rng = Random(2)
        for _ in range(50):
            names = w.atom_pool(rng, 7)
            tree = w.random_tree(rng, names, 12)
            full = o.Vectors(o.atom_names(tree))
            prefix = o.Vectors(o.atom_names(tree), rows=16)
            self.assertEqual(prefix.of(tree), full.of(tree) & prefix.full)

    def test_rewrites_preserve_meaning(self):
        rng = Random(3)
        for _ in range(200):
            names = w.atom_pool(rng, 4)
            tree = w.random_tree(rng, names, 8)
            other = w.rewrite(tree, rng)
            for valuation in brute_rows(o.atom_names(tree)):
                self.assertEqual(brute_value(tree, valuation), brute_value(other, valuation))

    def test_generated_families(self):
        rng = Random(4)
        for n in range(2, 7):
            names = w.atom_pool(rng, n)
            chain = w.chain_tautology(names)
            self.assertTrue(all(brute_value(chain, v) for v in brute_rows(o.atom_names(chain))))
            disjunction = w.disjunction_of(names, rng)
            rows = list(brute_rows(o.atom_names(disjunction)))
            self.assertEqual([r for r, v in enumerate(rows) if not brute_value(disjunction, v)], [len(rows) - 1])


class Printers(unittest.TestCase):
    def test_parenthesised_text_parses_back_to_the_tree(self):
        rng = Random(5)
        for spelling in o.SPELLINGS:
            for _ in range(100):
                tree = w.random_tree(rng, w.atom_pool(rng, 4), rng.randint(1, 12))
                text = o.print_parenthesised(tree, rng, spelling)
                self.assertEqual(w.from_formula(parser.parse(text)), tree, text)

    def test_monadic_text_parses_back_to_the_tree(self):
        rng = Random(6)
        for _ in range(200):
            tree = w._monadic_tree(rng, rng.randint(1, 10))
            text = o.print_monadic(tree, rng)
            self.assertEqual(w.from_monadic(categorical.parse_monadic(text)), tree, text)

    def test_printing_needs_no_recursion(self):
        tree = ("atom", "P")
        for _ in range(5000):
            tree = ("not", tree)
        self.assertEqual(o.print_parenthesised(tree, Random(0), "symbolic"), "¬ " * 5000 + "P")


class Monadic(unittest.TestCase):
    def test_nnf_property(self):
        p, q = ("pred", "P", "x"), ("pred", "Q", "x")
        self.assertTrue(o.is_nnf(("forall", "x", ("or", ("not", p), q))))
        self.assertFalse(o.is_nnf(("forall", "x", ("implies", p, q))))
        self.assertFalse(o.is_nnf(("not", ("forall", "x", p))))
        self.assertFalse(o.is_nnf(("exists", "x", ("not", ("and", p, q)))))

    def test_model_count(self):
        self.assertEqual(sum(1 for _ in o.small_models(["P", "Q", "R"])), 1 + 2**3 + 4**3)

    def test_evaluator_matches_set_semantics(self):
        rng = Random(7)
        for _ in range(100):
            tree = w._monadic_tree(rng, rng.randint(1, 8))
            formula = categorical.parse_monadic(o.print_monadic(tree, rng))
            preds = o.monadic_predicates(tree)
            for size, ext in o.small_models(preds):
                model = categorical.FiniteModel(
                    size, {p: frozenset(e for e in range(size) if ext[p] >> e & 1) for p in preds}
                )
                self.assertEqual(o.eval_monadic(tree, size, ext), categorical.eval_monadic(formula, model))

    def test_negation_agreement_detects_a_wrong_negation(self):
        original = ("forall", "x", ("pred", "P", "x"))
        self.assertTrue(o.negation_agrees(original, ("exists", "x", ("not", ("pred", "P", "x")))))
        self.assertFalse(o.negation_agrees(original, ("forall", "x", ("not", ("pred", "P", "x")))))


def brute_syllogism(forms, existential_import: bool, max_size: int) -> bool:
    """Validity over every model with explicit extensions up to max_size."""
    names = sorted({t for form in forms for t in form[1:]})
    for size in range(max_size + 1):
        for regions in itertools.product(range(8), repeat=size):
            ext = {name: {e for e, r in enumerate(regions) if r >> bit & 1} for bit, name in enumerate(names)}
            if existential_import and not all(ext.values()):
                continue

            def holds(form):
                kind, s, p = form
                return {
                    "all": ext[s] <= ext[p],
                    "no": not ext[s] & ext[p],
                    "some": bool(ext[s] & ext[p]),
                    "some-not": bool(ext[s] - ext[p]),
                }[kind]

            if holds(forms[0]) and holds(forms[1]) and not holds(forms[2]):
                return False
    return True


class Syllogisms(unittest.TestCase):
    def test_classical_answers(self):
        for name, syllogism in categorical.registry_syllogisms():
            forms = [(f.kind.value, f.subject, f.predicate) for f in (syllogism.major, syllogism.minor, syllogism.conclusion)]
            for existential_import in (False, True):
                valid = o.syllogism_search(*forms, existential_import)[0]
                self.assertEqual(valid, o.CLASSICAL_MOODS[name][existential_import], name)

    def test_region_masks_against_explicit_models(self):
        kinds = ("all", "no", "some", "some-not")
        figures = ((("M", "B"), ("A", "M")), (("B", "M"), ("A", "M")), (("M", "B"), ("M", "A")), (("B", "M"), ("M", "A")))
        rng = Random(8)
        for major_terms, minor_terms in figures:
            for k1, k2, k3 in itertools.product(kinds, repeat=3):
                forms = ((k1, *major_terms), (k2, *minor_terms), (k3, "A", "B"))
                self.assertEqual(o.syllogism_search(*forms, False)[0], brute_syllogism(forms, False, 3), forms)
                if rng.random() < 0.1:
                    self.assertEqual(o.syllogism_search(*forms, True)[0], brute_syllogism(forms, True, 5), forms)

    def test_counter_model_is_the_first_in_canonical_order(self):
        forms = (("all", "M", "B"), ("all", "M", "A"), ("some", "A", "B"))
        valid, inhabited, visited = o.syllogism_search(*forms, False)
        self.assertEqual((valid, inhabited, visited), (False, 0, 1))
        self.assertEqual(o.model_of(["A", "B", "M"], 0), (0, {"A": [], "B": [], "M": []}))
        self.assertEqual(o.model_of(["A", "B", "M"], 0b10100000), (2, {"A": [0, 1], "B": [1], "M": [0, 1]}))


def bfs_shortest(n: int, m: int, target: int) -> int | None:
    cap = 4 * max(n, m, target)
    seen = {0: 0}
    queue = deque([0])
    while queue:
        total = queue.popleft()
        if total == target:
            return seen[total]
        for nxt in (total + n, total + m, total - n, total - m):
            if 0 <= nxt <= cap and nxt not in seen:
                seen[nxt] = seen[total] + 1
                queue.append(nxt)
    return None


class Jugs(unittest.TestCase):
    def test_closed_form_minimum_against_search(self):
        for n in range(1, 13):
            for m in range(1, 13):
                for target in range(1, 40):
                    shortest = bfs_shortest(n, m, target)
                    if shortest is None:
                        continue
                    self.assertEqual(o.min_plan_length(n, m, target), shortest, (n, m, target))

    def test_replay(self):
        self.assertEqual(o.replay([(True, 3, 4), (False, 11, 1)], 3, 11), 1)
        self.assertIsNone(o.replay([(False, 3, 1)], 3, 11))
        self.assertIsNone(o.replay([(True, 5, 1)], 3, 11))
        self.assertIsNone(o.replay([(True, 3, 3), (False, 11, 1)], 3, 11))

    def test_size_estimates_match_the_planner(self):
        rng = Random(9)
        for _ in range(200):
            n, m = rng.randint(1, 60), rng.randint(1, 60)
            target = jugs.gcd(n, m) * rng.randint(1, 30)
            self.assertEqual(o.certificate_length(n, m, target), len(jugs.plan(jugs.JugProblem(n, m, target))))
            self.assertEqual(o.extended_gcd(n, m)[0], jugs.gcd(n, m))


if __name__ == "__main__":
    unittest.main()
