"""Independent oracles the benchmark checks deduce's outputs against.

None of these call into ``deduce``.  Formulas are plain tuples:

* propositional: ``("atom", name)``, ``("not", f)`` and
  ``(op, left, right)`` for ``op`` in and / or / implies / iff;
* monadic: ``("pred", P, var)``, ``("not", f)``, ``("and" | "or" |
  "implies", left, right)`` and ``("forall" | "exists", var, body)``.

The propositional oracle is a truth vector: one big integer whose bit ``r``
is the formula's value at canonical row ``r`` (first atom varies slowest,
V before F), so each atom is a periodic bit mask and each connective one
integer operation.
"""

from __future__ import annotations

import math
from random import Random

# --- Propositional truth vectors --------------------------------------------


def atom_names(tree) -> list[str]:
    """Distinct atom names of a propositional tree, in canonical (sorted) order."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[0] == "atom":
            names.add(node[1])
        else:
            stack.extend(node[1:])
    return sorted(names)


def atom_mask(index: int, count: int, rows: int) -> int:
    """Bit mask over the first ``rows`` canonical rows where atom ``index``
    (of ``count``, first slowest) is true."""
    half = 1 << (count - 1 - index)  # rows per true block
    if half >= rows:
        return (1 << rows) - 1
    period = 2 * half
    return ((1 << half) - 1) * (((1 << rows) - 1) // ((1 << period) - 1))


class Vectors:
    """Truth vectors over a fixed atom order and a prefix of canonical rows.

    ``rows`` defaults to all 2^n rows; a smaller power of two evaluates only
    the first rows, where the leading atoms are still all true.
    """

    def __init__(self, names, rows: int | None = None):
        self.names = list(names)
        count = len(self.names)
        self.rows = 1 << count if rows is None else min(rows, 1 << count)
        self.full = (1 << self.rows) - 1
        self._atoms = {
            name: atom_mask(i, count, self.rows) for i, name in enumerate(self.names)
        }

    def of(self, tree) -> int:
        full = self.full
        memo: dict[int, int] = {}
        stack = [(tree, False)]
        while stack:
            node, done = stack.pop()
            key = id(node)
            if key in memo:
                continue
            op = node[0]
            if op == "atom":
                memo[key] = self._atoms[node[1]]
                continue
            if not done:
                stack.append((node, True))
                stack.extend((child, False) for child in node[1:])
                continue
            if op == "not":
                memo[key] = full ^ memo[id(node[1])]
                continue
            a, b = memo[id(node[1])], memo[id(node[2])]
            if op == "and":
                memo[key] = a & b
            elif op == "or":
                memo[key] = a | b
            elif op == "implies":
                memo[key] = (full ^ a) | b
            elif op == "iff":
                memo[key] = full ^ (a ^ b)
            else:
                raise ValueError(f"unknown connective {op!r}")
        return memo[id(tree)]

    def valuation(self, row: int) -> dict[str, bool]:
        count = len(self.names)
        return {name: not (row >> (count - 1 - i)) & 1 for i, name in enumerate(self.names)}


def lowest_bit(value: int) -> int:
    return (value & -value).bit_length() - 1


def classify_vector(vector: int, full: int) -> str:
    if vector == full:
        return "tautology"
    if vector == 0:
        return "contradiction"
    return "contingent"


def first_false_row(vector: int, full: int) -> int | None:
    missing = full ^ vector
    return None if missing == 0 else lowest_bit(missing)


def classify_rows(vector: int, full: int, rows: int) -> int:
    """Canonical rows a scan visits before its verdict: up to the first row
    whose value differs from row 0, or all of them."""
    differs = (full ^ vector) if vector & 1 else vector
    return rows if differs == 0 else lowest_bit(differs) + 1


def rows_visited(tree, classify: bool) -> int:
    """Canonical rows a scan visits: ``classify`` stops at the first row that
    makes the formula contingent, a falsifying scan at the first false row.
    Prefixes of growing length keep this cheap when the scan stops early."""
    names = atom_names(tree)
    total = 1 << len(names)
    rows = 8
    while True:
        vectors = Vectors(names, rows)
        vector = vectors.of(tree)
        if classify:
            visited = classify_rows(vector, vectors.full, vectors.rows)
        else:
            row = first_false_row(vector, vectors.full)
            visited = vectors.rows if row is None else row + 1
        if visited < vectors.rows or vectors.rows == total:
            return visited
        rows <<= 4


def first_contingent_row(tree, names, limit: int = 8) -> int | None:
    """Index of the first row (below ``limit``) that makes ``tree`` contingent."""
    vectors = Vectors(names, rows=limit)
    vector = vectors.of(tree)
    if vector in (0, vectors.full):
        return None
    return classify_rows(vector, vectors.full, vectors.rows) - 1


# --- Propositional printer with alias spellings -----------------------------

SPELLINGS = {
    "keyword": {
        "not": ("no",), "and": ("y",), "or": ("o", "ó"),
        "implies": ("⇒",), "iff": ("⇔",),
    },
    "symbolic": {
        "not": ("¬",), "and": ("∧",), "or": ("∨",),
        "implies": ("⇒",), "iff": ("⇔",),
    },
    "ascii": {
        "not": ("!", "~"), "and": ("&",), "or": ("|",),
        "implies": ("->", "=>"), "iff": ("<->", "<=>"),
    },
}


def print_parenthesised(tree, rng: Random, spelling: str) -> str:
    """Every binary node in parentheses, each connective in a random alias
    of the chosen spelling; iterative, so any depth prints."""
    aliases = SPELLINGS[spelling]
    out: list[str] = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        op = item[0]
        if op == "atom":
            out.append(item[1])
        elif op == "not":
            out.append(rng.choice(aliases["not"]) + " ")
            stack.append(item[1])
        else:
            stack.extend((")", item[2], f" {rng.choice(aliases[op])} ", item[1]))
            out.append("(")
    return "".join(out)


# --- Monadic formulas --------------------------------------------------------

M_SPELLINGS = {
    "not": ("¬", "!", "~", "no"),
    "and": ("&", "∧", "y"),
    "or": ("|", "∨", "o", "ó"),
    "implies": ("->", "=>", "⇒"),
}


def print_monadic(tree, rng: Random) -> str:
    out: list[str] = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        op = item[0]
        if op == "pred":
            out.append(f"{item[1]}({item[2]})")
        elif op == "not":
            out.append(rng.choice(M_SPELLINGS["not"]) + " ")
            stack.append(item[1])
        elif op in ("forall", "exists"):
            out.append(f"({op} {item[1]}. ")
            stack.extend((")", item[2]))
        else:
            stack.extend((")", item[2], f" {rng.choice(M_SPELLINGS[op])} ", item[1]))
            out.append("(")
    return "".join(out)


def monadic_predicates(tree) -> list[str]:
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[0] == "pred":
            names.add(node[1])
        elif node[0] in ("forall", "exists"):
            stack.append(node[2])
        else:
            stack.extend(node[1:])
    return sorted(names)


def is_nnf(tree) -> bool:
    """Negations sit only on predicate applications; no implication remains."""
    stack = [tree]
    while stack:
        node = stack.pop()
        op = node[0]
        if op == "implies":
            return False
        if op == "not":
            if node[1][0] != "pred":
                return False
        elif op in ("forall", "exists"):
            stack.append(node[2])
        elif op in ("and", "or"):
            stack.extend(node[1:])
    return True


def eval_monadic(tree, size: int, extensions: dict[str, int], env=None) -> bool:
    """Truth in the model with universe ``range(size)``; ``extensions`` maps
    each predicate to a bit set of its members."""
    env = env or {}
    op = tree[0]
    if op == "pred":
        return bool(extensions[tree[1]] >> env[tree[2]] & 1)
    if op == "not":
        return not eval_monadic(tree[1], size, extensions, env)
    if op == "and":
        return eval_monadic(tree[1], size, extensions, env) and eval_monadic(
            tree[2], size, extensions, env
        )
    if op == "or":
        return eval_monadic(tree[1], size, extensions, env) or eval_monadic(
            tree[2], size, extensions, env
        )
    if op == "implies":
        return (not eval_monadic(tree[1], size, extensions, env)) or eval_monadic(
            tree[2], size, extensions, env
        )
    body, var = tree[2], tree[1]
    values = (eval_monadic(body, size, extensions, {**env, var: e}) for e in range(size))
    return all(values) if op == "forall" else any(values)


def small_models(predicates, max_size: int = 2):
    """Every model over ``predicates`` with a universe of at most ``max_size``."""
    for size in range(max_size + 1):
        for code in range(1 << (size * len(predicates))):
            yield size, {
                name: code >> (i * size) & ((1 << size) - 1)
                for i, name in enumerate(predicates)
            }


def negation_agrees(original, negated, max_size: int = 2) -> bool:
    """``negated`` is true exactly where ``original`` is false, on every model
    up to ``max_size`` elements."""
    predicates = sorted(set(monadic_predicates(original)) | set(monadic_predicates(negated)))
    return all(
        eval_monadic(negated, size, ext) != eval_monadic(original, size, ext)
        for size, ext in small_models(predicates, max_size)
    )


# --- Syllogisms by region masks ----------------------------------------------

#: The classical answers: (valid without existential import, valid with it).
CLASSICAL_MOODS = {
    "barbara": (True, True),
    "celarent": (True, True),
    "darii": (True, True),
    "ferio": (True, True),
    "cesare": (True, True),
    "camestres": (True, True),
    "festino": (True, True),
    "baroco": (True, True),
    "darapti": (False, True),
    "felapton": (False, True),
}


def _regions(names, subject: str, predicate: str, want_predicate: bool) -> int:
    s, p = 1 << names.index(subject), 1 << names.index(predicate)
    bits = 0
    for region in range(8):
        if region & s and bool(region & p) == want_predicate:
            bits |= 1 << region
    return bits


def form_holds(form, names, inhabited: int) -> bool:
    """Truth of ``(kind, subject, predicate)`` when the regions in the bit
    set ``inhabited`` each hold one element."""
    kind, subject, predicate = form
    if kind in ("all", "some-not"):
        witnesses = _regions(names, subject, predicate, False)
    else:
        witnesses = _regions(names, subject, predicate, True)
    found = bool(inhabited & witnesses)
    return found if kind in ("some", "some-not") else not found


def syllogism_search(major, minor, conclusion, existential_import: bool):
    """(valid, first counter region mask or None, canonical models visited)."""
    names = sorted({major[1], major[2], minor[1], minor[2], conclusion[1], conclusion[2]})
    visited = 0
    for inhabited in range(256):
        if existential_import and not all(
            any(inhabited >> r & 1 and r >> bit & 1 for r in range(8)) for bit in range(3)
        ):
            continue
        visited += 1
        if (
            form_holds(major, names, inhabited)
            and form_holds(minor, names, inhabited)
            and not form_holds(conclusion, names, inhabited)
        ):
            return False, inhabited, visited
    return True, None, visited


def model_of(names, inhabited: int) -> tuple[int, dict[str, list[int]]]:
    """The canonical model of a region mask: one element per inhabited
    region, in ascending region order."""
    regions = [r for r in range(8) if inhabited >> r & 1]
    return len(regions), {
        name: [i for i, r in enumerate(regions) if r >> bit & 1]
        for bit, name in enumerate(names)
    }


# --- Jugs ---------------------------------------------------------------------


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x·a + y·b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def min_plan_length(n: int, m: int, target: int) -> int:
    """Least |x| + |y| with x·n + y·m = target (target a multiple of gcd)."""
    g, x, y = extended_gcd(n, m)
    k = target // g
    x, y = x * k, y * k
    step_x, step_y = m // g, n // g
    # |x + t·step_x| + |y − t·step_y| is convex in t; its minimum lies at an
    # integer next to one of the two roots.
    candidates = set()
    for root in (-x / step_x, y / step_y):
        candidates.update((math.floor(root), math.ceil(root)))
    return min(abs(x + t * step_x) + abs(y - t * step_y) for t in candidates)


def certificate_length(n: int, m: int, target: int) -> int:
    """Length of the all-additions-first plan built from the canonical Bézout
    certificate (0 ≤ a < m/g); used to pick inputs of a given size."""
    g, x, _ = extended_gcd(n, m)
    period = m // g
    adds_n = (target // g) * (x % period) % period
    return adds_n + abs(target - adds_n * n) // m


def search_ceiling(n: int, m: int, target: int) -> int:
    """Highest running total a shortest-plan search must consider."""
    g, x, _ = extended_gcd(n, m)
    period = m // g
    adds_n = (target // g) * (x % period) % period
    return max(target, adds_n * n, 2 * max(n, m))


def replay(runs, n: int, m: int) -> int | None:
    """Final amount after ``(is_add, capacity, count)`` runs, or None when a
    run uses a foreign capacity or drives the total below zero."""
    total = 0
    for is_add, capacity, count in runs:
        if capacity != n and capacity != m:
            return None
        total += capacity * count if is_add else -capacity * count
        if total < 0:
            return None
    return total
