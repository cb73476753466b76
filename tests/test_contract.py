"""The output contract, pinned by digest.

Each family below is a fixed list of argvs for one command: answers,
errors and every bound at its limit and one past it.  Every argv runs as
written (text) and with ``--format json`` before and after the subcommand,
and ``contract_digest`` hashes each run's (argv, exit code, stdout, stderr)
into one SHA-256 per family.  A change that alters no output leaves every
digest as committed in ``DIGESTS``; a change that alters output on purpose
updates the digests of the families it touches in the same commit.
"""

from __future__ import annotations

from itertools import islice, product

import pytest
from helpers import contract_digest

from deduce import categorical, jugs, rules
from deduce.cli import TABLE_MAX_ATOMS
from deduce.logic import MAX_ATOMS

_LEAVES = ["P", "Q", "R"]
_NOT = ["¬", "!", "~", "no"]
_BINARY = ["y", "&", "∧", "o", "ó", "|", "∨", "⇒", "->", "=>", "⇔", "<->", "<=>"]

#: Text every parse error kind comes from: unknown characters, missing and
#: unexpected tokens, reserved words, lowercase names and the other grammar.
_MALFORMED = [
    "", " ", "P y", "(P", "P)", "()", "P Q", "¬", "y", "P -> -> Q", "P @ Q",
    "p", "Ñ", "P.", "forall x. P(x)", "P(x)", "P <=>", "X1 &", "((P)", "P ó ó Q",
    "1", "P,Q", "P ⇐ Q", "no no", "P\tQ", "A" * 50 + " @",
]

#: One atom chain at each atom limit and one past it.
_CHAINS = {
    count: " & ".join(f"A{i}" for i in range(count))
    for count in (TABLE_MAX_ATOMS, TABLE_MAX_ATOMS + 1, MAX_ATOMS, MAX_ATOMS + 1)
}
_DEEP = ["¬" * 2000 + "P", "(" * 2000 + "P" + ")" * 2000]


def _formulas() -> list[str]:
    """Every connective between two leaves, negated in every spelling, and a
    few nestings of three leaves."""
    pairs = [f"{a} {op} {b}" for op in _BINARY for a, b in product(_LEAVES, repeat=2)]
    negated = [f"{no} ({pair})" for no, pair in zip(_NOT * len(pairs), pairs)]
    nested = [
        f"({a} {left} {b}) {right} ¬{c}"
        for left, right in product(_BINARY[::3], repeat=2)
        for a, b, c in islice(product(_LEAVES, repeat=3), 0, 27, 4)
    ]
    return _LEAVES + pairs + negated + nested


_FORMULAS = _formulas()
_SHORT = _FORMULAS[:: len(_FORMULAS) // 40]


def _forms() -> list[str]:
    kinds = [kind.value for kind in categorical.FormKind]
    return [f"{kind}:{s}:{p}" for kind, s, p in product(kinds, "ABC", "ABC")]


_FORMS = _forms()
_BAD_FORMS = ["", "all:A", "every:A:B", "all:a:B", "all:A:B:C", "some-not:A:"]
_IMPORT = [[], ["--existential-import"]]

#: Argument spellings at and around each end of a ``jugs`` option: its least
#: value, one below it, its largest, one above it, and the digit limit on
#: ``int()`` (4300 digits convert, 4301 do not).
_DIGITS = ["9" * 4300, "9" * 4301]


def _ends(least: int, largest: int) -> list[str]:
    return [str(least - 1), str(least), str(largest), str(largest + 1), *_DIGITS]


def _jugs(command: str, options: dict[str, int], ends: dict[str, list[str]]) -> list[list[str]]:
    """``jugs command`` with ``options``, then with one option at a time
    moved to each of its ``ends``."""
    def argv(values):
        return ["jugs", command, *(arg for pair in values.items() for arg in pair)]

    base = {name: str(value) for name, value in options.items()}
    return [
        argv(base),
        *(argv({**base, name: spelling}) for name, spellings in ends.items() for spelling in spellings),
    ]


_CAPACITY = _ends(1, jugs.MAX_CAPACITY)
_SMALL = range(1, 13)

FAMILIES: dict[str, list[list[str]]] = {
    "classify": [
        ["classify", text]
        for text in [*_FORMULAS, *_MALFORMED, *_CHAINS.values(), *_DEEP]
    ],
    "table": [
        ["table", text]
        for text in [*_SHORT, *_MALFORMED, _CHAINS[TABLE_MAX_ATOMS], _CHAINS[TABLE_MAX_ATOMS + 1]]
    ],
    "equiv": [
        ["equiv", left, right]
        for left, right in [
            *product(_SHORT[::2], repeat=2),
            *product(_MALFORMED[:6], _SHORT[:2]),
            *product(_SHORT[:2], _MALFORMED[:6]),
            (_CHAINS[MAX_ATOMS], "A0"),
            (_CHAINS[MAX_ATOMS + 1], "A0"),
        ]
    ],
    "entail": [
        ["entail", *(arg for premise in premises for arg in ("--premise", premise)),
         "--conclusion", conclusion]
        for premises, conclusion in [
            *(((), text) for text in _SHORT),
            *(((left,), right) for left, right in product(_SHORT[::3], repeat=2)),
            *(((a, b), c) for a, b, c in product(_SHORT[::8], repeat=3)),
            *(((text,), "P") for text in _MALFORMED),
            *(((), text) for text in _MALFORMED),
            ((), _CHAINS[MAX_ATOMS]),
            ((), _CHAINS[MAX_ATOMS + 1]),
        ]
    ],
    "rules": [
        ["rules", "list"],
        *(
            ["rules", command, name]
            for command in ("show", "verify")
            for name in [
                *(schema.name for schema in rules.registry()),
                "MODUS-PONENS", "modus_ponens", "frobnicate", "",
            ]
        ),
    ],
    "syllogism list and check": [
        ["syllogism", "list"],
        *(
            ["syllogism", "check", name, *flag]
            for name in [
                *(name for name, _ in categorical.registry_syllogisms()),
                "DARAPTI", "Barbara", "barbarb", "",
            ]
            for flag in _IMPORT
        ),
    ],
    # Every 41st form triple over {A, B, C}, and malformed forms.
    "syllogism custom": [
        ["syllogism", "custom", *forms, *flag]
        for forms in [
            *islice(product(_FORMS, repeat=3), 0, None, 41),
            *((bad, "all:A:B", "all:B:C") for bad in _BAD_FORMS),
            ("all:A:B", "all:B:C", "all:C:D"),
            ("all:A:A", "all:A:A", "all:A:A"),
        ]
        for flag in _IMPORT
    ],
    "quant negate": [
        ["quant", "negate", text]
        for text in [
            *(
                f"{q} x. {body}"
                for q in ("forall", "exists")
                for body in [
                    "P(x)", "~P(x)", "P(x) -> Q(x)", "P(x) & ~Q(x)", "P(x) | Q(x)",
                    "exists z. P(x) & Q(z)", "forall z. ~(P(z) -> Q(x))",
                ]
            ),
            "P(x)", "forall x. P(z)", "forall x. P(x) <-> Q(x)", "forall y. P(y)",
            *_MALFORMED,
            "forall x. " * 500 + "P(x)",
            "~" * 2000 + "forall x. P(x)",
        ]
    ],
    "jugs gcd": [
        *(["jugs", "gcd", "--n", str(n), "--m", str(m)] for n in _SMALL for m in range(13)),
        *_jugs("gcd", {"--n": 12, "--m": 18},
               {"--n": _CAPACITY, "--m": _ends(0, jugs.MAX_CAPACITY)}),
    ],
    "jugs bezout": [
        *(["jugs", "bezout", "--n", str(n), "--m", str(m)] for n in _SMALL for m in _SMALL),
        *_jugs("bezout", {"--n": 12, "--m": 18}, {"--n": _CAPACITY, "--m": _CAPACITY}),
    ],
    "jugs amounts": [
        *(
            ["jugs", "amounts", "--n", str(n), "--m", str(m), "--limit", str(limit)]
            for n in _SMALL for m in _SMALL for limit in (1, 12)
        ),
        *_jugs("amounts", {"--n": 12, "--m": 18, "--limit": 30},
               {"--n": _CAPACITY, "--m": _CAPACITY, "--limit": _ends(1, jugs.MAX_LIMIT)}),
    ],
    "jugs plan": [
        *(
            ["jugs", "plan", "--n", str(n), "--m", str(m), "--target", str(target),
             "--strategy", strategy]
            for n in _SMALL for m in _SMALL for target in (1, 5, 12)
            for strategy in ("certificate", "shortest")
        ),
        *_jugs("plan", {"--n": 1, "--m": 2, "--target": 1},
               {"--n": _CAPACITY, "--m": _CAPACITY, "--target": _ends(1, jugs.MAX_TARGET)}),
        ["jugs", "plan", "--n", str(jugs.MAX_CAPACITY), "--m", str(jugs.MAX_CAPACITY - 1),
         "--target", "1"],
        # One action past the plan length limit: text prints its one run, and
        # JSON, which would list the actions, is refused before any is built.
        ["jugs", "plan", "--n", "1", "--m", "1", "--target", str(jugs.MAX_PLAN_LENGTH + 1)],
    ],
}

#: Runs only as written.  A plan at the length limit is hashed in text alone,
#: which prints its runs: its 10^7 actions listed in JSON are 300 MB of
#: output to capture in process.  ``tests/test_limits.py`` lists them in a
#: child process.
TEXT_ONLY: dict[str, list[list[str]]] = {
    "jugs plan at the length limit": [
        ["jugs", "plan", "--n", "1", "--m", "1", "--target", str(jugs.MAX_PLAN_LENGTH),
         "--strategy", strategy]
        for strategy in ("certificate", "shortest")
    ],
}

DIGESTS = {
    "classify": "3387f2242ca3497afc3e92ec7d784005cb57b47f6101b351ff1b5c274ac6d18f",
    "table": "249c64556ade3362a324a930bde42777f4f40bf3d4cef266791a09ec7e7aba62",
    "equiv": "e8f95550afd45bc2e4368498e31d79ed0ea2437474bc1448bbef5d16b10cd7f8",
    "entail": "2f3c3165dc8b0332c1586d95240be1382c20c4513227d3f061f3b9e80527e803",
    "rules": "b8b76c8bae9fd6130990a13096aba917d3ba2dfd6ab41d97f28c9f8b3d0e435e",
    "syllogism list and check": "109bf74b51d2e6ea33c42ae4e25426eb75febe06a1c2232c245f9b502d08a24e",
    "syllogism custom": "399de95d78d40f409aee24c973688c250bd6a557b5bb261443931dbaed200466",
    "quant negate": "9d2a2f43175d3030764698ca7d7b0cd7b0e765d119f5609c1ef1e59b5dd7c83e",
    "jugs gcd": "d664bfda89663275d3ef161d9736316e042bda6c8d663f132edb636404b88acb",
    "jugs bezout": "a02c444fbd2d1555dd579a3e8786721e6a129f93dc194e35b49f3b6400accd56",
    "jugs amounts": "03c43783becdcdcc7823347b3a6def6e82ed7fbc7cc0f6d0d5be08700d621494",
    "jugs plan": "bc32ac434da9cf4df475225e5bfca4e5987c47406e2f9435848f10362eb2f7be",
    "jugs plan at the length limit": "3ebae1a504e0cfe40f2f89646f171042f54f38a77c3ceb0c1b94f3f82c64c15d",
}


def _formats(argv: list[str]) -> list[list[str]]:
    """``argv`` in text, and in JSON with the flag before and after the
    subcommand."""
    return [argv, ["--format", "json", *argv], [*argv, "--format", "json"]]


def family_runs(name: str) -> list[list[str]]:
    if name in TEXT_ONLY:
        return TEXT_ONLY[name]
    return [run for argv in FAMILIES[name] for run in _formats(argv)]


def test_every_family_has_a_digest():
    assert sorted(DIGESTS) == sorted([*FAMILIES, *TEXT_ONLY])


@pytest.mark.parametrize("name", [*FAMILIES, *TEXT_ONLY])
def test_output_matches_the_committed_digest(name):
    assert contract_digest(family_runs(name)) == DIGESTS[name], (
        f"the output of the {name!r} family changed"
    )
