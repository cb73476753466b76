import argparse
import ast
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from deduce import categorical, cli, jugs, logic, rules
from deduce._limits import (
    ATOMS, GCD_LEAST_M, LIMIT, PLAN_LENGTH, TABLE_ATOMS, VALUES, refusal,
)
from deduce.cli import build_parser, main
from deduce.logic import prop
from deduce.parser import ParseError, Style, format_formula, parse
from helpers import (
    atom_names,
    child_env,
    formula_strategy,
    reference_build_parser,
    reference_table_json,
    reference_table_lines,
    run_main,
)

EXPECTED_TABLE = """\
P  Q  P y Q
V  V  V
V  F  F
F  V  F
F  F  F
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    envelope = json.loads(out)
    assert set(envelope) == {"status", "command", "result", "counterexample"}
    return code, envelope, err


# 13 atoms: the first 4,096-row block has A0 = V, the second A0 = F.
_THIRTEEN = sorted(f"A{i}" for i in range(13))


def _thirteen(value: str) -> str:
    return "contingente\ncontraejemplo: " + " ".join(f"{name}={value}" for name in _THIRTEEN) + "\n"


class TestClassify:
    # Symbols glued to their neighbours, and the biconditionals whose
    # spellings hold the conditional's.
    @pytest.mark.parametrize("text", ["P ó ¬P", "P<->P", "P<=>P"])
    def test_tautology_exits_zero(self, capsys, text):
        code, out, _ = run(capsys, "classify", text)
        assert code == 0
        assert out == "tautología\n"

    def test_contradiction_exits_one(self, capsys):
        code, out, _ = run(capsys, "classify", "P y ¬P")
        assert code == 1
        assert out.splitlines()[0] == "contradicción"

    @pytest.mark.parametrize(
        "text,printed",
        [
            ("P => Q", "contingente\ncontraejemplo: P=V Q=F\n"),
            # False only at the last row: the scan reaches the second block.
            (" | ".join(_THIRTEEN), _thirteen("F")),
            # False throughout the first block and true in the second:
            # classify reads on past the first false row.
            ("!A0 & (" + " | ".join(_THIRTEEN[1:]) + ")", _thirteen("V")),
        ],
        ids=["two-atoms", "false-at-the-last-row", "true-in-the-second-block"],
    )
    def test_contingent_reports_counterexample(self, capsys, text, printed):
        code, out, _ = run(capsys, "classify", text)
        assert code == 1
        assert out == printed

    def test_json_envelope(self, capsys):
        code, envelope, _ = run_json(capsys, "classify", "P ó ¬P")
        assert code == 0
        assert envelope["status"] == "ok"
        assert envelope["command"] == "classify"
        assert envelope["result"] == {
            "formula": "P | !P",
            "classification": "tautology",
        }
        assert envelope["counterexample"] is None

    def test_json_counterexample_on_exit_one(self, capsys):
        code, envelope, _ = run_json(capsys, "classify", "P -> Q")
        assert code == 1
        assert envelope["status"] == "invalid"
        assert envelope["counterexample"] == {"P": True, "Q": False}


# Atom names one to six characters long, so that the atom columns are as
# wide as their cells or wider, and the formula's header ranges from one
# letter (a bare atom) to many times a cell's width.
_TABLE_NAMES = ("P", "Q", "Llueve", "X12", "Sol", "Nieva", "Z", "R2", "Hace", "T")
_BINARIES = (logic.Or, logic.And, logic.Implies, logic.Iff)


# Names whose string order differs from their numeric order: P10 < P2.
_NUMBERED_NAMES = ("P1", "P2", "P10", "P11")
#: Enough names for the widest table.
_WIDE_NAMES = (*_TABLE_NAMES, *_NUMBERED_NAMES, "Luna", "P20")


@st.composite
def _table_cases(draw, pool, max_atoms, min_atoms=1):
    """A formula over exactly ``min_atoms``-``max_atoms`` atoms of ``pool``,
    and a style to write it in."""
    names = draw(
        st.lists(st.sampled_from(pool), min_size=min_atoms, max_size=max_atoms, unique=True)
    )
    formula = draw(formula_strategy(names, max_leaves=10))
    for name in names:
        if name not in atom_names(formula):
            formula = draw(st.sampled_from(_BINARIES))(formula, prop(name))
    return formula, draw(st.sampled_from(list(Style)))


class TestTable:
    def test_conjunction_matches_the_classic_layout(self, capsys):
        code, out, _ = run(capsys, "table", "P y Q")
        assert code == 0
        assert out == EXPECTED_TABLE

    def test_json_rows_use_booleans(self, capsys):
        code, envelope, _ = run_json(capsys, "table", "P y Q")
        assert code == 0
        rows = envelope["result"]["rows"]
        assert rows[0] == {"valuation": {"P": True, "Q": True}, "value": True}
        assert len(rows) == 4
        assert envelope["result"]["formula"] == "P & Q"

    def test_refuses_an_oversized_table_before_building_rows(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the table was scanned")

        monkeypatch.setattr(logic, "_run", unreachable)
        monkeypatch.setattr(logic, "truth_table", unreachable)
        wide = " ó ".join(f"A{i}" for i in range(TABLE_ATOMS.most + 1))
        code, out, err = run(capsys, "table", wide)
        assert (code, out) == (2, "")
        assert err == "error: atom count is 17; the limit is 16 (logic.MAX_TABLE_ATOMS)\n"

    @pytest.mark.parametrize("output", [[], ["--format", "json"]], ids=["text", "json"])
    def test_compiles_its_formula_once(self, capsys, monkeypatch, output):
        calls = []
        compile_ = logic._compile
        monkeypatch.setattr(logic, "_compile", lambda formula: calls.append(1) or compile_(formula))
        assert run(capsys, "table", "P y Q", *output)[0] == 0
        assert len(calls) == 1

    def test_the_widest_table_prints_every_row(self, capsys):
        names = [f"A{i}" for i in range(TABLE_ATOMS.most)]
        widest = " ó ".join(names)
        code, out, _ = run(capsys, "table", widest)
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == (1 << TABLE_ATOMS.most) + 1 == 65_537
        # Columns are alphabetical: A0, A1, A10, ..., A15, A2, ..., A9.
        assert lines[0] == "  ".join(sorted(names)) + "  " + widest
        assert lines[1] == "  ".join(["V "] * 2 + ["V  "] * 6 + ["V "] * 8 + ["V"])
        assert lines[-1] == "  ".join(["F "] * 2 + ["F  "] * 6 + ["F "] * 8 + ["F"])

    def test_a_first_item_longer_than_a_batch_keeps_the_rest(self):
        # A batch is sized by its first item: the header in text, the first
        # row in JSON.
        header = "P  " + "¬" * 70_000 + "P"
        assert run_main(["table", "~" * 70_000 + "P"]) == (0, f"{header}\nV  V\nF  F\n", "")
        long_names = "A" * 40_000 + " y " + "B" * 40_000
        code, out, err = run_main(["table", long_names, "--format", "json"])
        assert (code, err) == (0, "")
        rows = json.loads(out)["result"]["rows"]
        assert [row["value"] for row in rows] == [True, False, False, False]

    @given(_table_cases(_TABLE_NAMES + _NUMBERED_NAMES, max_atoms=10))
    @settings(max_examples=60, deadline=None)
    def test_output_matches_the_row_by_row_oracles(self, case):
        self.check_against_the_row_by_row_oracles(case)

    @given(_table_cases(_WIDE_NAMES, min_atoms=13, max_atoms=TABLE_ATOMS.most))
    @settings(max_examples=3, deadline=None)
    def test_output_over_several_blocks_matches_the_row_by_row_oracles(self, case):
        # Two to sixteen blocks of 4,096 rows, each rendered on its own.
        self.check_against_the_row_by_row_oracles(case)

    @staticmethod
    def check_against_the_row_by_row_oracles(case):
        # Text against the measured grid, and JSON byte for byte against
        # ``json.dumps`` of one dict per row.
        formula, style = case
        text = format_formula(formula, style)
        want = "\n".join(reference_table_lines(formula)) + "\n"
        assert run_main(["table", text]) == (0, want, "")
        want = reference_table_json(formula)
        code, out, err = run_main(["table", text, "--format", "json"])
        assert (code, out.encode(), err) == (0, want.encode(), "")


_TOO_WIDE = " ó ".join(f"A{i}" for i in range(ATOMS.most + 1))
_OVER_THE_ATOM_LIMIT = [
    ["classify", _TOO_WIDE],
    ["equiv", _TOO_WIDE, "A0"],
    ["entail", "--premise", _TOO_WIDE, "--conclusion", "A0"],
]


@pytest.mark.parametrize(
    "argv", _OVER_THE_ATOM_LIMIT, ids=[argv[0] for argv in _OVER_THE_ATOM_LIMIT]
)
def test_a_refusal_over_the_atom_limit_names_the_limit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: atom count is 25; the limit is 24 (logic.MAX_ATOMS)\n")


class TestEquiv:
    def test_equivalent_pair(self, capsys):
        code, out, _ = run(capsys, "equiv", "P -> Q", "¬P ó Q")
        assert code == 0
        assert out == "equivalentes\n"

    def test_inequivalent_pair_exits_one(self, capsys):
        code, out, _ = run(capsys, "equiv", "P", "Q")
        assert code == 1
        assert out.startswith("no equivalentes\ncontraejemplo: ")

    def test_json_counterexample(self, capsys):
        code, envelope, _ = run_json(capsys, "equiv", "P", "Q")
        assert code == 1
        assert envelope["counterexample"] == {"P": True, "Q": False}
        assert envelope["result"]["equivalent"] is False


class TestRules:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "rules", "list")
        assert code == 0
        names = out.splitlines()
        assert len(names) == 8
        assert names[0] == "modus-ponens"
        assert names[-1] == "exportacion"

    def test_show(self, capsys):
        code, out, _ = run(capsys, "rules", "show", "modus-ponens")
        assert code == 0
        assert out.splitlines() == [
            "modus-ponens",
            "patrón: (P ⇒ Q) y P ⇒ Q",
            "metavariables: P Q",
        ]

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "rules", "verify", "dilema-destructivo")
        assert code == 0
        assert out == "tautología\n"

    def test_unknown_rule_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "rules", "verify", "no-such-rule")
        assert code == 2
        assert out == ""
        assert "no-such-rule" in err

    @pytest.mark.parametrize(
        "source,classification,text,counter",
        [
            ("(P ⇒ Q) ⇒ Q", "contingent", "contingente\ncontraejemplo: P=F Q=F\n",
             {"P": False, "Q": False}),
            ("P y ¬P", "contradiction", "contradicción\ncontraejemplo: P=V\n", {"P": True}),
        ],
        ids=["contingent", "contradiction"],
    )
    def test_verify_refutes_a_pattern_that_is_no_tautology(
        self, capsys, monkeypatch, source, classification, text, counter
    ):
        # The eight named patterns are tautologies: this one stands in for a
        # wrong entry, which the first falsifying row refutes.
        pattern = parse(source)
        schema = rules.RuleSchema("modus-ponens", logic.atoms(pattern), pattern)
        monkeypatch.setitem(rules._BY_NAME, "modus-ponens", schema)
        assert run(capsys, "rules", "verify", "modus-ponens") == (1, text, "")
        code, envelope, err = run_json(capsys, "rules", "verify", "modus-ponens")
        assert (code, err) == (1, "")
        assert envelope == {
            "status": "invalid",
            "command": "rules verify",
            "result": {"name": "modus-ponens", "classification": classification},
            "counterexample": counter,
        }

    @pytest.mark.parametrize(
        "argv,scans",
        [
            (["rules", "list"], 0),
            (["rules", "show", "modus-ponens"], 0),
            (["rules", "verify", "modus-ponens"], 1),
            (["entail", "--premise", "P", "--conclusion", "P | Q"], 1),
        ],
        ids=["list", "show", "verify", "entail"],
    )
    def test_a_process_scans_only_for_its_answer(self, argv, scans):
        # Importing the registry only parses its patterns.
        done = subprocess.run(
            [sys.executable, "-c", _SCAN_PROBE, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == f"0 {scans}"


# Counts ``logic._scan`` calls in a fresh interpreter: those that importing
# ``deduce.rules`` makes, then all that running the command has made.
_SCAN_PROBE = """
import sys
from deduce import logic
scans = []
scan = logic._scan
logic._scan = lambda *args, **kwargs: scans.append(args) or scan(*args, **kwargs)
import deduce.rules
imported = len(scans)
import deduce.cli
deduce.cli.main(sys.argv[1:])
print(imported, len(scans))
"""


class TestEntail:
    def test_valid_chain(self, capsys):
        code, out, _ = run(
            capsys,
            "entail",
            "--premise",
            "Llueve => Mojado",
            "--premise",
            "Llueve",
            "--conclusion",
            "Mojado",
        )
        assert code == 0
        assert out == "válido\n"

    def test_invalid_with_countervaluation(self, capsys):
        code, envelope, _ = run_json(
            capsys,
            "entail",
            "--premise",
            "Llueve => Mojado",
            "--premise",
            "Mojado",
            "--conclusion",
            "Llueve",
        )
        assert code == 1
        assert envelope["counterexample"] == {"Llueve": False, "Mojado": True}

    def test_no_premises_checks_tautology(self, capsys):
        code, _, _ = run(capsys, "entail", "--conclusion", "P ó ¬P")
        assert code == 0


class TestSyllogism:
    def test_list_has_ten_moods(self, capsys):
        code, out, _ = run(capsys, "syllogism", "list")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0] == "barbara: si todo M es B y todo A es M entonces todo A es B"

    def test_barbara_is_valid(self, capsys):
        code, out, _ = run(capsys, "syllogism", "check", "barbara")
        assert code == 0
        assert out == "válido\n"

    def test_darapti_without_import(self, capsys):
        code, out, _ = run(capsys, "syllogism", "check", "darapti")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "inválido"
        assert lines[1].startswith("contramodelo: ")
        assert "M={}" in lines[1]
        assert lines[2] == "nota: válido con import existencial (--existential-import)"

    def test_darapti_with_import(self, capsys):
        code, out, _ = run(
            capsys, "syllogism", "check", "darapti", "--existential-import"
        )
        assert code == 0
        assert out == "válido\n"

    def test_counter_model_is_machine_readable(self, capsys):
        code, envelope, _ = run_json(capsys, "syllogism", "check", "felapton")
        assert code == 1
        counter = envelope["counterexample"]
        assert counter["extensions"]["M"] == []
        assert envelope["result"]["valid_with_existential_import"] is True

    @pytest.mark.parametrize("existential_import", [False, True])
    @pytest.mark.parametrize(
        "name", [name for name, _ in categorical.registry_syllogisms()]
    )
    def test_valid_with_existential_import_matches_the_import_search(
        self, capsys, name, existential_import
    ):
        flags = ["--existential-import"] if existential_import else []
        _, envelope, _ = run_json(capsys, "syllogism", "check", name, *flags)
        expected = categorical.valid_syllogism(categorical.get_syllogism(name), True)
        assert envelope["result"]["valid_with_existential_import"] is expected.valid

    def test_custom_mood(self, capsys):
        code, out, _ = run(
            capsys, "syllogism", "custom", "all:M:B", "all:A:M", "all:A:B"
        )
        assert code == 0
        assert out == "válido\n"

    @pytest.mark.parametrize("conclusion", ["some:A:B", "some-not:A:B"])
    def test_custom_invalid_mood(self, capsys, conclusion):
        code, out, _ = run(capsys, "syllogism", "custom", "all:M:B", "all:A:M", conclusion)
        assert code == 1

    def test_malformed_custom_form_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "syllogism", "custom", "every:M:B", "all:A:M", "all:A:B")
        assert code == 2
        assert "every:M:B" in err


class TestQuant:
    @pytest.mark.parametrize("text", ["forall x. P(x) -> Q(x)", "forall x.P(x)->Q(x)"])
    def test_negate_universal_conditional(self, capsys, text):
        code, out, _ = run(capsys, "quant", "negate", text)
        assert code == 0
        assert out == "exists x. P(x) & ~Q(x)\n"

    def test_json_includes_both_formulas(self, capsys):
        code, envelope, _ = run_json(capsys, "quant", "negate", "exists x. P(x)")
        assert code == 0
        assert envelope["result"] == {
            "formula": "exists x. P(x)",
            "negation_nnf": "forall x. ~P(x)",
        }

    def test_open_formula_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "quant", "negate", "P(x)")
        assert code == 2
        assert "closed" in err


# Vessels and targets of the JSON plan tests.
_PLAN_CASES = [(3, 11, 1), (11, 3, 1), (7, 5, 4), (5, 7, 4), (6, 4, 2), (2, 6, 4), (4, 9, 25), (1, 1, 5)]


def _subparser(parser: argparse.ArgumentParser, *names: str) -> argparse.ArgumentParser:
    for name in names:
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        parser = subparsers.choices[name]
    return parser


def _per_action_plan_json(n: int, m: int, target: int, strategy: str) -> str:
    """The ``jugs plan`` JSON envelope with one freshly built entry per action."""
    pour_plan = jugs.plan(jugs.JugProblem(n, m, target), jugs.Strategy(strategy))
    actions = [
        {
            "action": "add" if isinstance(action, jugs.AddJug) else "remove",
            "capacity": action.capacity,
        }
        for action in pour_plan.actions
    ]
    result = {
        "n": n,
        "m": m,
        "target": target,
        "strategy": strategy,
        "achievable": True,
        "actions": actions,
        "length": len(actions),
    }
    envelope = {"status": "ok", "command": "jugs plan", "result": result, "counterexample": None}
    return json.dumps(envelope, sort_keys=True, ensure_ascii=True, separators=(",", ":")) + "\n"


class TestJugs:
    def test_gcd(self, capsys):
        code, out, _ = run(capsys, "jugs", "gcd", "--n", "3", "--m", "6")
        assert code == 0
        assert out == "3\n"

    def test_bezout(self, capsys):
        code, out, _ = run(capsys, "jugs", "bezout", "--n", "3", "--m", "11")
        assert code == 0
        assert out == "g=1 a=4 b=-1\n"

    def test_amounts(self, capsys):
        code, out, _ = run(
            capsys, "jugs", "amounts", "--n", "3", "--m", "6", "--limit", "12"
        )
        assert code == 0
        assert out == "3 6 9 12\n"

    def test_plan_groups_repeated_actions(self, capsys):
        code, out, _ = run(
            capsys, "jugs", "plan", "--n", "3", "--m", "11", "--target", "1"
        )
        assert code == 0
        assert out == "add 3 ×4; remove 11\n"

    def test_plan_shortest_strategy(self, capsys):
        code, out, _ = run(
            capsys,
            "jugs",
            "plan",
            "--n",
            "3",
            "--m",
            "6",
            "--target",
            "6",
            "--strategy",
            "shortest",
        )
        assert code == 0
        assert out == "add 6\n"

    def test_unachievable_plan_exits_one(self, capsys):
        code, envelope, _ = run_json(
            capsys, "jugs", "plan", "--n", "3", "--m", "6", "--target", "5"
        )
        assert code == 1
        assert envelope["status"] == "invalid"
        assert envelope["counterexample"] == {"gcd": 3}
        assert envelope["result"]["achievable"] is False

    def test_plan_text_builds_no_listing(self, capsys):
        # A JSON listing of these 10^7 actions would take some 168 MB.
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "jugs", "plan", "--n", "1", "--m", "1", "--target", "10000000"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, "add 1 ×10000000\n", "")
        assert peak < 5 << 20

    def test_plan_json_lists_actions(self, capsys):
        code, envelope, _ = run_json(
            capsys, "jugs", "plan", "--n", "3", "--m", "11", "--target", "1"
        )
        assert code == 0
        actions = envelope["result"]["actions"]
        assert actions[:1] == [{"action": "add", "capacity": 3}]
        assert actions[-1] == {"action": "remove", "capacity": 11}
        assert envelope["result"]["length"] == 5

    @pytest.mark.parametrize("strategy", ["certificate", "shortest"])
    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_plan_over_the_length_limit_is_refused(self, capsys, strategy, output_format):
        # Only JSON lists the actions, so only JSON is refused; text prints
        # the plan's one run.
        code, out, err = run(
            capsys,
            "jugs",
            "plan",
            "--n",
            "1",
            "--m",
            "1",
            "--target",
            "1000000000",
            "--strategy",
            strategy,
            "--format",
            output_format,
        )
        if output_format == "text":
            assert (code, out, err) == (0, "add 1 ×1000000000\n", "")
            return
        assert (code, out) == (2, "")
        assert err == (
            "error: plan length is 1000000000; the limit is 10000000 (jugs.MAX_PLAN_LENGTH)\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gcd", "--n", "x", "--m", "3"], "n is 'x'; the limit is 1 to 1000000"),
            (["gcd", "--n", "0", "--m", "3"], "n is 0; the limit is 1 to 1000000"),
            (["gcd", "--n", "1000001", "--m", "3"], "n is 1000001; the limit is 1 to 1000000"),
            (["gcd", "--n", "3", "--m", "-1"], "m is -1; the limit is 0 to 1000000"),
            (["gcd", "--n", "3", "--m", "1.5"], "m is '1.5'; the limit is 0 to 1000000"),
            (["plan", "--n", "3", "--m", "5", "--target", "-2"],
             "target is -2; the limit is 1 to 1000000000"),
            (["plan", "--n", "3", "--m", "5", "--target", "1000000001"],
             "target is 1000000001; the limit is 1 to 1000000000"),
            (["amounts", "--n", "3", "--m", "5", "--limit", "1000001"],
             "limit is 1000001; the limit is 1 to 1000000"),
        ],
    )
    def test_integer_argument_errors_name_the_value_the_bound_and_the_knob(
        self, capsys, argv, message
    ):
        # Both ends of a range are refused by argparse, with its usage line.
        code, out, err = run(capsys, "jugs", *argv)
        option = message.split()[0]
        knob = f"--{option}, {VALUES[option].name}"
        assert (code, out) == (2, "")
        assert err.startswith("usage: deduce jugs ")
        assert err.endswith(f"error: argument --{option}: {message} ({knob})\n")

    @pytest.mark.parametrize("digits", [4300, 4301])
    def test_integer_argument_at_the_digit_limit(self, capsys, digits):
        code, out, err = run(capsys, "jugs", "gcd", "--n", "9" * digits, "--m", "6")
        assert (code, out) == (2, "")
        assert err.startswith("usage: deduce jugs gcd ")
        assert len(err) < 300
        # Python 3.11+ refuses to convert more digits than this to an int:
        # such a value is quoted as text.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        shown = f"'{'9' * 40}'... ({digits} characters)"
        if not 0 < limit < digits:
            shown = f"{'9' * 40}... ({digits} digits)"
        tail = f"n is {shown}; the limit is 1 to 1000000 (--n, jugs.MAX_CAPACITY)\n"
        assert err.endswith(tail)

    def test_strategy_choices_are_the_strategy_values(self):
        plan_parser = _subparser(build_parser(), "jugs", "plan")
        (strategy,) = [a for a in plan_parser._actions if a.dest == "strategy"]
        assert list(strategy.choices) == [s.value for s in jugs.Strategy]
        assert strategy.default == jugs.Strategy.CERTIFICATE.value

    @pytest.mark.parametrize("strategy", ["certificate", "shortest"])
    @pytest.mark.parametrize("n,m,target", _PLAN_CASES)
    def test_plan_json_matches_a_per_action_encoding(self, capsys, strategy, n, m, target):
        argv = ["jugs", "plan", "--n", str(n), "--m", str(m), "--target", str(target)]
        code, out, _ = run(capsys, *argv, "--strategy", strategy, "--format", "json")
        assert code == 0
        assert out == _per_action_plan_json(n, m, target, strategy)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 60),
        st.sampled_from(["certificate", "shortest"]),
    )
    def test_plan_json_matches_a_per_action_encoding_anywhere(self, n, m, multiple, strategy):
        # Small targets over small vessels often end in a run of removals,
        # under either strategy.
        target = multiple * math.gcd(n, m)
        argv = ["jugs", "plan", "--n", str(n), "--m", str(m), "--target", str(target)]
        out = _per_action_plan_json(n, m, target, strategy)
        assert run_main([*argv, "--strategy", strategy, "--format", "json"]) == (0, out, "")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 200))
    def test_amounts_match_an_encoding_of_the_list(self, n, m, limit):
        amounts = jugs.achievable_amounts(n, m, limit)
        argv = ["jugs", "amounts", "--n", str(n), "--m", str(m), "--limit", str(limit)]
        text = " ".join(map(str, amounts)) + "\n" if amounts else ""
        assert run_main(argv) == (0, text, "")
        result = {"n": n, "m": m, "limit": limit, "amounts": amounts}
        envelope = {"status": "ok", "command": "jugs amounts", "result": result,
                    "counterexample": None}
        out = json.dumps(envelope, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
        assert run_main([*argv, "--format", "json"]) == (0, out + "\n", "")

    @pytest.mark.parametrize("strategy", list(jugs.Strategy))
    def test_plan_json_cases_include_two_runs_with_a_removal(self, strategy):
        # The cases above cover plans whose second run is a removal.
        removing = [
            (n, m, target)
            for n, m, target in _PLAN_CASES
            if isinstance(
                jugs.plan(jugs.JugProblem(n, m, target), strategy).actions[-1],
                jugs.RemoveJug,
            )
        ]
        assert len(removing) >= 2


class TestErrorsAndDeterminism:
    def test_parse_error_reports_span_on_stderr(self, capsys):
        code, out, err = run(capsys, "classify", "P y ó Q")
        assert code == 2
        assert out == ""
        assert "UnknownToken" in err
        assert "4..5" in err

    @pytest.mark.parametrize(
        "argv,text,read",
        [
            (["table", "P y ó Q"], "P y ó Q", parse),
            (["classify", "(P"], "(P", parse),
            (["classify", "P y ?"], "P y ?", parse),
            # '<' is a symbol only when '->' follows it directly.
            (["classify", "P< ->Q"], "P< ->Q", parse),
            (["equiv", "P", "P Q"], "P Q", parse),
            (["entail", "--premise", "P ->", "--conclusion", "P"], "P ->", parse),
            (["entail", "--premise", "P", "--conclusion", "P)"], "P)", parse),
            (["quant", "negate", "forall y. P(y)"], "forall y. P(y)", categorical.parse_monadic),
            (["quant", "negate", "forall x P(x)"], "forall x P(x)", categorical.parse_monadic),
        ],
        ids=[
            "table", "classify", "classify-unknown-character", "classify-split-arrow", "equiv",
            "entail-premise", "entail-conclusion", "quant-negate", "quant-negate-no-dot",
        ],
    )
    def test_every_parse_error_names_its_kind_and_span(self, argv, text, read):
        with pytest.raises(ParseError) as caught:
            read(text)
        exc = caught.value
        message = f"error: {exc.kind.value} at {exc.span.start}..{exc.span.end}: {exc.message}\n"
        assert run_main(argv) == (2, "", message)

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_format_flag_works_on_both_sides(self, capsys):
        code_before, out_before, _ = run(capsys, "--format", "json", "classify", "P")
        code_after, out_after, _ = run(capsys, "classify", "P", "--format", "json")
        assert code_before == code_after
        assert out_before == out_after

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "P ó Q"],
            ["classify", "P -> Q", "--format", "json"],
            ["syllogism", "check", "darapti", "--format", "json"],
            ["jugs", "plan", "--n", "7", "--m", "5", "--target", "4"],
            ["rules", "list", "--format", "json"],
        ],
    )
    def test_identical_argv_gives_identical_bytes(self, capsys, argv):
        first_code, first_out, _ = run(capsys, *argv)
        second_code, second_out, _ = run(capsys, *argv)
        assert first_code == second_code
        assert first_out == second_out

    def test_json_is_a_single_line_object(self, capsys):
        _, out, _ = run(capsys, "classify", "P", "--format", "json")
        assert out.count("\n") == 1
        json.loads(out)

    def test_too_many_atoms_is_a_usage_error(self, capsys):
        wide = " ó ".join(f"A{i}" for i in range(1, 27))
        code, _, err = run(capsys, "classify", wide)
        assert code == 2
        assert "limit" in err

    def test_classify_scans_once(self, capsys, monkeypatch):
        scans = []
        scan = logic._scan

        def counted(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(logic, "_scan", counted)
        code, out, _ = run(capsys, "classify", "P -> Q")
        assert (code, out) == (1, "contingente\ncontraejemplo: P=V Q=F\n")
        assert len(scans) == 1

    def test_syllogism_check_decides_once(self, capsys, monkeypatch):
        # Both verdicts, with and without import, come from one counter-model
        # mask.
        calls = []
        counter_models = categorical._counter_models

        def counted(*args, **kwargs):
            calls.append(args)
            return counter_models(*args, **kwargs)

        monkeypatch.setattr(categorical, "_counter_models", counted)
        code, out, _ = run(capsys, "syllogism", "check", "darapti")
        assert code == 1
        assert out.endswith("nota: válido con import existencial (--existential-import)\n")
        assert len(calls) == 1


class TestDeepInput:
    """Nesting depth costs no Python frame; these run at the default
    recursion limit."""

    @pytest.mark.parametrize(
        "text,printed",
        [
            ("¬" * 20_000 + "P", "!" * 20_000 + "P"),
            ("(" * 20_000 + "P" + ")" * 20_000, "P"),
        ],
        ids=["negations", "parentheses"],
    )
    def test_classify_answers_contingent(self, capsys, text, printed):
        code, out, err = run(capsys, "--format", "json", "classify", text)
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "status": "invalid",
            "command": "classify",
            "result": {"formula": printed, "classification": "contingent"},
            "counterexample": {"P": False},
        }


# Every connective spelling of both grammars, parentheses and the dot,
# names, applications, lowercase words, quantifiers and junk.  No piece
# starts an argparse option that prints help (no "-h", no "--h...").
_NOT = ["¬", "!", "~", "no"]
_BINARY = ["y", "&", "∧", "o", "ó", "|", "∨", "⇒", "->", "=>", "⇔", "<->", "<=>"]
_PIECES = _NOT + _BINARY + [
    "(", ")", ".", "P", "Q", "Foo", "X1", "P(x)", "Q(z)", "x", "z",
    "forall", "exists", "forall x.", "exists z.",
    "@", "#", "<", ",", "1", "Ñ", "óx", "-", "=", "⇐", "\t",
]
_JUNK = st.lists(
    st.tuples(st.sampled_from(_PIECES), st.sampled_from(["", " "])), max_size=10
).map(lambda pieces: "".join(piece + gap for piece, gap in pieces))


def _grammatical(leaves):
    """Well-formed text over ``leaves``, in any spelling and nesting."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(_NOT), inner).map(" ".join),
            st.tuples(inner, st.sampled_from(_BINARY), inner).map(" ".join),
            inner.map(lambda text: f"({text})"),
            st.tuples(st.sampled_from(["forall x.", "exists z."]), inner).map(" ".join),
        ),
        max_leaves=8,
    )


_TEXT = st.one_of(
    _JUNK,
    _grammatical(["P", "Q", "Foo", "X1"]),
    _grammatical(["P(x)", "Q(x)"]).map("forall x. ".__add__),
    st.tuples(_grammatical(["P", "Q(x)"]), _JUNK).map("".join),
)
_NAME = st.one_of(
    st.sampled_from(
        [schema.name for schema in rules.registry()]
        + [name for name, _ in categorical.registry_syllogisms()]
        + ["DARII", "modus_ponens", ""]
    ),
    _JUNK,
)
_CATEGORICAL = st.one_of(
    st.tuples(
        st.sampled_from(["all", "no", "some", "some-not", "every", ""]),
        st.sampled_from(["S", "M", "P", "x", ""]),
        st.sampled_from(["S", "M", "P", "P:Q"]),
    ).map(":".join),
    _JUNK,
)
_IMPORT_FLAG = st.sampled_from([[], ["--existential-import"]])

# The values each ``jugs`` command takes, in argv order, and the least of
# each where it is not its limit's.  Values are
# drawn at and around both ends of the range, and past Python's limit on
# the digits ``int()`` converts.
_JUG_OPTIONS = {
    "gcd": {"n": None, "m": GCD_LEAST_M},
    "bezout": {"n": None, "m": None},
    "amounts": {"n": None, "m": None, "limit": None},
    "plan": {"n": None, "m": None, "target": None},
}


def _range(subcommand: str, name: str) -> tuple[int, int]:
    least = _JUG_OPTIONS[subcommand][name]
    return VALUES[name].least if least is None else least, VALUES[name].most


def _jugs_command(subcommand: str):
    options = []
    for name in _JUG_OPTIONS[subcommand]:
        least, most = _range(subcommand, name)
        ends = [least - 1, least, most, most + 1, "9" * 4301]
        options.append(st.tuples(st.just(f"--{name}"), st.sampled_from(list(map(str, ends)))))
    if subcommand == "plan":
        strategies = st.sampled_from(["certificate", "shortest"])
        options.append(st.tuples(st.just("--strategy"), strategies))
    return st.tuples(*options).map(
        lambda pairs: ["jugs", subcommand, *(arg for pair in pairs for arg in pair)]
    )


def _value_refused(argv: list[str]) -> str | None:
    """The refusal of the first value of the ``jugs`` command ``argv`` that
    is out of its range, or None when every value is in range.  argparse
    converts the values in argv order, before the command runs."""
    subcommand = argv[1]
    for name in _JUG_OPTIONS[subcommand]:
        text = argv[argv.index(f"--{name}") + 1]
        least, most = _range(subcommand, name)
        try:
            value = int(text)
        except ValueError:
            value = text
        else:
            if least <= value <= most:
                continue
        return f"error: argument --{name}: {refusal(VALUES[name], name, value, least)}\n"
    return None


def _chain(count: int):
    """``count`` distinct atoms ``A0``, ``A1``, ... joined by random
    connectives."""
    gaps = count - 1
    connectives = st.lists(st.sampled_from(_BINARY), min_size=gaps, max_size=gaps)
    return connectives.map(
        lambda drawn: " ".join(["A0", *(f"{c} A{i}" for i, c in enumerate(drawn, 1))])
    )


# Chains at and one past the atom limit, and one past the table's; a full
# 16-atom table is left to its own test.
_WIDE = st.sampled_from([ATOMS.most, ATOMS.most + 1]).flatmap(_chain)
_CHAIN_COMMANDS = {"classify", "equiv", "entail", "table"}

_COMMANDS = st.one_of(
    st.tuples(st.just("classify"), _WIDE).map(list),
    st.tuples(st.just("equiv"), _WIDE, st.just("A0")).map(list),
    _WIDE.map(lambda chain: ["entail", "--conclusion", chain]),
    _chain(TABLE_ATOMS.most + 1).map(lambda chain: ["table", chain]),
    st.tuples(st.just("classify"), _TEXT).map(list),
    st.tuples(st.just("table"), _TEXT).map(list),
    st.tuples(st.just("equiv"), _TEXT, _TEXT).map(list),
    st.tuples(st.lists(_TEXT, max_size=3), _TEXT).map(
        lambda parts: ["entail"]
        + [arg for premise in parts[0] for arg in ("--premise", premise)]
        + ["--conclusion", parts[1]]
    ),
    st.tuples(st.just("quant"), st.just("negate"), _TEXT).map(list),
    st.just(["rules", "list"]),
    st.tuples(st.just("rules"), st.sampled_from(["show", "verify"]), _NAME).map(list),
    st.just(["syllogism", "list"]),
    st.tuples(st.just(["syllogism", "check"]), _NAME, _IMPORT_FLAG).map(
        lambda parts: [*parts[0], parts[1], *parts[2]]
    ),
    st.tuples(st.lists(_CATEGORICAL, min_size=3, max_size=3), _IMPORT_FLAG).map(
        lambda parts: ["syllogism", "custom", *parts[0], *parts[1]]
    ),
    *(_jugs_command(subcommand) for subcommand in _JUG_OPTIONS),
)


@given(_COMMANDS, st.sampled_from(["text", "json before", "json after"]))
@settings(max_examples=400, deadline=None)
def test_fuzzed_argv_keeps_the_exit_code_contract(command, output):
    argv = {
        "text": command,
        "json before": ["--format", "json", *command],
        "json after": [*command, "--format", "json"],
    }[output]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if command[0] == "jugs":
        # Every refusal of a jugs command is a limit's, and names its value
        # and its knob: a value out of range, or, with every value in range,
        # a plan too long to list.
        refused = _value_refused(command)
        if refused is not None:
            assert (code, err.getvalue()[-len(refused) :]) == (2, refused)
        elif code == 2:
            assert output != "text"
            assert err.getvalue().startswith("error: plan length is ")
            assert err.getvalue().endswith(f"({PLAN_LENGTH.name})\n")
    chain = {atom for arg in command for atom in re.findall(r"\bA\d+\b", arg)}
    if command[0] in _CHAIN_COMMANDS and chain:
        # A chain is refused exactly when it is over its limit, which the
        # refusal names.
        limit = TABLE_ATOMS if command[0] == "table" else ATOMS
        assert (code == 2) is (len(chain) > limit.most)
        if code == 2:
            assert err.getvalue() == f"error: {refusal(limit, 'atom count', len(chain))}\n"
    if code == 2:
        assert out.getvalue() == ""
        assert "error: " in err.getvalue()
    elif output != "text":
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        envelope = json.loads(lines[0])
        assert envelope["status"] == ("ok" if code == 0 else "invalid")
        assert (envelope["counterexample"] is None) is (code == 0)


# Runs one command in a fresh interpreter and prints, on its last line, the
# modules that importing ``deduce.cli`` and running the command loaded.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import deduce.cli
deduce.cli.main(sys.argv[1:])
print(repr(sorted(set(sys.modules) - before)))
"""
# Every module of the package but ``cli``, and ``json``.
_LAZY = {
    f"deduce.{path.stem}" for path in Path(cli.__file__).parent.glob("*.py")
} - {"deduce.__init__", "deduce.cli"} | {"json"}
# Importing ``dataclasses`` would cost every command some 8 ms.
_NEVER = {"dataclasses", "inspect"}
_ENGINE = {"deduce._limits", "deduce._record", "deduce.logic", "deduce.parser"}
_JUGS = {"deduce._limits", "deduce._record", "deduce.jugs"}
_SYLLOGISMS = {"deduce._record", "deduce.categorical"}


def _modules_loaded(*argv: str) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert done.returncode in (0, 1), done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


_IMPORT_CASES = [
    ([], set()),
    (["frobnicate"], set()),
    (["classify", "P -> Q"], _ENGINE),
    (["table", "P y Q"], _ENGINE),
    (["equiv", "P", "~~P"], _ENGINE),
    (["jugs", "gcd", "--n", "3", "--m", "6"], _JUGS),
    (["jugs", "bezout", "--n", "3", "--m", "11"], _JUGS),
    (["jugs", "amounts", "--n", "3", "--m", "6", "--limit", "12"], _JUGS),
    (["jugs", "plan", "--n", "3", "--m", "11", "--target", "1"], _JUGS),
    (["syllogism", "check", "darapti"], _SYLLOGISMS),
    (["syllogism", "custom", "all:M:P", "all:S:M", "all:S:P"], _SYLLOGISMS),
    (["quant", "negate", "forall x. P(x)"], _ENGINE | _SYLLOGISMS),
    (["rules", "list"], _ENGINE | {"deduce.rules"}),
    (["rules", "verify", "modus-ponens"], _ENGINE | {"deduce.rules"}),
    (["entail", "--premise", "P", "--conclusion", "P | Q"], _ENGINE | {"deduce.rules"}),
    (["--format", "json", "classify", "P"], _ENGINE | {"json"}),
    (["--format", "json", "jugs", "plan", "--n", "3", "--m", "11", "--target", "1"], _JUGS | {"json"}),
]


@pytest.mark.parametrize(
    "argv,needed", _IMPORT_CASES, ids=[" ".join(argv) or "(none)" for argv, _ in _IMPORT_CASES]
)
def test_a_command_imports_only_the_modules_it_runs(argv, needed):
    loaded = _modules_loaded(*argv)
    assert "deduce.cli" in loaded
    assert loaded & _LAZY == needed
    assert not loaded & _NEVER


_BARE_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import deduce
loaded = sorted(set(sys.modules) - before)
listed = set(deduce.__all__) <= set(dir(deduce))
print(repr((loaded, listed, deduce.logic.__name__)))
"""


def test_importing_the_package_loads_no_submodule():
    done = subprocess.run(
        [sys.executable, "-c", _BARE_IMPORT_PROBE],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded, listed, logic_name = ast.literal_eval(done.stdout.splitlines()[-1])
    assert not {name for name in loaded if name.startswith("deduce.")}
    assert not set(loaded) & _NEVER
    # Each name is imported on its first access, a submodule too.
    assert listed
    assert logic_name == "deduce.logic"


def test_the_package_names_are_those_of_their_modules():
    import deduce
    from deduce import parser

    for name in set(deduce.__all__) - {"__version__"}:
        # ``parser`` imports the names of ``logic`` it uses.
        home = logic if hasattr(logic, name) else parser
        assert getattr(deduce, name) is getattr(home, name), name
    namespace: dict = {}
    exec("from deduce import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(deduce.__all__)
    assert set(deduce.__all__) <= set(dir(deduce))


_CLOSED_STDOUT_CASES = [
    (["syllogism", "check", "barbara"], 0),
    (["syllogism", "check", "darapti"], 1),
    (["table", " & ".join(f"P{i}" for i in range(TABLE_ATOMS.most))], 0),
    # Listings written a batch at a time: a text line and a JSON list.
    (["jugs", "amounts", "--n", "1", "--m", "1", "--limit", str(LIMIT.most)], 0),
    (["--format", "json", "jugs", "plan", "--n", "1", "--m", "1", "--target", "1000000"], 0),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv,code",
    _CLOSED_STDOUT_CASES,
    ids=["barbara", "darapti", "table-16-atoms", "amounts-in-text", "plan-in-json"],
)
def test_a_closed_stdout_keeps_the_exit_code(argv, code, unbuffered):
    # The read end is closed before the child starts, so every write to its
    # stdout fails, whatever the timing.  Buffered, the first failure comes
    # at a flush; unbuffered, at the first write.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "deduce.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, "")


def _unwritable(fd: int) -> None:
    os.dup2(os.open(os.devnull, os.O_RDONLY), fd)


#: How a child's descriptor is left unusable at start: closed, or open
#: only for reading (as a launcher script can leave it).
_SPOILERS = {"closed": os.close, "read-only": _unwritable}

_SPOILT_AT_START_CASES = [
    (["classify", "P ó ¬P"], 0),
    (["syllogism", "check", "darapti"], 1),
    (["classify", "P y ?"], 2),
    (["--help"], 0),
]


@pytest.mark.parametrize("spoiler", _SPOILERS)
@pytest.mark.parametrize("fds", [(1,), (2,), (1, 2)], ids=["stdout", "stderr", "both"])
@pytest.mark.parametrize(
    "argv,code", _SPOILT_AT_START_CASES, ids=["tautology", "refuted", "parse-error", "help"]
)
def test_an_unusable_descriptor_at_start_keeps_the_exit_code(
    argv, code, fds, spoiler, monkeypatch
):
    monkeypatch.setenv("COLUMNS", "80")

    def spoil() -> None:
        # In the child, after its pipes are in place.
        for fd in fds:
            _SPOILERS[spoiler](fd)

    done = subprocess.run(
        [sys.executable, "-m", "deduce.cli", *argv],
        capture_output=True,
        encoding="utf-8",
        env=child_env(),
        preexec_fn=spoil,
        timeout=60,
    )
    # What goes to a spoilt stream is dropped; the other is what ``main``
    # writes.
    want, out, err = run_main(argv)
    assert done.returncode == want == code
    assert done.stdout == ("" if 1 in fds else out)
    assert done.stderr == ("" if 2 in fds else err)


def test_the_console_script_runs_console_main():
    # Read as text: Python 3.10 has no ``tomllib``.
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert '\n[project.scripts]\ndeduce = "deduce.cli:console_main"\n' in pyproject


_CONSOLE_CASES = [
    (["--help"], 0),
    (["classify", "P ó ¬P", "--format", "json"], 0),
    (["syllogism", "check", "darapti"], 1),
    (["classify", "P y ?"], 2),
    ([], 2),
]


_CONSOLE_IDS = ["help", "json-answer", "refuted", "parse-error", "no-command"]
# Under an encoding narrower than UTF-8 too, and with answers that it cannot
# represent: cp1252 is Windows' default for a redirected stdout.
_NARROW_CASES = [
    *_CONSOLE_CASES, (["table", "P -> Q"], 0), (["classify", "P o no P"], 0), (["jugs", "--help"], 0),
]
_NARROW_IDS = [*_CONSOLE_IDS, "table", "classify", "jugs-help"]
_NARROW = ("ascii", "cp1252")


@pytest.mark.parametrize(
    "encoding,argv,code",
    [(None, *case) for case in _CONSOLE_CASES]
    + [(encoding, *case) for encoding in _NARROW for case in _NARROW_CASES],
    ids=_CONSOLE_IDS + [f"{encoding}-{name}" for encoding in _NARROW for name in _NARROW_IDS],
)
def test_the_console_entry_point_exits_with_what_main_returns(encoding, argv, code, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    env = child_env()
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    done = subprocess.run(
        [sys.executable, "-c", "from deduce.cli import console_main; console_main()", *argv],
        capture_output=True,
        env=env,
        timeout=60,
    )
    # What an encoding cannot represent is escaped, on stdout by
    # ``console_main`` and on stderr by Python's own default.
    expected, out, err = run_main(argv)
    escaped = [text.encode(encoding or "utf-8", "backslashreplace") for text in (out, err)]
    assert [done.returncode, done.stdout, done.stderr] == [expected, *escaped]
    assert done.returncode == code


_FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count(), gc.isenabled()))
from deduce.cli import console_main
console_main()
"""


def test_the_console_entry_point_freezes_the_heap_before_exit():
    # The probe runs at exit, after ``console_main`` has raised SystemExit.
    done = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, "classify", "P ó ¬P"],
        capture_output=True,
        encoding="utf-8",
        env=child_env(),
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    answer, probe = done.stdout.splitlines()
    assert answer == "tautología"
    word, count, enabled = probe.split()
    assert (word, enabled) == ("frozen:", "True")
    assert int(count) > 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in _CONSOLE_CASES] + [["table", "P y Q", "--format", "json"]],
    ids=[*_CONSOLE_IDS, "json-table"],
)
def test_main_leaves_the_collector_as_it_found_it(argv, enabled):
    # Tests, library callers and the traced benchmark call ``main`` in
    # process, so only ``console_main`` may freeze the heap.
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        run_main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


# --- The table-built parser, reused, against the spelt-out one ---------------


def _parse_with(parser: argparse.ArgumentParser, argv: list[str]):
    """What parsing ``argv`` shows: exit code (None when it parses), stdout,
    stderr and the namespace's fields."""
    out, err = io.StringIO(), io.StringIO()
    fields = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), fields


def _parser_paths(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from _parser_paths(subparser, (*path, name))


# An argv each command accepts, every option given.
_ACCEPTED = {
    ("table",): ["P y Q"],
    ("classify",): ["P"],
    ("equiv",): ["P", "Q"],
    ("rules", "list"): [],
    ("rules", "show"): ["modus-ponens"],
    ("rules", "verify"): ["modus-ponens"],
    ("entail",): ["--premise", "P", "--premise", "Q", "--conclusion", "P"],
    ("syllogism", "list"): [],
    ("syllogism", "check"): ["darapti", "--existential-import"],
    ("syllogism", "custom"): ["all:M:P", "all:S:M", "all:S:P", "--existential-import"],
    ("quant", "negate"): ["forall x. P(x)"],
    ("jugs", "gcd"): ["--n", "3", "--m", "0"],
    ("jugs", "bezout"): ["--n", "3", "--m", "11"],
    ("jugs", "amounts"): ["--n", "3", "--m", "6", "--limit", "12"],
    ("jugs", "plan"): ["--n", "3", "--m", "11", "--target", "1", "--strategy", "shortest"],
}
_REQUIRED = {"--conclusion", "--n", "--m", "--limit", "--target"}
_INTEGER = {"--n", "--m", "--limit", "--target"}
_PATHS = list(_parser_paths(reference_build_parser()))


def _argv_corpus():
    groups = {path[:-1] for path in _ACCEPTED if len(path) > 1}
    yield from ([*path, "--help"] for path in _PATHS)
    yield from ([*path, "-h"] for path in _PATHS)
    # A missing command or subcommand, and choices that do not exist.
    yield []
    yield from ([*group] for group in sorted(groups))
    yield from ([*group, "frobnicate"] for group in sorted(groups))
    yield ["frobnicate"]
    yield ["--format", "xml", "classify", "P"]
    yield ["classify", "P", "--format", "xml"]
    yield ["jugs", "plan", "--n", "3", "--m", "11", "--target", "1", "--strategy", "fastest"]
    yield ["--frobnicate", "classify", "P"]
    yield ["--form", "json", "jugs", "plan", "--n", "3", "--m", "11", "--t", "1"]
    # Command words as argument values, and ``--`` before a command, inside
    # one and after its arguments.
    yield ["equiv", "jugs", "rules"]
    yield ["--", "classify", "P"]
    yield ["equiv", "--", "P", "Q"]
    yield ["jugs", "--", "gcd", "--n", "3", "--m", "0"]
    yield ["classify", "P", "--"]
    # The format flag, joined to its value and abbreviated, at each level.
    flags = [["--format", "json"], ["--format=json"], ["--fo", "json"], ["--forma=json"]]
    for path, args in _ACCEPTED.items():
        yield [*path, *args]
        for flag in flags:
            yield [*flag, *path, *args]
            yield [*path, *args, *flag]
        yield [*path, *args, "-h"]
        yield [*path, "--", *args]
        yield [*path, *args, "--frobnicate"]
        yield [*path, *args, "extra"]
        yield [*path, *(arg for arg in args if arg.startswith("-"))]
        for i, arg in enumerate(args):
            if arg in _REQUIRED:
                yield [*path, *args[:i], *args[i + 2 :]]
                yield [*path, *args[: i + 1]]
            if arg in _INTEGER:
                for bad in ["x", "0", "-1", "1.5", "", "9" * 50]:
                    yield [*path, *args[: i + 1], bad, *args[i + 2 :]]


def test_the_reference_tree_has_twenty_parsers():
    assert len(_PATHS) == 20
    assert len(_PATHS) == len(set(_PATHS))
    assert sorted(path for path in _PATHS if path in _ACCEPTED) == sorted(_ACCEPTED)


@pytest.mark.parametrize("argv", list(_argv_corpus()), ids=" ".join)
def test_the_parser_matches_the_spelt_out_reference(argv, monkeypatch):
    # A fresh parser parses this argv alone; the cached one every argv
    # before it too, so state left by a parse would show.
    monkeypatch.setenv("COLUMNS", "80")
    expected = _parse_with(reference_build_parser(), argv)
    assert _parse_with(build_parser(), argv) == expected
    assert _parse_with(cli._parser(), argv) == expected


@pytest.mark.parametrize("command", ["check", "custom"])
def test_both_syllogism_commands_describe_existential_import(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    assert cli.main(["syllogism", command, "--help"]) == 0
    words = " ".join(capsys.readouterr().out.split())
    assert (
        "--existential-import restrict to models where all three terms denote "
        "non-empty sets" in words
    )


def test_main_builds_its_parser_once():
    assert cli._parser() is cli._parser()


_ENTAIL_Q = (
    '{"command":"entail","counterexample":{"Q":false},'
    '"result":{"conclusion":"Q","premises":[],"valid":false},"status":"invalid"}\n'
)
_DARAPTI = (
    "inválido\ncontramodelo: universo={} A={} B={} M={}\n"
    "nota: válido con import existencial (--existential-import)\n"
)


@pytest.mark.parametrize(
    "first,second,out",
    [
        (
            ["entail", "--premise", "P", "--conclusion", "Q"],
            ["entail", "--conclusion", "Q", "--format", "json"],
            _ENTAIL_Q,
        ),
        (["--format", "json", "classify", "P"], ["classify", "P"], "contingente\ncontraejemplo: P=F\n"),
        (
            ["syllogism", "check", "darapti", "--existential-import"],
            ["syllogism", "check", "darapti"],
            _DARAPTI,
        ),
    ],
    ids=["premises", "format", "existential-import"],
)
def test_a_run_leaves_nothing_for_the_next(capsys, first, second, out):
    # Both runs share the one parser ``main`` builds.
    run(capsys, *first)
    assert run(capsys, *second) == (1, out, "")


@given(_COMMANDS, st.sampled_from([[], ["--format", "json"]]), st.booleans())
@settings(max_examples=400, deadline=None)
def test_fuzzed_argv_answers_alike_from_the_cached_and_a_fresh_parser(command, flag, after):
    argv = [*command, *flag] if after else [*flag, *command]

    def answer():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    cached = answer()
    with mock.patch.object(cli, "_parser", build_parser):
        assert answer() == cached
