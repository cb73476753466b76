import itertools
import sys
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from deduce._limits import GCD_LEAST_M, VALUES
from deduce.jugs import (
    MAX_PLAN_LENGTH,
    AddJug,
    BezoutCertificate,
    JugProblem,
    NotAchievable,
    PlanTooLong,
    PlanViolation,
    PourPlan,
    RemoveJug,
    Strategy,
    ViolationKind,
    achievable_amounts,
    bezout,
    gcd,
    is_achievable,
    plan,
    simulate,
)
from helpers import (
    bfs_min_plan_length,
    bfs_reachable,
    oracle_ceiling,
    reference_simulate,
)


class TestGcd:
    def test_three_and_six(self):
        assert gcd(3, 6) == 3

    def test_three_and_eleven(self):
        assert gcd(3, 11) == 1

    def test_with_zero(self):
        assert gcd(7, 0) == 7

    def test_symmetry(self):
        for n in range(1, 30):
            for m in range(1, 30):
                assert gcd(n, m) == gcd(m, n)

    def test_rejects_nonpositive_first_argument(self):
        with pytest.raises(ValueError):
            gcd(0, 5)


class TestBezout:
    def test_three_and_eleven(self):
        assert bezout(3, 11) == BezoutCertificate(g=1, a=4, b=-1)

    def test_three_and_six(self):
        certificate = bezout(3, 6)
        assert certificate == BezoutCertificate(g=3, a=1, b=0)
        assert 0 <= certificate.a < 6 // certificate.g

    def test_equal_capacities_normalization_edge(self):
        # m/g = 1 forces a = 0; the whole weight falls on b.
        assert bezout(5, 5) == BezoutCertificate(g=5, a=0, b=1)

    def test_certificate_identity_and_normalization(self):
        for n in range(1, 60):
            for m in range(1, 60):
                certificate = bezout(n, m)
                g = certificate.g
                assert certificate.a * n + certificate.b * m == g
                assert n % g == 0 and m % g == 0
                assert g == gcd(n, m)
                period = m // g
                if period > 1:
                    assert 0 <= certificate.a < period
                else:
                    assert certificate.a == 0


class TestAchievability:
    def test_multiples_of_three(self):
        assert is_achievable(JugProblem(3, 6, 9))

    def test_five_is_not_a_multiple_of_three(self):
        assert not is_achievable(JugProblem(3, 6, 5))

    def test_coprime_reaches_one(self):
        assert is_achievable(JugProblem(3, 11, 1))

    def test_amounts_for_the_posted_sign(self):
        assert achievable_amounts(3, 6, 12) == [3, 6, 9, 12]

    def test_coprime_amounts_are_everything(self):
        assert achievable_amounts(3, 11, 5) == [1, 2, 3, 4, 5]

    def test_even_gcd(self):
        assert achievable_amounts(4, 6, 7) == [2, 4, 6]

    def test_symmetry(self):
        for n in range(1, 13):
            for m in range(1, 13):
                for target in range(1, 20):
                    assert is_achievable(JugProblem(n, m, target)) == is_achievable(
                        JugProblem(m, n, target)
                    )

    def test_matches_bfs_oracle_at_desk_scale(self):
        for n in range(1, 13):
            for m in range(1, 13):
                ceiling = oracle_ceiling(n, m, 20)
                reachable = bfs_reachable(n, m, ceiling)
                for target in range(1, 21):
                    assert is_achievable(JugProblem(n, m, target)) == (
                        target in reachable
                    )


class TestPlan:
    def test_certificate_for_the_worked_coprime_case(self):
        pour_plan = plan(JugProblem(3, 11, 1), Strategy.CERTIFICATE)
        assert pour_plan.actions == (
            AddJug(3),
            AddJug(3),
            AddJug(3),
            AddJug(3),
            RemoveJug(11),
        )

    def test_shortest_single_fill(self):
        assert plan(JugProblem(3, 6, 6), Strategy.SHORTEST).actions == (AddJug(6),)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_unachievable_target(self, strategy):
        with pytest.raises(NotAchievable):
            plan(JugProblem(3, 6, 5), strategy)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_plans_simulate_to_target(self, strategy):
        for n in range(1, 9):
            for m in range(1, 9):
                for target in range(1, 25):
                    problem = JugProblem(n, m, target)
                    if not is_achievable(problem):
                        continue
                    pour_plan = plan(problem, strategy)
                    assert simulate(pour_plan, n, m) == target

    def test_shortest_plans_are_minimal(self):
        for n in range(1, 10):
            for m in range(1, 10):
                for target in range(1, 30):
                    problem = JugProblem(n, m, target)
                    if not is_achievable(problem):
                        continue
                    pour_plan = plan(problem, Strategy.SHORTEST)
                    oracle = bfs_min_plan_length(
                        n, m, target, oracle_ceiling(n, m, target)
                    )
                    assert len(pour_plan.actions) == oracle

    def test_shortest_beats_certificate_when_overshooting_helps(self):
        # 99 = 100 - 1: two actions, while pure unit additions need 99.
        problem = JugProblem(100, 1, 99)
        shortest = plan(problem, Strategy.SHORTEST)
        assert shortest.actions == (AddJug(100), RemoveJug(1))

    def test_certificate_scales_with_units(self):
        # Scaling all quantities by a common factor maps plans action for
        # action: the same counts with scaled capacities.
        base = plan(JugProblem(3, 11, 1), Strategy.CERTIFICATE)
        scaled = plan(JugProblem(30, 110, 10), Strategy.CERTIFICATE)
        assert [type(a) for a in scaled.actions] == [type(a) for a in base.actions]
        assert [a.capacity for a in scaled.actions] == [
            a.capacity * 10 for a in base.actions
        ]
        rescaled = PourPlan(
            tuple(type(a)(a.capacity * 10) for a in base.actions)
        )
        assert simulate(rescaled, 30, 110) == 10

    def test_unit_independence_of_achievability(self):
        for n in range(1, 10):
            for m in range(1, 10):
                for target in range(1, 15):
                    for factor in (2, 3, 7):
                        assert is_achievable(JugProblem(n, m, target)) == is_achievable(
                            JugProblem(n * factor, m * factor, target * factor)
                        )

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_refuses_plans_over_the_length_limit(self, strategy):
        # The plan is made; only expanding it is refused, before any action
        # is built.
        tracemalloc.start()
        try:
            pour_plan = plan(JugProblem(1, 1, 50_000_000), strategy)
            assert len(pour_plan) == 50_000_000
            for expand in (lambda p: p.actions, list, tuple, PourPlan):
                with pytest.raises(PlanTooLong) as excinfo:
                    expand(pour_plan)
                assert excinfo.value.length == 50_000_000
                assert "50000000" in str(excinfo.value)
                assert str(MAX_PLAN_LENGTH) in str(excinfo.value)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("strategy", ["shortest", "certificate", None])
    def test_refuses_a_strategy_that_is_not_a_strategy(self, strategy):
        # A value of a strategy is no strategy; None is not the default.
        with pytest.raises(TypeError, match="^strategy must be a Strategy, got "):
            plan(JugProblem(100, 1, 99), strategy)

    def test_shortest_uses_one_vessel_far_beyond_a_search_ceiling(self):
        # The target is ~2·10^7 units, yet the plan is twenty pours.
        problem = JugProblem(999_983, 999_979, 20 * 999_983)
        assert plan(problem, Strategy.SHORTEST).actions == (AddJug(999_983),) * 20

    def test_shortest_tie_prefers_fewer_removals(self):
        # 4 = 2 + 2 = 6 − 2: two actions either way; the one without a
        # removal wins.
        assert plan(JugProblem(2, 6, 4), Strategy.SHORTEST).actions == (AddJug(2),) * 2

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_plans_are_additions_then_removals_in_at_most_two_runs(self, strategy):
        for n in range(1, 13):
            for m in range(1, 13):
                for target in range(1, 40):
                    problem = JugProblem(n, m, target)
                    if not is_achievable(problem):
                        continue
                    actions = plan(problem, strategy).actions
                    runs = [key for key, _ in itertools.groupby(actions)]
                    assert len(runs) <= 2, (n, m, target, runs)
                    kinds = [type(action) for action in actions]
                    assert kinds == sorted(kinds, key=lambda kind: kind is RemoveJug)

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 600))
    @settings(max_examples=300, deadline=None)
    def test_shortest_length_matches_bfs_oracle(self, n, m, target):
        problem = JugProblem(n, m, target)
        if not is_achievable(problem):
            return
        pour_plan = plan(problem, Strategy.SHORTEST)
        assert len(pour_plan) == bfs_min_plan_length(
            n, m, target, oracle_ceiling(n, m, target)
        )
        assert simulate(pour_plan, n, m) == target

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_plan_runs_are_the_maximal_runs_of_its_actions(self, strategy):
        # Including n = m, where the two addition runs could be one.
        for n in range(1, 13):
            for m in range(1, 13):
                for target in range(1, 40):
                    problem = JugProblem(n, m, target)
                    if not is_achievable(problem):
                        continue
                    pour_plan = plan(problem, strategy)
                    assert pour_plan.runs == PourPlan(pour_plan.actions).runs
                    assert PourPlan(pour_plan).runs == pour_plan.runs
                    assert list(pour_plan) == list(pour_plan.actions)
                    assert len(pour_plan.runs) <= 2
                    assert len(pour_plan) == len(pour_plan.actions)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_long_plan_is_not_expanded(self, strategy):
        # Expanded, these 10^7 actions would be an 80 MB tuple.
        problem = JugProblem(1, 1, MAX_PLAN_LENGTH)
        tracemalloc.start()
        try:
            pour_plan = plan(problem, strategy)
            assert len(pour_plan) == MAX_PLAN_LENGTH
            assert simulate(pour_plan, 1, 1) == MAX_PLAN_LENGTH
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "expand", [lambda pour_plan: pour_plan.actions, tuple], ids=["actions", "tuple"]
    )
    def test_actions_are_allocated_once_at_their_length(self, expand):
        # A tuple grown from an unsized iterator passes through a chain of
        # reallocations, which overshoots the final 8 bytes per action.
        pour_plan = PourPlan._of_runs((AddJug(3), 600_000), (RemoveJug(5), 400_000))
        tracemalloc.start()
        try:
            actions = expand(pour_plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert actions == (AddJug(3),) * 600_000 + (RemoveJug(5),) * 400_000
        assert peak < 8 * len(actions) + 4096

    def test_certificate_handles_large_targets(self):
        problem = JugProblem(999_983, 999_979, 999_983 + 999_979)
        pour_plan = plan(problem, Strategy.CERTIFICATE)
        assert simulate(pour_plan, problem.n, problem.m) == problem.target


@st.composite
def _plan_actions(draw):
    """Vessels n and m and actions over n, m and one foreign capacity, drawn
    as runs of one to five equal actions; runs of one interleave."""
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    capacities = st.sampled_from([n, m, n + m + 1])
    run = st.tuples(st.sampled_from([AddJug, RemoveJug]), capacities, st.integers(1, 5))
    runs = draw(st.lists(run, max_size=12))
    return n, m, [kind(capacity) for kind, capacity, count in runs for _ in range(count)]


class TestSimulate:
    def test_worked_construction(self):
        pour_plan = PourPlan((AddJug(3),) * 4 + (RemoveJug(11),))
        assert simulate(pour_plan, 3, 11) == 1

    def test_remove_from_empty_container(self):
        with pytest.raises(PlanViolation) as excinfo:
            simulate(PourPlan((RemoveJug(3),)), 3, 6)
        assert excinfo.value.index == 0
        assert excinfo.value.reason is ViolationKind.NEGATIVE_AMOUNT

    def test_foreign_capacity(self):
        with pytest.raises(PlanViolation) as excinfo:
            simulate(PourPlan((AddJug(5),)), 3, 6)
        assert excinfo.value.index == 0
        assert excinfo.value.reason is ViolationKind.FOREIGN_CAPACITY

    def test_violation_reports_first_offending_index(self):
        pour_plan = PourPlan((AddJug(3), RemoveJug(3), RemoveJug(3)))
        with pytest.raises(PlanViolation) as excinfo:
            simulate(pour_plan, 3, 6)
        assert excinfo.value.index == 2

    def test_empty_plan_yields_zero(self):
        assert simulate(PourPlan(()), 3, 6) == 0

    def test_overdraft_inside_a_run_reports_its_action(self):
        # 14 units cover four removals of 3; the fifth is action 2 + 4.
        pour_plan = PourPlan((AddJug(7), AddJug(7)) + (RemoveJug(3),) * 5)
        assert pour_plan.runs == ((AddJug(7), 2), (RemoveJug(3), 5))
        with pytest.raises(PlanViolation) as excinfo:
            simulate(pour_plan, 3, 7)
        assert excinfo.value.index == 6
        assert excinfo.value.reason is ViolationKind.NEGATIVE_AMOUNT

    @given(_plan_actions())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_per_action_replay(self, drawn):
        n, m, actions = drawn
        pour_plan = PourPlan(actions)
        assert pour_plan.actions == tuple(actions)
        assert len(pour_plan) == len(actions)
        try:
            expected = reference_simulate(actions, n, m)
        except PlanViolation as violation:
            with pytest.raises(PlanViolation) as excinfo:
                simulate(pour_plan, n, m)
            assert (excinfo.value.index, excinfo.value.reason) == (
                violation.index,
                violation.reason,
            )
        else:
            assert simulate(pour_plan, n, m) == expected


class TestValidation:
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None], ids=repr)
    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda value: JugProblem(value, 2, 3), "n"),
            (lambda value: JugProblem(2, value, 3), "m"),
            (lambda value: JugProblem(2, 3, value), "target"),
            (lambda value: gcd(value, 2), "n"),
            (lambda value: gcd(2, value), "m"),
            (lambda value: bezout(value, 2), "n"),
            (lambda value: bezout(2, value), "m"),
            (lambda value: achievable_amounts(value, 2, 5), "n"),
            (lambda value: achievable_amounts(2, value, 5), "m"),
            (lambda value: achievable_amounts(2, 3, value), "limit"),
            (lambda value: simulate(PourPlan([]), value, 2), "n"),
            (lambda value: simulate(PourPlan([]), 2, value), "m"),
        ],
        ids=[
            "problem-n", "problem-m", "problem-target", "gcd-n", "gcd-m", "bezout-n",
            "bezout-m", "amounts-n", "amounts-m", "amounts-limit", "simulate-n",
            "simulate-m",
        ],
    )
    def test_refuses_values_that_are_not_integers(self, call, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            call(value)

    @pytest.mark.parametrize(
        "call,name,least",
        [
            (lambda value: gcd(value, 6), "n", None),
            (lambda value: gcd(3, value), "m", GCD_LEAST_M),
            (lambda value: JugProblem(value, 3, 1), "n", None),
            (lambda value: JugProblem(3, value, 1), "m", None),
            (lambda value: JugProblem(3, 5, value), "target", None),
            (lambda value: achievable_amounts(3, 5, value), "limit", None),
        ],
        ids=["capacity", "gcd m", "problem n", "problem m", "target", "limit"],
    )
    def test_bound_messages_name_the_knob_and_cut_long_values(self, call, name, least):
        # ``gcd``'s m alone does not start where its limit does.
        limit = VALUES[name]
        least = limit.least if least is None else least
        bound = f"; the limit is {least} to {limit.most} (--{name}, {limit.name})"
        for value, shown in [
            (limit.most + 1, str(limit.most + 1)),
            (least - 1, str(least - 1)),
            (10**39, f"1{'0' * 39}"),
            (10**4000, f"1{'0' * 39}... (4001 digits)"),
            (-(10**50), f"-1{'0' * 38}... (51 digits)"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                call(value)
            assert str(excinfo.value) == f"{name} is {shown}{bound}"

    @pytest.mark.parametrize(
        "call,name,value,digits",
        [
            (lambda value: JugProblem(value, 1, 1), "n", 10**5000, 5001),
            (lambda value: gcd(value, 1), "n", 10**5000, 5001),
            (lambda value: gcd(3, value), "m", -(10**5000), 5001),
            (lambda value: JugProblem(3, 5, value), "target", 10**4300 - 1, 4300),
            (lambda value: achievable_amounts(3, 5, value), "limit", 10**4300, 4301),
        ],
        ids=["problem", "gcd", "negative", "at-the-limit", "past-the-limit"],
    )
    def test_bound_messages_past_the_int_to_text_limit(self, call, name, value, digits):
        with pytest.raises(ValueError) as excinfo:
            call(value)
        # Python 3.11+ refuses to convert more digits than this to text; a
        # value past it is quoted by its bit length.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < digits:
            shown = f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        else:
            shown = f"{str(value)[:40]}... ({digits} digits)"
        assert str(excinfo.value).startswith(f"{name} is {shown}; the limit is ")
