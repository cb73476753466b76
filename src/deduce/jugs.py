"""Two-vessel measuring: gcd, Bézout certificates, and pour-plan synthesis.

The model is one unbounded marked container plus two vessels of capacities
``n`` and ``m``: an action either pours a full vessel in (AddJug) or
measures a full vessel out and discards it (RemoveJug).  The running total
therefore moves by whole vessel amounts, may never go negative, and a
vessel can only be measured out when the container holds at least that
much.  Exactly the positive multiples of gcd(n, m) are producible, and a
Bézout identity turns that fact into a concrete plan: every plan is a
solution x·n + y·m = target, read as |x| pours of one vessel and |y| of the
other, so both planning strategies are a choice of one point on that line.
A plan is stored as its runs of equal actions; its length and replay cost
O(runs), so every target up to ``MAX_TARGET`` is planned.  Only expanding a
plan into its actions is capped, at ``MAX_PLAN_LENGTH``.

Amounts are exact integers in abstract units; scaling all quantities by a
common factor changes nothing.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from itertools import chain, groupby, repeat

from ._limits import CAPACITY, GCD_LEAST_M, LIMIT, PLAN_LENGTH, TARGET, VALUES, refusal
from ._record import Record

MAX_CAPACITY = CAPACITY.most
MAX_TARGET = TARGET.most
MAX_LIMIT = LIMIT.most
MAX_PLAN_LENGTH = PLAN_LENGTH.most


class ViolationKind(Enum):
    NEGATIVE_AMOUNT = "NegativeAmount"
    FOREIGN_CAPACITY = "ForeignCapacity"


class PlanViolation(ValueError):
    """A plan action broke an invariant; carries the first offending index."""

    def __init__(self, index: int, reason: ViolationKind):
        super().__init__(f"action {index} violates the plan model: {reason.value}")
        self.index = index
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.index, self.reason)


class NotAchievable(ValueError):
    """The target is not a multiple of gcd(n, m), so no plan exists."""

    def __init__(self, n: int, m: int, target: int, g: int):
        super().__init__(
            f"{target} is not achievable with vessels {n} and {m}: "
            f"gcd({n}, {m}) = {g} does not divide it"
        )
        self.n = n
        self.m = m
        self.target = target
        self.gcd = g

    def __reduce__(self):
        return type(self), (self.n, self.m, self.target, self.gcd)


class PlanTooLong(ValueError):
    """Expanding a plan would make more than ``MAX_PLAN_LENGTH`` actions;
    refused before any action is built."""

    def __init__(self, length: int):
        super().__init__(refusal(PLAN_LENGTH, "plan length", length))
        self.length = length

    def __reduce__(self):
        return type(self), (self.length,)


def _check_range(value: int, name: str, least: int | None = None) -> None:
    # The range is that of the limit ``name`` is under, from ``least`` if given.
    # ``bool`` is an ``int`` subclass, but True is no vessel size.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    limit = VALUES[name]
    if not (limit.least if least is None else least) <= value <= limit.most:
        raise ValueError(refusal(limit, name, value, least))


class JugProblem(Record):
    """Two vessel capacities and a target amount, all positive integers."""

    __slots__ = ("n", "m", "target")

    def __init__(self, n: int, m: int, target: int):
        _check_range(n, "n")
        _check_range(m, "m")
        _check_range(target, "target")
        _set_n(self, n)
        _set_m(self, m)
        _set_target(self, target)


_set_n = JugProblem.n.__set__
_set_m = JugProblem.m.__set__
_set_target = JugProblem.target.__set__


class BezoutCertificate(Record):
    """Integers with a·n + b·m = g = gcd(n, m), a normalized to 0 ≤ a < m/g."""

    __slots__ = ("g", "a", "b")

    def __init__(self, g: int, a: int, b: int):
        _set_g(self, g)
        _set_a(self, a)
        _set_b(self, b)


_set_g = BezoutCertificate.g.__set__
_set_a = BezoutCertificate.a.__set__
_set_b = BezoutCertificate.b.__set__


class AddJug(Record):
    __slots__ = ("capacity",)

    def __init__(self, capacity: int):
        _set_add_capacity(self, capacity)


_set_add_capacity = AddJug.capacity.__set__


class RemoveJug(Record):
    __slots__ = ("capacity",)

    def __init__(self, capacity: int):
        _set_remove_capacity(self, capacity)


_set_remove_capacity = RemoveJug.capacity.__set__


Action = AddJug | RemoveJug


class PourPlan(Record):
    """A sequence of actions stored as its maximal runs, ``(action, count)``
    pairs.  A plan is the iterable of its actions, sized by ``len``, so
    ``actions``, which is ``tuple(plan)`` expanded again on each read, is
    allocated once at its exact length.  Iterating a plan of more than
    ``MAX_PLAN_LENGTH`` actions, and so ``actions``, ``list(plan)`` and
    ``PourPlan(plan)``, raises ``PlanTooLong`` before any action is made."""

    __slots__ = ("runs",)

    def __init__(self, actions: Iterable[Action]) -> None:
        runs = tuple((action, sum(1 for _ in run)) for action, run in groupby(actions))
        _set_runs(self, runs)

    @classmethod
    def _of_runs(cls, *runs: tuple[Action, int]) -> PourPlan:
        # The caller gives maximal runs: no empty run, no two equal neighbours.
        pour_plan = cls.__new__(cls)
        _set_runs(pour_plan, runs)
        return pour_plan

    def __reduce__(self) -> tuple:
        return PourPlan._of_runs, self.runs

    @property
    def actions(self) -> tuple[Action, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[Action]:
        return _expand(self.runs)

    def __len__(self) -> int:
        return sum(count for _, count in self.runs)


_set_runs = PourPlan.runs.__set__


def _expand(runs: Sequence[tuple[object, int]]) -> Iterator:
    """The items of ``(item, count)`` runs, each ``count`` times in turn.

    This is the one place where runs are expanded: it raises ``PlanTooLong``
    before making any item when the counts sum past ``MAX_PLAN_LENGTH``.
    """
    length = sum(count for _, count in runs)
    if length > MAX_PLAN_LENGTH:
        raise PlanTooLong(length)
    return chain.from_iterable(repeat(*run) for run in runs)


class Strategy(Enum):
    CERTIFICATE = "certificate"
    SHORTEST = "shortest"


def gcd(n: int, m: int) -> int:
    """Greatest common divisor; n ≥ 1, m ≥ 0."""
    _check_range(n, "n")
    _check_range(m, "m", GCD_LEAST_M)
    return math.gcd(n, m)


def bezout(n: int, m: int) -> BezoutCertificate:
    """The certificate whose coefficient of n is its canonical
    representative 0 ≤ a < m/g: the inverse of n/g modulo m/g.  When
    m/g = 1 that inverse is 0 and the whole weight falls on b."""
    _check_range(n, "n")
    _check_range(m, "m")
    g = math.gcd(n, m)
    a = pow(n // g, -1, m // g)
    b = (g - a * n) // m
    return BezoutCertificate(g=g, a=a, b=b)


def is_achievable(problem: JugProblem) -> bool:
    """Whether the target is a positive multiple of gcd(n, m)."""
    return problem.target % math.gcd(problem.n, problem.m) == 0


def _amounts(n: int, m: int, limit: int) -> range:
    """The producible amounts up to ``limit``, as a range: the multiples of
    gcd(n, m)."""
    _check_range(n, "n")
    _check_range(m, "m")
    _check_range(limit, "limit")
    g = math.gcd(n, m)
    return range(g, limit + 1, g)


def achievable_amounts(n: int, m: int, limit: int) -> list[int]:
    """All producible amounts up to ``limit``: the multiples of gcd(n, m)."""
    return list(_amounts(n, m, limit))


def plan(problem: JugProblem, strategy: Strategy = Strategy.CERTIFICATE) -> PourPlan:
    """Synthesize a valid pour plan for an achievable target.

    With k = target/g and the certificate a·n + b·m = g, the solutions of
    x·n + y·m = target are x = k·a + t·(m/g), y = k·b − t·(n/g).
    ``CERTIFICATE`` takes the least x ≥ 0, k·a mod (m/g).  ``SHORTEST``
    minimises the plan length |x| + |y|, which is convex in t, so the
    minimum lies at the floor or ceiling of one of the two roots; ties go
    to fewer removals, then to the smaller x.  Either plan is emitted as
    its additions (of n, then of m) followed by its removals, as at most two
    runs, so a plan of any target is made in constant time and space.  The
    certificate is read off as ``bezout`` computes it, without its record
    or its range checks, which ``JugProblem`` has already made.

    Raises ``TypeError`` when ``problem`` is not a ``JugProblem`` or
    ``strategy`` not a ``Strategy``, and ``NotAchievable`` when gcd(n, m)
    does not divide the target.
    """
    # Any other value would read as the certificate strategy.
    if not isinstance(strategy, Strategy):
        raise TypeError(f"strategy must be a Strategy, got {type(strategy).__name__}")
    if not isinstance(problem, JugProblem):
        raise TypeError(f"problem must be a JugProblem, got {type(problem).__name__}")
    n, m, target = problem.n, problem.m, problem.target
    g = math.gcd(n, m)
    if target % g:
        raise NotAchievable(n, m, target, g)
    k = target // g
    step_x, step_y = m // g, n // g
    a = pow(step_y, -1, step_x)
    if strategy is Strategy.SHORTEST:
        x0, y0 = k * a, k * ((g - a * n) // m)
        best = None
        for t in (-x0 // step_x, -(x0 // step_x), y0 // step_y, -(-y0 // step_y)):
            tx, ty = x0 + t * step_x, y0 - t * step_y
            # Order by length, then by the number of removals, then by x.
            key = (abs(tx) + abs(ty), -min(tx, ty, 0), tx)
            if best is None or key < best:
                best, x, y = key, tx, ty
    else:
        x = k * a % step_x
        y = (target - x * n) // m
    # All additions come first, so the total peaks at their sum and never
    # goes negative: before each removal it is the target plus that removal
    # and the ones still to come.  At most one of x, y is negative and at
    # most one is zero (the target is positive), so the plan has one or two
    # runs, and they differ: with n = m the period m/g is 1, so both
    # strategies take x = 0.  Only the actions of those runs are made.
    if x < 0:
        return PourPlan._of_runs((AddJug(m), y), (RemoveJug(n), -x))
    if y < 0:
        return PourPlan._of_runs((AddJug(n), x), (RemoveJug(m), -y))
    if not x:
        return PourPlan._of_runs((AddJug(m), y))
    if not y:
        return PourPlan._of_runs((AddJug(n), x))
    return PourPlan._of_runs((AddJug(n), x), (AddJug(m), y))


def simulate(pour_plan: PourPlan, n: int, m: int) -> int:
    """Replay a plan, returning the final amount in the container.

    Raises ``TypeError`` when ``pour_plan`` is not a ``PourPlan``, and
    ``PlanViolation`` at the first action that uses a foreign capacity or
    would drive the total negative.
    """
    _check_range(n, "n")
    _check_range(m, "m")
    # Any other object would fail on its first missing attribute, or be misread.
    if not isinstance(pour_plan, PourPlan):
        raise TypeError(f"pour_plan must be a PourPlan, got {type(pour_plan).__name__}")
    total = 0
    index = 0
    for action, count in pour_plan.runs:
        if action.capacity not in (n, m):
            raise PlanViolation(index, ViolationKind.FOREIGN_CAPACITY)
        if isinstance(action, AddJug):
            total += action.capacity * count
        elif isinstance(action, RemoveJug):
            # The run's first removal that finds less than a vessel left.
            overdraft = total // action.capacity
            if overdraft < count:
                raise PlanViolation(index + overdraft, ViolationKind.NEGATIVE_AMOUNT)
            total -= action.capacity * count
        else:
            raise TypeError(f"not a plan action: {action!r}")
        index += count
    return total
