"""Every limit of ``deduce``, declared once, and the one message that
refuses a value past one.

An entry gives the library name bound to the limit, what it counts, the
least and most it allows, and the values it bounds: each of those is both
a library parameter and the CLI option ``--<name>``.  A module that
enforces a limit binds the limit's library name from its entry, and
checks a value against the entry, which also words the refusal.  This
module imports nothing, so loading it costs no more than compiling it.
"""


class Limit:
    __slots__ = ("name", "counts", "least", "most", "values")

    def __init__(
        self, name: str, counts: str, least: int | None, most: int, values: tuple[str, ...] = ()
    ):
        self.name = name
        self.counts = counts
        self.least = least
        self.most = most
        self.values = values


ATOMS = Limit("logic.MAX_ATOMS", "distinct atoms of a formula a query decides", None, 24)
TABLE_ATOMS = Limit("logic.MAX_TABLE_ATOMS", "columns of a truth table", None, 16)
CAPACITY = Limit("jugs.MAX_CAPACITY", "a vessel's capacity", 1, 10**6, ("n", "m"))
TARGET = Limit("jugs.MAX_TARGET", "the amount a plan makes", 1, 10**9, ("target",))
LIMIT = Limit("jugs.MAX_LIMIT", "the largest amount `amounts` lists", 1, 10**6, ("limit",))
PLAN_LENGTH = Limit("jugs.MAX_PLAN_LENGTH", "the actions of an expanded plan", None, 10**7)

#: ``jugs gcd`` alone takes m from 0, as gcd(n, 0) = n.
GCD_LEAST_M = 0

#: Every limit, in the order README lists them.
LIMITS = (ATOMS, TABLE_ATOMS, CAPACITY, TARGET, LIMIT, PLAN_LENGTH)

#: Each bounded value's name -> its limit.
VALUES = {name: limit for limit in LIMITS for name in limit.values}


def refusal(limit: Limit, what: str, value: int | str, least: int | None = None) -> str:
    """The one message that refuses ``value`` of ``what`` past ``limit``,
    whose range starts at ``least`` if given, else where the limit's does.
    It names the knob: the option ``--what`` too, if ``what`` is one of the
    limit's values."""
    least = limit.least if least is None else least
    bound = limit.most if least is None else f"{least} to {limit.most}"
    knob = f"--{what}, {limit.name}" if what in limit.values else limit.name
    return f"{what} is {_quoted(value)}; the limit is {bound} ({knob})"


def _quoted(value: int | str) -> str:
    """``value`` in full up to 40 characters, else its first 40 and its
    length: a text quoted, in characters; an integer in digits."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:40]!r}... ({len(value)} characters)"
    try:
        shown = str(value)
    except ValueError:
        # Past Python's limit on int-to-text conversion (3.11+): quoted by
        # its bit length, which needs no conversion.
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return shown if len(shown) <= 40 else f"{shown[:40]}... ({len(shown.lstrip('-'))} digits)"
