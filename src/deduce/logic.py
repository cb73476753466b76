"""Propositional formulas, valuation semantics, and truth-table classification.

Formulas are immutable trees over named atoms with five connectives:
negation, disjunction, conjunction, conditional, and biconditional.
Truth values are plain booleans; ``format_truth_value`` renders them in the
classroom V/F notation and ``parse_truth_value`` accepts V/F and 1/0.

``evaluate``, ``classify``, ``falsifying_valuation``, ``equivalent`` and
``truth_table`` share one engine that holds truth tables as bit strings
(Knuth, TAOCP Vol. 4A, 7.1.1-7.1.2): a formula is compiled once into a
stack program, and each run of the program applies ``^ & |`` to big
integers whose bit ``r`` is the value at canonical row ``r``, deciding a
block of up to 2^12 rows in one pass (``evaluate``: one row); a table's
valuations are built by doubling the canonical row order.  A block's
periodic columns are slices of one table of masks built at import.  One
search for the first false row answers ``falsifying_valuation`` and
``equivalent`` and stops there; ``classify`` reads on past it only until it
meets a true row.  ``atoms`` reads the same compiled form, and
``substitute`` runs its program on nodes, so the compiler is the only walk
over a formula outside the parser, the printer and the node records.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping, Sequence
from enum import Enum
from functools import total_ordering
from itertools import repeat
from operator import eq

from ._limits import ATOMS, TABLE_ATOMS, Limit, refusal
from ._record import Node, Record, _is_name, _setattr

#: Hard ceiling on distinct atoms per classification query.  A 24-atom scan
#: is 4096 blocks, about 0.7-1 ms per program step on a 2-CPU VM: it bounds
#: the rows, not the formula's length.  Anything larger is refused.
MAX_ATOMS = ATOMS.most
#: Hard ceiling on the columns of a table, which has a row per valuation:
#: ``truth_table`` and ``deduce table`` refuse more before the first block.
MAX_TABLE_ATOMS = TABLE_ATOMS.most


class MissingAtom(LookupError):
    """A valuation does not assign some atom of the formula."""

    def __init__(self, name: str):
        super().__init__(f"valuation does not assign atom {name!r}")
        self.name = name

    def __reduce__(self):
        return type(self), (self.name,)


class TooManyAtoms(ValueError):
    """A query would enumerate more atoms than the limit ``entry`` allows,
    ``MAX_ATOMS`` unless another is given; ``limit`` is its bound."""

    def __init__(self, count: int, entry: Limit = ATOMS):
        super().__init__(refusal(entry, "atom count", count))
        self.count = count
        self.limit = entry.most
        self._entry = entry

    def __reduce__(self):
        return type(self), (self.count, self._entry)


@total_ordering
class Atom(Record):
    """A named proposition letter: an uppercase letter then letters/digits.
    Atoms order by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _is_name(name):
            raise ValueError(
                f"invalid atom name {name!r}: must start with an uppercase "
                "letter followed by letters or digits"
            )
        _setattr(self, "name", name)

    def __lt__(self, other: Atom) -> bool:
        return self.name < other.name if type(other) is Atom else NotImplemented


class Formula(Node):
    """Base class for formula nodes; construction sugar lives here.

    ``~f`` negates, ``f & g`` conjoins, ``f | g`` disjoins, ``f >> g`` builds
    the conditional and ``f.iff(g)`` the biconditional.
    """

    __slots__ = ()

    def __invert__(self) -> "Not":
        return Not(self)

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __rshift__(self, other: "Formula") -> "Implies":
        return Implies(self, other)

    def iff(self, other: "Formula") -> "Iff":
        return Iff(self, other)


class Atomic(Formula):
    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        if not isinstance(atom, Atom):
            raise TypeError(f"atom must be an Atom, got {type(atom).__name__}")
        _setattr(self, "atom", atom)


class Not(Formula):
    __slots__ = ("inner",)

    def __init__(self, inner: Formula):
        _setattr(self, "inner", inner)


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _setattr(self, "left", left)
        _setattr(self, "right", right)


class Or(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


def prop(name: str) -> Atomic:
    """Shorthand for the atomic formula with the given atom name."""
    return Atomic(Atom(name))


#: A (total) assignment of truth values, keyed by atom name.
Valuation = Mapping[str, bool]


class Classification(Enum):
    """Tautology, contradiction, or the unnamed remainder: contingent."""

    TAUTOLOGY = "tautology"
    CONTRADICTION = "contradiction"
    CONTINGENT = "contingent"


class TableRow(Record):
    __slots__ = ("valuation", "value")

    def __init__(self, valuation: dict[str, bool], value: bool):
        _setattr(self, "valuation", valuation)
        _setattr(self, "value", value)


class TruthTable(Record):
    """All 2^n valuations of a formula, first atom varying slowest, V before F."""

    __slots__ = ("atoms", "rows")

    def __init__(self, atoms: tuple[Atom, ...], rows: tuple[TableRow, ...]):
        _setattr(self, "atoms", atoms)
        _setattr(self, "rows", rows)


# A compiled program is a list of ints: an entry ``i >= 0`` pushes the
# truth vector of the formula's ``i``-th atom (first-occurrence order), a
# negative entry applies a connective to the top of the stack.  It is the
# formula's preorder reversed, so a connective finds its left operand on top
# of the stack and its right one below it.
_NOT, _OR, _AND, _IMPLIES, _IFF = -1, -2, -3, -4, -5
_BINARY = {Or: _OR, And: _AND, Implies: _IMPLIES, Iff: _IFF}
_CONNECTIVES = {op: kind for kind, op in _BINARY.items()}

#: log2 of the rows one pass of a program decides.  Without a cap, one
#: vector over all 2^n rows makes every connective cost O(2^n) bits even
#: when the first few rows already decide the answer.
_BLOCK_BITS = 12


def _mask(shift: int) -> int:
    """Bit ``r`` set where bit ``shift`` of ``r`` is 0, by doubling a run."""
    mask = (1 << (1 << shift)) - 1
    for k in range(shift + 1, _BLOCK_BITS):
        mask |= mask << (1 << k)
    return mask


#: The periodic columns of the widest block (Knuth's magic masks, TAOCP 7.1.3).
#: Each period divides a narrower block's width: its column is ``mask & full``.
_MASKS = tuple(map(_mask, range(_BLOCK_BITS)))


def _compile(formula: Formula) -> tuple[list[int], list[Atom]]:
    """The program of ``formula`` and its atoms in first-occurrence order,
    from one iterative walk (no recursion limit on nesting depth).  The walk
    emits each node as it meets it, so its work stack holds nothing but the
    fields of nodes, and a field that is no formula is refused."""
    program: list[int] = []
    found: list[Atom] = []
    slots: dict[str, int] = {}
    pending: list = [formula]
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is Atomic:
            slot = slots.get(node.atom.name)
            if slot is None:
                slot = slots[node.atom.name] = len(found)
                found.append(node.atom)
            program.append(slot)
        elif kind is Not:
            program.append(_NOT)
            pending.append(node.inner)
        elif kind in _BINARY:
            program.append(_BINARY[kind])
            pending.append(node.right)
            pending.append(node.left)
        else:
            raise TypeError(f"not a formula: {node!r}")
    program.reverse()
    return program, found


def atoms(formula: Formula) -> tuple[Atom, ...]:
    """All atoms occurring in ``formula``, deduplicated, alphabetical by name."""
    return tuple(sorted(_compile(formula)[1]))


def _run(program: list[int], vectors: list[int], full: int) -> int:
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for op in program:
        if op >= 0:
            push(vectors[op])
        elif op == _NOT:
            stack[-1] ^= full
        else:
            left = pop()
            if op == _AND:
                stack[-1] &= left
            elif op == _OR:
                stack[-1] |= left
            elif op == _IMPLIES:
                stack[-1] |= left ^ full
            else:
                stack[-1] ^= left ^ full
    return stack[0]


def evaluate(formula: Formula, valuation: Valuation) -> bool:
    """Compute the truth value of ``formula`` under ``valuation``: its
    compiled program run on one row, each atom a 1-bit vector.

    Raises ``MissingAtom`` if the valuation lacks an atom of the formula.
    """
    program, found = _compile(formula)
    vectors = []
    for atom in found:
        try:
            vectors.append(1 if valuation[atom.name] else 0)
        except KeyError:
            raise MissingAtom(atom.name) from None
    return _run(program, vectors, 1) == 1


def _scan(
    formula: Formula, over: Sequence[Atom] | None = None, limit: Limit = ATOMS
) -> tuple[tuple[Atom, ...], int, Iterator[int]]:
    """Decide ``formula`` over the canonical rows of its columns, a block at
    a time, refusing more columns than ``limit`` allows.

    Returns the columns (``over``, or the formula's atoms alphabetically),
    the all-true vector ``full`` of one block, and a lazy iterator of each
    block's truth vector: bit ``r`` of block ``b`` is the value at canonical
    row ``b * full.bit_length() + r``.  Column ``i`` of ``n`` is true where
    bit ``n - 1 - i`` of the row number is 0, so the last (at most
    ``_BLOCK_BITS``) columns are periodic masks within a block and the
    earlier ones are constant across it.
    """
    program, found = _compile(formula)
    columns = tuple(over) if over is not None else tuple(sorted(found))
    strays = [] if over is None else [a for a in columns if not isinstance(a, Atom)]
    if strays:
        raise TypeError(f"over must hold atoms, got {strays[0]!r}")
    n = len(columns)
    position = {atom.name: i for i, atom in enumerate(columns)}
    if len(position) < n:
        repeated = next(a for i, a in enumerate(columns) if position[a.name] != i)
        raise ValueError(f"over repeats atom {repeated.name!r}")
    if n > limit.most:
        raise TooManyAtoms(n, limit)
    for atom in found:
        if atom.name not in position:
            raise MissingAtom(atom.name)
    bits = min(n, _BLOCK_BITS)
    full = (1 << (1 << bits)) - 1
    vectors = [0] * len(found)
    constant: list[tuple[int, int]] = []
    for slot, atom in enumerate(found):
        shift = n - 1 - position[atom.name]
        if shift < bits:
            vectors[slot] = _MASKS[shift] & full
        else:
            constant.append((slot, shift - bits))

    def blocks() -> Iterator[int]:
        for block in range(1 << (n - bits)):
            for slot, shift in constant:
                vectors[slot] = 0 if block >> shift & 1 else full
            yield _run(program, vectors, full)

    return columns, full, blocks()


def _values(formula: Formula, over: Sequence[Atom] | None) -> tuple[tuple[Atom, ...], str]:
    """The columns of ``formula``'s table (see ``truth_table``), at most
    ``MAX_TABLE_ATOMS`` of them, and its value string: character ``r`` is
    ``"1"`` where canonical row ``r`` is true."""
    columns, full, vectors = _scan(formula, over, TABLE_ATOMS)
    width = full.bit_length()
    return columns, "".join(format(vector, f"0{width}b")[::-1] for vector in vectors)


def truth_table(formula: Formula, over: Sequence[Atom] | None = None) -> TruthTable:
    """Build the canonical truth table of ``formula``.

    ``over`` widens the table to an explicit atom tuple (a superset of the
    formula's own atoms, in the order given); by default the formula's atoms
    in alphabetical order are used.  Raises ``ValueError`` if ``over``
    repeats an atom, ``TypeError`` if it holds anything but atoms, and
    ``TooManyAtoms`` for more than ``MAX_TABLE_ATOMS`` columns, before any
    row is decided.
    """
    columns, values = _values(formula, over)
    # Canonical order by doubling: from the all-V row, each column, last to
    # first, appends copies of the rows so far with itself set F in each.
    valuations = [dict.fromkeys([atom.name for atom in columns], True)]
    for atom in reversed(columns):
        copies = list(map(dict.copy, valuations))
        deque(map(dict.__setitem__, copies, repeat(atom.name), repeat(False)), 0)
        valuations += copies
    # The rows are filled field by field in C loops: a slot descriptor's
    # ``__set__`` writes past ``Record.__setattr__``, as ``_setattr`` does.
    rows = tuple(map(TableRow.__new__, repeat(TableRow, len(values))))
    deque(map(TableRow.valuation.__set__, rows, valuations), 0)
    deque(map(TableRow.value.__set__, rows, map(eq, values, repeat("1"))), 0)
    return TruthTable(columns, rows)


def _first_false(formula: Formula) -> tuple[dict[str, bool] | None, bool, Iterator[int]]:
    """The first valuation (canonical row order) making ``formula`` false,
    or ``None``; whether a true row came before it or in its block; and the
    blocks of the scan not yet read.  Column ``i`` of ``n`` is true where
    bit ``n - 1 - i`` of the row number is 0."""
    columns, full, vectors = _scan(formula)
    last = len(columns) - 1
    for block, vector in enumerate(vectors):
        if vector != full:
            false_rows = full ^ vector
            row = block * full.bit_length() + (false_rows & -false_rows).bit_length() - 1
            counter = {atom.name: not row >> (last - i) & 1 for i, atom in enumerate(columns)}
            return counter, block > 0 or vector != 0, vectors
    return None, True, vectors


def _decide(formula: Formula) -> tuple[Classification, dict[str, bool] | None]:
    """The classification of ``formula`` and its first falsifying valuation,
    from one scan that reads past the first false row only until it meets
    a true one."""
    counter, seen_true, rest = _first_false(formula)
    if counter is None:
        return Classification.TAUTOLOGY, None
    if seen_true or any(rest):
        return Classification.CONTINGENT, counter
    return Classification.CONTRADICTION, counter


def classify(formula: Formula) -> Classification:
    """Classify by exhaustive enumeration, stopping once a true and a false
    row have both been seen."""
    return _decide(formula)[0]


def falsifying_valuation(formula: Formula) -> dict[str, bool] | None:
    """First valuation (canonical row order) making ``formula`` false, if any."""
    return _first_false(formula)[0]


def equivalent(f: Formula, g: Formula) -> bool:
    """Whether ``f`` and ``g`` are equivalent: their biconditional is a tautology."""
    return _first_false(Iff(f, g))[0] is None


def substitute(formula: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace mapped atoms (by name) with their image formulas.

    Atoms absent from the mapping are left unchanged; images are inserted
    as-is and never rewritten again.  An image of an atom of ``formula``
    that is not a ``Formula`` raises ``TypeError``.
    """
    program, found = _compile(formula)
    images = [mapping.get(atom.name, Atomic(atom)) for atom in found]
    for atom, image in zip(found, images):
        if not isinstance(image, Formula):
            raise TypeError(
                f"the image of atom {atom.name!r} must be a formula, got {type(image).__name__}"
            )
    stack: list[Formula] = []
    for op in program:
        if op >= 0:
            stack.append(images[op])
        elif op == _NOT:
            stack[-1] = Not(stack[-1])
        else:
            left = stack.pop()
            stack[-1] = _CONNECTIVES[op](left, stack[-1])
    return stack[0]


def format_truth_value(value: bool) -> str:
    return "V" if value else "F"


def parse_truth_value(text: str) -> bool:
    """Accept the dual notation: V or 1 for true, F or 0 for false."""
    normalized = text.strip().upper()
    if normalized in ("V", "1"):
        return True
    if normalized in ("F", "0"):
        return False
    raise ValueError(f"not a truth value: {text!r} (expected V, F, 1, or 0)")
