"""The one immutable record idiom of the package.

A record class names its fields in ``__slots__`` and writes its own
``__init__``.  ``Record`` gives it the rest: ``__match_args__`` (the
public slots, inherited ones first), field-wise ``==`` and ``hash``
between records of one class, the ``Name(field=value, ...)`` repr,
``copy`` and ``pickle`` support, and an ``AttributeError`` on any later
assignment.  ``==`` and ``repr`` walk fields that hold records with an
explicit stack, so a formula's nesting depth is bounded only by memory.

``__init__`` stores each field past that refusal, through the ``__set__``
of the field's slot descriptor, bound once at module level after the class
(``_set_left = _Binary.left.__set__``).  The generic attribute store would
do the same through a slot wrapper that builds an argument tuple and looks
the slot up by name again on every call, and a parse builds a record per
node.

``Node`` is the base of formula trees: it computes its hash on the first
``hash()``, bottom-up with an explicit stack, and keeps it in its ``_hash``
slot, so construction does not pay for it.  A node is immutable, so any
copy of it, shallow or deep, is the node itself.  It pickles as a flat
postorder program and a tuple of its leaf values, which ``_rebuild`` runs
with an explicit stack, so pickling does not recurse either; a subtree
shared within the formula is written once and stays shared.

``_is_name`` is the one rule for atom and predicate names, and
``_is_variable`` the one rule for the form of a variable, kept here so that
``logic``, ``parser`` and ``categorical`` read them without importing one
another.
"""

from __future__ import annotations


def _is_name(word: str) -> bool:
    """Whether ``word`` is a name: an uppercase ASCII letter, then ASCII
    letters or digits.  Atoms, predicates and the tokenizer's names all
    follow this one rule.  A ``word`` that is no str raises ``TypeError``."""
    return str.isascii(word) and word.isalnum() and word[0].isupper()


def _is_variable(word: str) -> bool:
    """Whether the str ``word`` has the form of a variable: a lowercase
    ASCII letter, then ASCII letters or digits.  A grammar's keywords of
    this form are no variables."""
    return word.isascii() and word.isalnum() and word[0].islower()


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls.__match_args__ += tuple(name for name in own if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        pending = [(self, other)]
        while pending:
            mine, theirs = pending.pop()
            if mine is theirs:
                continue
            if type(mine) is not type(theirs):
                return False
            for left, right in zip(mine._values(), theirs._values()):
                if isinstance(left, Record):
                    pending.append((left, right))
                elif left != right:
                    return False
        return True

    def __hash__(self) -> int:
        return hash((type(self), *self._values()))

    def __repr__(self) -> str:
        # Work items are text to emit, or records to expand.
        out: list[str] = []
        pending: list = [self]
        while pending:
            item = pending.pop()
            if type(item) is str:
                out.append(item)
                continue
            parts: list = [type(item).__qualname__ + "("]
            for i, (name, value) in enumerate(zip(item.__match_args__, item._values())):
                parts.append(f", {name}=" if i else f"{name}=")
                parts.append(value if isinstance(value, Record) else repr(value))
            parts.append(")")
            pending += reversed(parts)
        return "".join(out)

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Node(Record):
    """A record whose fields may hold further nodes: a formula tree."""

    __slots__ = ("_hash",)

    def __copy__(self) -> Node:
        return self

    def __deepcopy__(self, memo: dict) -> Node:
        return self

    def __reduce__(self) -> tuple:
        # Postorder, one (class, mask) step per node: bit i of the mask is
        # set when field i is a node, which ``_rebuild`` takes from its
        # stack; the other field values go to ``leaves`` in step order.  A
        # node met again is a (None, step) reference to its first step, so
        # a shared subtree is written and rebuilt once.
        program: list = []
        leaves: list = []
        steps: dict[int, int] = {}
        pending: list = [self]
        while pending:
            item = pending.pop()
            if type(item) is tuple:
                node, mask, others = item
                steps[id(node)] = len(program) // 2
                program += (type(node), mask)
                leaves += others
            elif id(item) in steps:
                program += (None, steps[id(item)])
            else:
                mask, others, children = 0, [], []
                for i, value in enumerate(item._values()):
                    if isinstance(value, Node):
                        mask |= 1 << i
                        children.append(value)
                    else:
                        others.append(value)
                pending.append((item, mask, others))
                pending += reversed(children)
        return _rebuild, (tuple(program), tuple(leaves))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        # Postorder: a node is hashed once all its children hold their hash,
        # so hashing the tuple of its fields reads each child's slot.
        pending = [self]
        while pending:
            node = pending[-1]
            values = node._values()
            unhashed = [
                value
                for value in values
                if isinstance(value, Node) and not hasattr(value, "_hash")
            ]
            if unhashed:
                pending += unhashed
            else:
                pending.pop()
                _set_hash(node, hash((type(node), *values)))
        return self._hash


_set_hash = Node._hash.__set__


def _rebuild(program: tuple, leaves: tuple) -> Node:
    """The node that ``Node.__reduce__`` flattened into ``program`` and
    ``leaves``."""
    built: list = []
    stack: list = []
    values = iter(leaves)
    for i in range(0, len(program), 2):
        kind, mask = program[i], program[i + 1]
        if kind is None:
            node = built[mask]
        else:
            count = mask.bit_count()
            children = iter(stack[len(stack) - count :])
            del stack[len(stack) - count :]
            fields = range(len(kind.__match_args__))
            node = kind(*[next(children) if mask >> j & 1 else next(values) for j in fields])
        built.append(node)
        stack.append(node)
    return stack[0]
