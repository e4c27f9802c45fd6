"""Finite divisor posets: sets of positive integers ordered by divisibility.

Everything in this package is exact integer or rational arithmetic; no
floating point enters any analysis path.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property, partial
from itertools import accumulate, repeat


class EmptyInputError(ValueError):
    """An operation received an empty collection of integers."""


class NonPositiveElementError(ValueError):
    """An input element was zero, negative, or not an integer."""


class MeetOutsideSetError(ValueError):
    """A required gcd (meet) of two members is not itself a member."""


class VerificationError(Exception):
    """Two independent routes to the same quantity disagreed, or an invariant
    of a computed result failed.

    Deliberately not a ValueError: it signals a fault in the program, not in
    its input, and it is raised whether or not Python runs with -O.
    """


def _shown(v) -> str:
    """repr(v) with every int in full, also a tuple's items and a Fraction's parts:
    repr stops at the interpreter's digit limit for str, and Decimal has none."""
    if isinstance(v, int) and not isinstance(v, bool):
        try:
            return int.__repr__(v)
        except ValueError:
            from decimal import Decimal
            return str(Decimal(v))
    if type(v) is tuple:
        return f"({', '.join(map(_shown, v))}{',' * (len(v) == 1)})"
    if hasattr(v, "denominator") and not isinstance(v, bool):  # as Fraction.__repr__ writes it
        return f"{type(v).__name__}({_shown(v.numerator)}, {_shown(v.denominator)})"
    return repr(v)


def _verify(ok: bool, failure: str, *args) -> None:
    """The one check path: raise VerificationError(failure % args) unless ok; args by _shown."""
    if not ok:
        raise VerificationError(failure % tuple(map(_shown, args)))


def _positive_ints(xs: Iterable[int]) -> list[int]:
    """xs as a list, checked to be non-empty and all positive ints (no bools)."""
    xs = list(xs)
    if not xs:
        raise EmptyInputError("need at least one positive integer")
    for x in xs:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            shown = r if len(r := _shown(x)) <= 20 else f"{r[:20]}... ({len(r)} characters)"
            raise NonPositiveElementError(f"elements must be positive integers, got {shown}")
    return xs


def _bits(mask: int):
    """Yield the set bit positions of a non-negative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _covers(strict: int, down: Sequence[int]) -> tuple[int, ...]:
    """The maximal indices of the mask strict, ascending, given each index's
    down-set mask: the highest index left is maximal, since divisors come
    first, so peel it with its down-set and repeat."""
    top = []
    while strict:
        h = strict.bit_length() - 1
        top.append(h)
        strict &= ~down[h]
    return tuple(reversed(top))


class DivisorPoset:
    """An immutable poset of distinct positive integers under divisibility.

    Elements are deduplicated and stored in ascending order, so ``x_j | x_i``
    implies ``j <= i``.  All methods speak in element indices.  Instances do
    not mutate after construction and are safe to share across threads.
    """

    def __init__(self, xs: Iterable[int]):
        self.elements: tuple[int, ...] = tuple(sorted(set(_positive_ints(xs))))
        self._index = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)

        # One pass reads g = gcd(x_a, x_b) for each pair a > b: g == x_b sets bit b
        # of _down[a]; _low_meet[b] is the lowest index of these g (-1 if one is
        # not a member, n for the last b).
        els, present = self.elements, self._index
        down, low = [1 << i for i in range(n)], []
        for b, x in enumerate(els):
            gs = list(map(math.gcd, els[b + 1:], repeat(x)))
            for a, g in enumerate(gs, b + 1):
                if g == x:
                    down[a] |= 1 << b
            gs = set(gs)
            low.append(-1 if not present.keys() >= gs else
                       present[min(gs)] if gs else n)
        self._down, self._low_meet = tuple(down), tuple(low)
        self._covered = tuple(_covers(d & ~(1 << i), down) for i, d in enumerate(down))

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, value: int) -> int:
        """Index of a member value; ValueError if absent."""
        try:
            return self._index[value]
        except KeyError:
            raise ValueError(f"{_shown(value)} is not an element of the set") from None

    def __contains__(self, value: int) -> bool:
        return value in self._index

    def leq(self, j: int, i: int) -> bool:
        """True when x_j divides x_i."""
        return bool((self._down[i] >> j) & 1)

    def covered(self, i: int) -> tuple[int, ...]:
        """Indices of the elements covered by x_i within the set."""
        return self._covered[i]

    @cached_property
    def gcd_closed(self) -> bool:
        return -1 not in self._low_meet

    @cached_property
    def _fold_bounds(self) -> tuple[int, tuple[int, ...]]:
        """The largest m with x_0 | x_1 | ... | x_m, and each min(_low_meet[r:])."""
        m = next((k for k in range(self.n - 1) if not self._down[k + 1] >> k & 1), self.n - 1)
        return m, tuple(accumulate(reversed(self._low_meet), min))[::-1]

    def __repr__(self) -> str:
        return f"DivisorPoset([{', '.join(map(_shown, self.elements))}])"

    def __eq__(self, other) -> bool:
        return isinstance(other, DivisorPoset) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)


class SubPoset(namedtuple("SubPoset", "parent members")):
    """An induced sub-poset: a subset of a DivisorPoset with the cover
    relation recomputed inside the subset.  Members are parent indices,
    sorted.  A value: equal and hashed by (parent, members), immutable."""

    __slots__ = ()

    def __new__(cls, parent: DivisorPoset, members: Iterable[int]):
        members = tuple(sorted(set(members)))
        for m in members:
            if not 0 <= m < parent.n:
                raise ValueError(f"index {_shown(m)} outside parent poset")
        return super().__new__(cls, parent, members)

    @property
    def _mask(self) -> int:
        return sum(1 << m for m in self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    def values(self) -> tuple[int, ...]:
        return tuple(self.parent.elements[m] for m in self.members)

    def covered(self, i: int) -> tuple[int, ...]:
        """Indices covered by member i inside this sub-poset; KeyError if none."""
        if i not in self.members:
            raise KeyError(i)
        return _covers(self.parent._down[i] & self._mask & ~(1 << i), self.parent._down)

    def __repr__(self) -> str:
        return f"SubPoset(values=[{', '.join(map(_shown, self.values()))}])"


class _PosetValues:
    """An immutable record of a poset and values indexed like its elements, in
    __slots__: equal and hashed by both fields, repr Name(poset=..., values=...),
    AttributeError on assignment.  Subclasses declare __slots__ = ()."""

    __slots__ = ("poset", "values")

    def __init__(self, poset: DivisorPoset, values: tuple) -> None:
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.poset, self.values)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.poset, self.values) == (other.poset, other.values)

    def __hash__(self) -> int:
        return hash((self.poset, self.values))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(poset={self.poset!r}, values={_shown(self.values)})"


def build_poset(xs: Iterable[int]) -> DivisorPoset:
    """Validate, deduplicate, sort ascending, and build the divisibility poset."""
    return DivisorPoset(xs)


def is_gcd_closed(p: DivisorPoset) -> bool:
    """True when every pairwise gcd of members is itself a member."""
    return p.gcd_closed


def _close(gens: Iterable[int], op: Callable[[int, int], int]) -> tuple[int, ...]:
    """The closure of gens under an associative, commutative, idempotent op,
    sorted, grown one generator g at a time: C + {g} + {op(g, c) : c in C}."""
    have: set[int] = set()
    for g in gens:
        if g not in have:
            have |= {op(g, c) for c in have}
            have.add(g)
    return tuple(sorted(have))


def gcd_closure(xs: Iterable[int]) -> tuple[int, ...]:
    """Smallest superset of xs closed under pairwise gcd, sorted ascending."""
    return _close(_positive_ints(xs), math.gcd)


def meet(p: DivisorPoset, i: int, j: int) -> int:
    """Index of gcd(x_i, x_j); MeetOutsideSetError if that gcd is not a member."""
    x, y = p.elements[i], p.elements[j]
    k = p._index.get(g := math.gcd(x, y))
    if k is None:
        raise MeetOutsideSetError(f"gcd({_shown(x)}, {_shown(y)}) = {_shown(g)} is not in the set")
    return k


def meet_closure(p: DivisorPoset, subset: Iterable[int]) -> tuple[int, ...]:
    """Smallest superset of the given member indices closed under pairwise meet.

    Requires every needed meet to exist inside p (raises MeetOutsideSetError
    otherwise, which signals that p was not gcd closed where it mattered).
    """
    subset = list(subset)
    for m in subset:
        if not 0 <= m < p.n:
            raise ValueError(f"index {_shown(m)} outside poset")
    return _close(subset, partial(meet, p))


def width(sp: SubPoset) -> int:
    """Size of the largest antichain of the sub-poset.

    Computed as size minus a maximum bipartite matching on the strict order
    (minimum chain cover equals maximum antichain on finite posets).
    """
    mem = sp.members
    k = len(mem)
    if k == 0:
        return 0
    parent = sp.parent
    succ = [[v for v in range(k) if v != u and parent.leq(mem[u], mem[v])]
            for u in range(k)]
    match_right = [-1] * k

    def augment(u: int, seen: list[bool]) -> bool:
        for v in succ[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] < 0 or augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    matched = sum(1 for u in range(k) if augment(u, [False] * k))
    return k - matched


def has_antichain_3(sp: SubPoset) -> bool:
    """True when the sub-poset contains three pairwise incomparable elements."""
    return width(sp) > 2


def to_dot(p: DivisorPoset) -> str:
    """Hasse diagram of the poset as a DOT digraph with upward cover edges."""
    names = [_shown(x) for x in p.elements]  # str stops at the interpreter's digit limit
    lines = ["digraph hasse {", "  rankdir=BT;", *(f'  "{x}";' for x in names)]
    for i in range(p.n):
        for j in p.covered(i):
            lines.append(f'  "{names[j]}" -> "{names[i]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
