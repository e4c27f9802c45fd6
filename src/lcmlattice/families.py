"""Named gcd-closed families, instance generators, enumeration, and search.

The enumerator walks gcd-closed subsets of a divisor universe directly (every
ascending prefix of a gcd-closed set is gcd closed, so depth-first extension
by larger elements visits each exactly once, in lexicographic order).  The
search walks the same prefix tree: an element's divisors, covers and weight
w = x * Psi(x) depend only on the smaller elements before it, so each w is
computed once per tree node, in integers, by two routes that must agree.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .lattice import DivisorPoset, _bits, _verify
from .matrices import _w_by_crosscut, _w_by_recursion


class BadParamsError(ValueError):
    """A family or search parameter was out of range."""


#: Universes used by search_max_iplus when none are given: the divisors of
#: the product of the first four primes, and of a two-prime power grid.
DEFAULT_SEARCH_UNIVERSES: tuple[int, ...] = (210, 216)


def is_prime(n: int) -> bool:
    """True when n is an int prime (bools and values below 2 are not)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _require_distinct_primes(values: Sequence[int], what: str) -> None:
    for v in values:
        if not is_prime(v):
            raise BadParamsError(f"{what} must be prime, got {v!r}")
    if len(set(values)) != len(values):
        raise BadParamsError(f"{what} must be pairwise distinct: {list(values)}")


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadParamsError(f"need a positive integer, got {n!r}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def grid_family(p: int, q: int, m: int) -> DivisorPoset:
    """All products p^k q^l with exponents below m (an m-by-m divisor grid)."""
    _require_distinct_primes([p, q], "grid primes")
    if not isinstance(m, int) or m < 2:
        raise BadParamsError(f"grid needs integer m >= 2, got {m!r}")
    return DivisorPoset(p ** k * q ** l for k in range(m) for l in range(m))


def squarefree_pairs_family(primes: Sequence[int]) -> DivisorPoset:
    """1, the given primes, and all products of two distinct given primes."""
    primes = list(primes)
    if len(primes) < 2:
        raise BadParamsError("need at least two primes")
    _require_distinct_primes(primes, "primes")
    xs = [1] + primes
    xs += [primes[a] * primes[b] for a in range(len(primes)) for b in range(a)]
    return DivisorPoset(xs)


def triple_prime_family(primes: Sequence[int], q: int, r: int, m: int) -> DivisorPoset:
    """Union over i of the grids r^(i-1) * q^k * p_i^l (k, l below m).

    Needs m distinct primes p_1..p_m plus two further primes q and r; the
    result has exactly m^3 elements.
    """
    primes = list(primes)
    if not isinstance(m, int) or m < 2:
        raise BadParamsError(f"needs integer m >= 2, got {m!r}")
    if len(primes) < m:
        raise BadParamsError(f"needs at least {m} block primes, got {len(primes)}")
    primes = primes[:m]
    _require_distinct_primes(primes + [q, r], "primes")
    xs = [r ** (i - 1) * q ** k * primes[i - 1] ** l
          for i in range(1, m + 1) for k in range(m) for l in range(m)]
    poset = DivisorPoset(xs)
    if poset.n != m ** 3:
        raise BadParamsError("prime choice made family elements collide")
    return poset


def cube_instances() -> tuple[DivisorPoset, DivisorPoset, DivisorPoset]:
    """Three eight-element cube-shaped sets: one with negative top Psi, one
    singular (top Psi zero), one with positive top Psi."""
    return (
        DivisorPoset([1, 2, 3, 5, 6, 10, 15, 30]),
        DivisorPoset([1, 2, 3, 5, 66, 70, 255, 39270]),
        DivisorPoset([1, 2, 3, 5, 70, 78, 255, 46410]),
    )


def classical_set(n: int) -> DivisorPoset:
    """The first n positive integers."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadParamsError(f"need integer n >= 1, got {n!r}")
    return DivisorPoset(range(1, n + 1))


def incomparable_tops_instance() -> DivisorPoset:
    """A gcd-closed set whose top element decomposes into two chains with
    incomparable tops, no doubly-attached element, and the meet of the tops
    inside the core; its Mobius column exercises every closed-form case."""
    return DivisorPoset([1, 2, 3, 9, 10, 14, 51, 99, 117, 1531530])


def _closed_index_subsets(divs: Sequence[int], min_size: int,
                          max_size: int) -> Iterator[tuple[int, ...]]:
    """Index tuples of gcd-closed subsets of a full divisor list, sizes within
    bounds, in lexicographic order.  The universe must be closed under gcd
    (a full divisor list always is)."""
    n = len(divs)
    gidx = [[0] * n for _ in range(n)]
    pos = {d: i for i, d in enumerate(divs)}
    for a in range(n):
        for b in range(a + 1):
            g = pos[math.gcd(divs[a], divs[b])]
            gidx[a][b] = gidx[b][a] = g

    chosen: list[int] = []

    def rec(mask: int, start: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) >= min_size:
            yield tuple(chosen)
        if len(chosen) == max_size:
            return
        for nxt in range(start, n):
            row = gidx[nxt]
            ok = True
            for t in chosen:
                if not (mask >> row[t]) & 1:
                    ok = False
                    break
            if ok:
                chosen.append(nxt)
                yield from rec(mask | (1 << nxt), nxt + 1)
                chosen.pop()

    return rec(0, 0)


def enumerate_gcd_closed(universe: int, size: int) -> Iterator[DivisorPoset]:
    """Stream all gcd-closed subsets of the divisors of ``universe`` with
    exactly ``size`` elements, in lexicographic order of their element lists."""
    divs = divisors(universe)
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise BadParamsError(f"need integer size >= 1, got {size!r}")
    for idxs in _closed_index_subsets(divs, size, size):
        yield DivisorPoset(divs[i] for i in idxs)


def _leaf_plus_counts(divs: Sequence[int],
                      n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each gcd-closed size-n subset of an ascending gcd-closed list (such as
    a full divisor list), in the enumerator's order, with its count of
    positive Psi values.

    A stack follows the enumerator's current path.  Each element appended to
    it gets w = x * Psi(x) from the recursion over its strict divisors on the
    path and from the crosscut over the elements it covers on the path
    (VerificationError if they differ), and the positive count is carried
    down the path, so a leaf only reads it.
    """
    k = len(divs)
    below = [sum(1 << b for b in range(a) if divs[a] % divs[b] == 0) for a in range(k)]
    above = [sum(1 << a for a in range(k) if below[a] >> b & 1) for b in range(k)]
    w = [0] * k              # w of each universe index on the current path
    path: tuple[int, ...] = ()
    masks, plus = [0], [0]   # [d]: bitmask of path[:d], and its count of w > 0
    for idxs in _closed_index_subsets(divs, n, n):
        d = 0
        while d < len(path) and path[d] == idxs[d]:
            d += 1
        del masks[d + 1:], plus[d + 1:]
        for a in idxs[d:]:
            x = divs[a]
            strict = below[a] & masks[-1]
            lower = list(_bits(strict))
            wa = _w_by_recursion(x, [(divs[b], w[b]) for b in lower])
            covers = [divs[b] for b in lower if not above[b] & strict]
            _verify(wa == _w_by_crosscut(x, covers),
                    f"the two Psi routes disagreed at {x}")
            w[a] = wa
            masks.append(masks[-1] | 1 << a)
            plus.append(plus[-1] + (wa > 0))
        path = idxs
        yield tuple(divs[a] for a in idxs), plus[-1]


@dataclass(frozen=True)
class SearchResult:
    """Best positive-eigenvalue count found for a given size (a certified
    lower bound on the true maximum) and the first witness attaining it."""

    n: int
    universes: tuple[int, ...]
    max_iplus: int
    witness: DivisorPoset


def search_max_iplus(n: int, universes: Iterable[int] | None = None) -> SearchResult:
    """Scan all gcd-closed size-n subsets of the given divisor universes and
    report the maximal count of positive eigenvalues of the lcm matrix.

    The reported value is a lower bound on the maximum over all gcd-closed
    sets of size n; the witness is the first maximizer in universe order then
    lexicographic order, so results are reproducible.  The count of a set is
    the number of its positive Psi values (Sylvester's law of inertia).  They
    come from the enumerator's prefix tree, one integer x * Psi(x) per tree
    node, each checked by the recursion and by Rota's crosscut theorem;
    VerificationError if the two routes disagree.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadParamsError(f"need integer n >= 1, got {n!r}")
    universes = tuple(universes) if universes is not None else DEFAULT_SEARCH_UNIVERSES
    if not universes:
        raise BadParamsError("need at least one universe")
    best = -1
    witness: tuple[int, ...] | None = None
    # A set met again in a later universe has the same count, so it cannot
    # beat the best so far, and the strict > keeps the first maximizer.
    for u in universes:
        for values, plus in _leaf_plus_counts(divisors(u), n):
            if plus > best:
                best = plus
                witness = values
    if witness is None:
        raise BadParamsError(
            f"no gcd-closed subset of size {n} inside universes {list(universes)}")
    return SearchResult(n, universes, best, DivisorPoset(witness))


def is_cube_isomorphic(p: DivisorPoset) -> bool:
    """True when the divisibility order of the set is the cube: a bottom,
    three atoms, three elements each over a distinct pair of atoms, a top."""
    if p.n != 8 or not p.gcd_closed:
        return False
    down_sizes = [bin(m).count("1") for m in p._down]
    if sorted(down_sizes) != [1, 2, 2, 2, 4, 4, 4, 8]:
        return False
    mids = [i for i in range(8) if down_sizes[i] == 4]
    pairs = [p.covered(i) for i in mids]
    if any(len(pair) != 2 for pair in pairs):
        return False
    return len({frozenset(pair) for pair in pairs}) == 3
