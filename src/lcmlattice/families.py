"""Named gcd-closed families, instance generators, enumeration, and search.

Enumeration and search share one depth-first walk over a gcd-closed universe
(every ascending prefix of a gcd-closed set is gcd closed, so extension by
larger elements visits each exactly once, in lexicographic order).  An
element's divisors, covers and weight w = x * Psi(x) depend only on the
smaller elements before it, so the walk computes each w once per tree node,
in integers, by two routes that must agree, and carries the count of positive
weights down the path.  The search bounds the walk: an element adds at most 1
to the count, so a subtree that cannot beat the best count so far is skipped
before any of its weights is computed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .lattice import DivisorPoset, _covers, _shown, _verify
from .matrices import _w_by_crosscut, _w_by_recursion


class BadParamsError(ValueError):
    """A family or search parameter was out of range."""


#: Universes used by search_max_iplus when none are given: the divisors of
#: the product of the first four primes, and of a two-prime power grid.
DEFAULT_SEARCH_UNIVERSES: tuple[int, ...] = (210, 216)


#: Miller-Rabin with the first 13 primes as bases is exact below this bound
#: (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime bases",
#: Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """True when n is an int prime (bools and values below 2 are not).

    Deterministic Miller-Rabin, exact below 3,317,044,064,679,887,385,961,981.
    A witness proves n composite at any size, so BadParamsError, rather than a
    guess, comes only when no base witnesses an n at or above that bound.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_LIMIT:
        raise BadParamsError(
            f"cannot decide whether {_shown(n)} is prime: the primality test is exact "
            f"only below {_MILLER_RABIN_LIMIT}")
    return True


def _require_distinct_primes(values: Sequence[int], what: str) -> None:
    for v in values:
        if not is_prime(v):
            raise BadParamsError(f"{what} must be prime, got {_shown(v)}")
    if len(set(values)) != len(values):
        raise BadParamsError(f"{what} must be pairwise distinct: "
                             f"[{', '.join(map(_shown, values))}]")


#: Trial division tries only the divisors below this bound; Pollard's rho
#: splits what is left.
_TRIAL_DIVISION_BOUND = 64

#: Rho steps a composite part at or above the Miller-Rabin bound gets before it
#: is refused: rho finds a prime factor p in about sqrt(p) steps.
_RHO_BUDGET = 1 << 16


def _factor(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n as ascending (prime, exponent) pairs.

    Trial division by d below _TRIAL_DIVISION_BOUND, stopping once d * d
    exceeds what is left.  What is left then has no factor below d: a part
    below d * d is prime, is_prime decides any other part, and _rho_factor
    splits a part is_prime proves composite.  At or above the Miller-Rabin
    bound, rho gets _RHO_BUDGET steps, and a part they do not split is refused
    (BadParamsError), as is a part is_prime cannot decide."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadParamsError(f"need a positive integer, got {_shown(n)}")
    exps: dict[int, int] = {}
    rest, d = n, 2
    while d < _TRIAL_DIVISION_BOUND and d * d <= rest:
        while rest % d == 0:
            rest, exps[d] = rest // d, exps.get(d, 0) + 1
        d += 1
    parts = [rest] if rest > 1 else []
    while parts:
        m = parts.pop()
        if m < d * d or is_prime(m):
            exps[m] = exps.get(m, 0) + 1
            continue
        f = _rho_factor(m, _RHO_BUDGET if m >= _MILLER_RABIN_LIMIT else math.inf)
        if f is None:
            raise BadParamsError(f"cannot factor {_shown(m)}: it is composite, but "
                                 f"{_RHO_BUDGET} steps of Pollard's rho found no factor")
        parts += [f, m // f]
    return sorted(exps.items())


def _rho_factor(n: int, budget: float) -> int | None:
    """A proper factor of an odd composite n, by Pollard's rho with Brent's
    cycle finding (R. P. Brent, BIT 20, 1980): the map y -> y^2 + c from the
    fixed start y = 2, one gcd(x - y, n) per step, and the next c when that
    gcd is n itself.  None when ``budget`` steps in all find no factor."""
    c = 1
    while True:
        x = y = 2
        power = steps = g = 1
        while g == 1:
            if not budget:
                return None
            if steps == power:
                x, power, steps = y, 2 * power, 0
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
            budget -= 1
            steps += 1
        if g != n:
            return g
        c += 1


def _divisors_of(pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    divs = [1]
    for q, e in pairs:
        divs = [d * q ** k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending, from its prime factorization."""
    return _divisors_of(_factor(n))


def grid_family(p: int, q: int, m: int) -> DivisorPoset:
    """All products p^k q^l with exponents below m (an m-by-m divisor grid)."""
    _require_distinct_primes([p, q], "grid primes")
    if not isinstance(m, int) or m < 2:
        raise BadParamsError(f"grid needs integer m >= 2, got {_shown(m)}")
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

    Needs m distinct primes p_1..p_m plus two further primes q and r; by
    unique factorization the m^3 products are then distinct.
    """
    primes = list(primes)
    if not isinstance(m, int) or m < 2:
        raise BadParamsError(f"needs integer m >= 2, got {_shown(m)}")
    if len(primes) < m:
        raise BadParamsError(f"needs at least {m} block primes, got {len(primes)}")
    primes = primes[:m]
    _require_distinct_primes(primes + [q, r], "primes")
    return DivisorPoset(r ** (i - 1) * q ** k * primes[i - 1] ** l
                        for i in range(1, m + 1) for k in range(m) for l in range(m))


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
        raise BadParamsError(f"need integer n >= 1, got {_shown(n)}")
    return DivisorPoset(range(1, n + 1))


def incomparable_tops_instance() -> DivisorPoset:
    """A gcd-closed set whose top element decomposes into two chains with
    incomparable tops, no doubly-attached element, and the meet of the tops
    inside the core; its Mobius column exercises every closed-form case."""
    return DivisorPoset([1, 2, 3, 9, 10, 14, 51, 99, 117, 1531530])


def _closed_index_subsets(u: DivisorPoset, size: int, beat: int | None = None
                          ) -> Iterator[tuple[tuple[int, ...], int]]:
    """Index tuples of the gcd-closed size-``size`` subsets of a gcd-closed
    universe (such as a full divisor list), in lexicographic order, each with
    its count of positive Psi values.

    A depth-first search extends the path P only by its candidates, the
    larger indices b with P + {b} gcd closed, and only while enough larger
    elements remain.  Each node carries its candidates as a bitmask: every
    index at the root, and when a is appended, the candidates b > a whose meet
    with a lies on the new path (the universe is gcd closed, so the meet of
    two indices is the highest one in both down-sets).  That suffices: if
    P + {b} is closed and the meet of a and b is in P + {a}, then
    P + {a, b} is closed.  The indices after a are grouped by their meet with
    a once per a (kept for the walk), so the child's candidates are the
    node's candidates in the groups of a's divisors on the new path.
    Each element appended gets w = x * Psi(x) from the recursion over its
    strict divisors on the path and from the crosscut over the elements it
    covers on the path (VerificationError if they differ), and the positive
    count is carried down the path, so a leaf only reads it.

    With an int ``beat``, only the sets whose count exceeds the best so far
    are yielded: the best starts at ``beat`` and rises with each yield.  Each
    element appended adds at most 1 to the count, so the walk leaves a node,
    before computing another weight, once its reach is no more than the best.
    With ``beat=None`` the best stays -1, and only nodes with no completion
    are left.

    The reach is the count plus the places left, less the single-cover
    places still to fill.  A member of a gcd-closed set S that covers one
    member y alone has w = 1 - x / y < 0 by the crosscut, and S has at least
    L = ceil(log2 |S|) such members.  Let J(x) be the single-cover members
    that divide x; J(a) <= J(b) implies a | b, by induction on a.  It holds
    for the least member, which divides every member, and for a single-cover
    a, which lies in J(a).  If a covers c1 != c2, then J(ci) <= J(a), so c1
    and c2 divide b by induction, and so gcd(a, b), which is in S; were it
    below a, it would lie below one cover of a, so c1 = c2.  So x -> J(x) is
    one-to-one and |S| <= 2^|J|.  A single-cover member on the path stays
    one, as later elements are larger, so the walk carries their number.

    A candidate whose strict divisors on the path all divide the highest of
    them, x_h, covers x_h alone and fills one of those places (a first
    element has none and w = 1).  So its child has the node's reach while
    such places are unfilled, and after that the count plus the places left,
    less one.  Where that is no more than the best, the candidate is skipped
    before either weight is computed.

    Every element b of a completion of P + {a} is a candidate of its child:
    the gcd of b and a path element is in the set and no larger than that
    element, so it is on the path.  So a candidate is skipped when its child
    has fewer candidates than places left, and the loop ends once fewer
    candidates than places left remain.
    """
    k, els, down = u.n, u.elements, u._down
    w = [0] * k              # w of each universe index on the current path
    chosen: list[int] = []
    best = -1 if beat is None else beat    # every count beats -1
    floor = (size - 1).bit_length()        # single-cover members of any set
    after: dict[int, list[int]] = {}  # a -> by; by[m] has bit b - a - 1 if b > a meets a in m

    def after_by_meet(a: int) -> list[int]:
        da, by = down[a], [0] * (a + 1)
        for i, db in enumerate(down[a + 1:]):
            by[(da & db).bit_length() - 1] |= 1 << i
        return by

    def rec(mask: int, cands: int, plus: int, ones: int
            ) -> Iterator[tuple[tuple[int, ...], int]]:
        nonlocal best
        left = size - len(chosen)
        if not left:
            if plus > best:
                if beat is not None:
                    best = plus
                yield tuple(chosen), plus
            return
        reach = plus + left - max(0, floor - ones)
        while cands:            # peel the lowest bit: candidates ascending
            if reach <= best or cands.bit_count() < left:
                return
            a, cands = (cands & -cands).bit_length() - 1, cands & cands - 1  # cands: after a
            da = down[a]
            strict = da & mask
            one = strict > 0 and not strict & ~down[strict.bit_length() - 1]
            if one and plus + left - 1 <= best:
                continue
            grown, kids = mask | 1 << a, 0
            if left > 1:        # the child's candidates, from disjoint groups
                by = after.get(a) or after.setdefault(a, after_by_meet(a))
                on_path = da & grown
                while on_path:  # the groups are disjoint, so | adds them
                    kids |= by[(on_path & -on_path).bit_length() - 1]
                    on_path &= on_path - 1
                kids = kids << a + 1 & cands
                if kids.bit_count() < left - 1:
                    continue
            x, pairs, below = els[a], [], strict
            while below:        # the strict divisors on the path, ascending
                pairs.append((els[b := (below & -below).bit_length() - 1], w[b]))
                below &= below - 1
            w[a] = _w_by_recursion(x, pairs)
            covers = [els[b] for b in _covers(strict, down)]
            _verify(w[a] == _w_by_crosscut(x, covers), "the two Psi routes disagreed at %s", x)
            chosen.append(a)
            yield from rec(grown, kids, plus + (w[a] > 0), ones + one)
            chosen.pop()

    return rec(0, (1 << k) - 1, 0, 0)


#: The most divisors a universe may have: its poset takes a gcd for every pair.
_MAX_UNIVERSE_DIVISORS = 4096


def _universe_poset(universe: int) -> DivisorPoset:
    """The poset of the divisors of ``universe``; BadParamsError, before any
    is listed, when there are more than _MAX_UNIVERSE_DIVISORS of them."""
    pairs = _factor(universe)
    count = math.prod(e + 1 for _, e in pairs)
    if count > _MAX_UNIVERSE_DIVISORS:
        raise BadParamsError(f"universe {_shown(universe)} has {count} divisors, more than "
                             f"the {_MAX_UNIVERSE_DIVISORS} allowed")
    return DivisorPoset(_divisors_of(pairs))


def enumerate_gcd_closed(universe: int, size: int) -> Iterator[DivisorPoset]:
    """Stream all gcd-closed subsets of the divisors of ``universe`` with
    exactly ``size`` elements, in lexicographic order of their element lists
    (at most 4,096 divisors, else BadParamsError)."""
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise BadParamsError(f"need integer size >= 1, got {_shown(size)}")
    u = _universe_poset(universe)
    for idxs, _ in _closed_index_subsets(u, size):
        yield DivisorPoset(u.elements[i] for i in idxs)


class SearchResult(namedtuple("SearchResult", "n universes max_iplus witness")):
    """Best positive-eigenvalue count found for a given size (a certified
    lower bound on the true maximum) and the first witness attaining it."""

    __slots__ = ()


def search_max_iplus(n: int, universes: Iterable[int] | None = None) -> SearchResult:
    """Scan all gcd-closed size-n subsets of the given divisor universes and
    report the maximal count of positive eigenvalues of the lcm matrix.

    The reported value is a lower bound on the maximum over all gcd-closed
    sets of size n; the witness is the first maximizer in universe order then
    lexicographic order, so results are reproducible.  The count of a set is
    the number of its positive Psi values (Sylvester's law of inertia).  They
    come from the enumerator's prefix tree, one integer x * Psi(x) per tree
    node, each checked by the recursion and by Rota's crosscut theorem;
    VerificationError if the two routes disagree.  The walk is bounded by the
    best count so far, across universes too.  A universe may have at most
    4,096 divisors (BadParamsError).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadParamsError(f"need integer n >= 1, got {_shown(n)}")
    universes = tuple(universes) if universes is not None else DEFAULT_SEARCH_UNIVERSES
    if not universes:
        raise BadParamsError("need at least one universe")
    best = -1
    witness: tuple[int, ...] | None = None
    # Each yield beats the best so far, which carries into the next universe:
    # a set met again there has the same count, so it is not yielded again,
    # and the first maximizer stays the witness.
    for u in universes:
        p = _universe_poset(u)
        for idxs, best in _closed_index_subsets(p, n, beat=best):
            witness = tuple(p.elements[i] for i in idxs)
    if witness is None:
        raise BadParamsError(
            f"no gcd-closed subset of size {_shown(n)} inside universes "
            f"[{', '.join(map(_shown, universes))}]")
    return SearchResult(n, universes, best, DivisorPoset(witness))


def is_cube_isomorphic(p: DivisorPoset) -> bool:
    """True when the divisibility order of the set is the cube: a bottom,
    three atoms, three elements each over a distinct pair of atoms, a top.

    On a gcd-closed set of 8 the down-set sizes 1, 2, 2, 2, 4, 4, 4, 8 force
    it.  A member with 4 lies above exactly two atoms, as only the bottom and
    the atoms have smaller down-sets.  Two such members over the same pair
    would have their gcd in the set, above both atoms: a fifth member below one.
    """
    return p.n == 8 and p.gcd_closed and \
        sorted(map(int.bit_count, p._down)) == [1, 2, 2, 2, 4, 4, 4, 8]
