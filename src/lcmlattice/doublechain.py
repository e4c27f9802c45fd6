"""Chain-pair structure of an element's cover set.

For a member x of a gcd-closed set S, take its covered set C (the maximal
strict divisors of x inside S) and close C under meets.  The elements added
by that closure (the "core") determine whether x admits a decomposition of
the core into at most two disjoint chains, which in turn drives the
closed-form Mobius column and the sign of the Psi value at x.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import (
    DivisorPoset,
    SubPoset,
    _bits,
    _covers,
    _shown,
    _verify,
    gcd_closure,
    meet,
    meet_closure,
)


class NotDoubleChainGeneratorError(ValueError):
    """The element's core is not coverable by two chains (width exceeds 2)."""


class BadFoldCountError(ValueError):
    """The fold count r is outside the valid range 0..n-1."""


class ChainDecomposition(namedtuple("ChainDecomposition", "poset owner core chain_a chain_b "
                                    "attach eta top_a top_b doubly_attached")):
    """Result of splitting an element's core into two chains.

    All element references are indices into ``poset``.  ``chain_a`` holds the
    bottom of the core (the meet of the whole covered set) when the core is
    non-empty; ``top_b`` falls back to ``top_a`` when chain B is empty.
    ``attach`` maps each core element to the covered-set elements that cover
    it inside the meet closure; ``eta`` holds the counts.  At most one
    covered-set element may attach to both chains (``doubly_attached``).
    """

    __slots__ = ()


def _core(p: DivisorPoset, i: int) -> tuple[tuple[int, ...], int]:
    """The core's members, ascending, and its mask, from one meet closure."""
    c = p.covered(i)
    members = tuple([m for m in meet_closure(p, c) if m not in c])
    return members, sum([1 << m for m in members])


def core_set(p: DivisorPoset, i: int) -> SubPoset:
    """Meet closure of the covered set of x_i, minus the covered set itself."""
    return SubPoset._make((p, _core(p, i)[0]))  # sorted member indices: nothing to check


def generates_double_chain(p: DivisorPoset, i: int) -> bool:
    """True when the core of x_i has no antichain of three (width at most 2)."""
    return _split_into_chains(p, _core(p, i)[1]) is not None


def _is_chain(p: DivisorPoset, seq: tuple[int, ...]) -> bool:
    return all(map(p.leq, seq, seq[1:]))


def _fits(down: tuple[int, ...], chain: list[int], u: int) -> bool:
    """True when u may go on top of chain: it is empty or its top divides x_u."""
    return not chain or bool(down[u] >> chain[-1] & 1)


def _split_into_chains(p: DivisorPoset, rest: int) -> tuple[list[int], list[int]] | None:
    """Split the core with mask rest into chains A and B bottom-up; None when
    its width exceeds 2.

    Each step peels the minimal elements of what remains, read off their
    down-sets: one goes to A if it fits, else to B; two (ascending) go to A
    and B, else swapped; three are an antichain.  Every feasible placement
    leaves the same pair of chain tops, so the pass fails only when no
    two-chain partition exists.  The core's minimum comes first: it starts A.
    """
    down, chain_a, chain_b = p._down, [], []
    while rest:
        mins = [u for u in _bits(rest) if down[u] & rest == 1 << u]
        if len(mins) == 1:
            u = mins[0]
            if _fits(down, chain_a, u):
                chain_a.append(u)
            elif _fits(down, chain_b, u):
                chain_b.append(u)
            else:
                return None
        elif len(mins) == 2:
            u, w = mins
            if not (_fits(down, chain_a, u) and _fits(down, chain_b, w)):
                if not (_fits(down, chain_a, w) and _fits(down, chain_b, u)):
                    return None
                u, w = w, u
            chain_a.append(u)
            chain_b.append(w)
        else:
            return None
        for u in mins:
            rest ^= 1 << u
    return chain_a, chain_b


def decompose_chains(p: DivisorPoset, i: int) -> ChainDecomposition:
    """Split the core of x_i into two chains and record attachments.

    Raises NotDoubleChainGeneratorError when the core has width above two.
    """
    c = p.covered(i)
    members, mask = _core(p, i)
    if (split := _split_into_chains(p, mask)) is None:
        raise NotDoubleChainGeneratorError(
            f"element {_shown(p.elements[i])}: core of its covered set has width > 2")
    chain_a, chain_b = map(tuple, split)

    # C is an antichain, so what a cover z covers inside core + C lies in the core.
    attach: dict[int, tuple[int, ...]] = dict.fromkeys(members, ())
    doubly: int | None = None
    for z in c if members else ():  # with no core, no cover attaches
        below = _covers(p._down[z] & mask, p._down)
        for k in below:
            attach[k] += (z,)
        if len(below) >= 2:
            _verify(len(below) == 2, "a cover attached to three core elements")
            _verify(doubly is None, "two covers attached to both chains")
            doubly, (q, r) = z, below

    _verify(_is_chain(p, chain_a) and _is_chain(p, chain_b),
            "chain A or chain B is not a chain")
    _verify(sorted(chain_a + chain_b) == list(members),
            "chains A and B do not partition the core")

    top_a = chain_a[-1] if chain_a else None
    top_b = chain_b[-1] if chain_b else top_a
    eta = {m: len(zs) for m, zs in attach.items()}
    if len(c) >= 2:
        # With two or more covers, the closure's minimum sits strictly below
        # them all, so every cover attaches to at least one core element.
        _verify(sum(eta.values()) == len(c) + (1 if doubly is not None else 0),
                "attachment counts do not add up to the covers")
    else:
        _verify(not members and not eta,
                "an element with at most one cover has a non-empty core")

    if doubly is not None:
        _verify(top_a is not None and top_b is not None,
                "a cover attached to both chains, but a chain has no top")
        _verify(not (p.leq(top_a, top_b) or p.leq(top_b, top_a)),
                "chain tops are comparable although a cover attaches to both")
        _verify(meet(p, top_a, top_b) == meet(p, q, r),
                "chain tops and doubly-attached covers have different meets")

    return ChainDecomposition(p, i, SubPoset._make((p, members)), chain_a, chain_b, attach, eta,
                              top_a, top_b, doubly)


def is_a_set(p: DivisorPoset) -> bool:
    """True when the pairwise gcds of distinct members form a single chain.
    They do exactly when the members of the gcd closure that lie below
    another member form a chain, and then the two chains are equal."""
    closed = p if p.gcd_closed else DivisorPoset(gcd_closure(p.elements))
    top = set(_covers((1 << closed.n) - 1, closed._down))
    return _is_chain(closed, tuple(j for j in range(closed.n) if j not in top))


def is_meet_tree(p: DivisorPoset) -> bool:
    """True when the Hasse diagram of the gcd closure of the set is a tree."""
    closed = p if p.gcd_closed else DivisorPoset(gcd_closure(p.elements))
    edges = sum(len(closed.covered(i)) for i in range(closed.n))
    return edges == closed.n - 1


def is_r_fold_gcd_closed(p: DivisorPoset, r: int) -> bool:
    """True when x_0 | x_1 | ... | x_r and the rest, from x_r on, is gcd
    closed: the r smallest elements form a divisor chain below a gcd-closed
    rest, and r = 0 is plain gcd closedness.  BadFoldCountError for r
    outside 0..n-1.  O(1): the poset computes the length of its bottom
    divisor chain and the suffix minima of its lowest meets once."""
    n = p.n
    if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r <= n - 1:
        raise BadFoldCountError(f"fold count must be an integer in 0..{n - 1}, got {_shown(r)}")
    chain, low = p._fold_bounds
    return r <= chain and low[r] >= r
