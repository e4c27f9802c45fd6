"""Chain-pair structure of an element's cover set.

For a member x of a gcd-closed set S, take its covered set C (the maximal
strict divisors of x inside S) and close C under meets.  The elements added
by that closure (the "core") determine whether x admits a decomposition of
the core into at most two disjoint chains, which in turn drives the
closed-form Mobius column and the sign of the Psi value at x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .lattice import (
    DivisorPoset,
    SubPoset,
    _verify,
    gcd_closure,
    meet_closure,
)


class NotDoubleChainGeneratorError(ValueError):
    """The element's core is not coverable by two chains (width exceeds 2)."""


class BadFoldCountError(ValueError):
    """The fold count r is outside the valid range 0..n-1."""


@dataclass(frozen=True)
class ChainDecomposition:
    """Result of splitting an element's core into two chains.

    All element references are indices into ``poset``.  ``chain_a`` holds the
    bottom of the core (the meet of the whole covered set) when the core is
    non-empty; ``top_b`` falls back to ``top_a`` when chain B is empty.
    ``attach`` maps each core element to the covered-set elements that cover
    it inside the meet closure; ``eta`` holds the counts.  At most one
    covered-set element may attach to both chains (``doubly_attached``).
    """

    poset: DivisorPoset
    owner: int
    core: SubPoset
    chain_a: tuple[int, ...]
    chain_b: tuple[int, ...]
    attach: dict[int, tuple[int, ...]] = field(repr=False)
    eta: dict[int, int] = field(repr=False)
    top_a: int | None
    top_b: int | None
    doubly_attached: int | None


def core_set(p: DivisorPoset, i: int) -> SubPoset:
    """Meet closure of the covered set of x_i, minus the covered set itself."""
    c = p.covered(i)
    closed = meet_closure(p, c)
    return SubPoset(p, set(closed) - set(c))


def generates_double_chain(p: DivisorPoset, i: int) -> bool:
    """True when the core of x_i has no antichain of three (width at most 2)."""
    return _split_into_chains(p, core_set(p, i)) is not None


def _is_chain(p: DivisorPoset, seq: tuple[int, ...]) -> bool:
    return all(p.leq(a, b) for a, b in zip(seq, seq[1:]))


def _split_into_chains(p: DivisorPoset, core: SubPoset
                       ) -> tuple[list[int], list[int]] | None:
    """Split a core into chains A and B bottom-up; None when its width exceeds 2.

    Each step places the minimal elements of what remains: one goes to A if
    it fits, else to B; two (ascending) go to A and B, else swapped; three
    are an antichain.  Every feasible placement leaves the same pair of chain
    tops, so the pass fails only when no two-chain partition exists.  The
    core's minimum is placed first, so it starts chain A.
    """
    chain_a: list[int] = []
    chain_b: list[int] = []

    def fits(chain: list[int], u: int) -> bool:
        return not chain or p.leq(chain[-1], u)

    rest = core._mask
    while rest:
        mins = [u for u in core.members
                if rest >> u & 1 and p._down[u] & rest == 1 << u]
        if len(mins) == 1:
            u = mins[0]
            if fits(chain_a, u):
                chain_a.append(u)
            elif fits(chain_b, u):
                chain_b.append(u)
            else:
                return None
        elif len(mins) == 2:
            u, w = mins
            if fits(chain_a, u) and fits(chain_b, w):
                chain_a.append(u)
                chain_b.append(w)
            elif fits(chain_a, w) and fits(chain_b, u):
                chain_a.append(w)
                chain_b.append(u)
            else:
                return None
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
    core = core_set(p, i)
    split = _split_into_chains(p, core)
    if split is None:
        raise NotDoubleChainGeneratorError(
            f"element {p.elements[i]}: core of its covered set has width > 2")
    chain_a, chain_b = split

    closure_sp = SubPoset(p, core.members + c)
    attach: dict[int, list[int]] = {m: [] for m in core.members}
    doubly: int | None = None
    for z in c:
        below = closure_sp.covered(z)
        for k in below:
            attach[k].append(z)
        if len(below) >= 2:
            _verify(len(below) == 2, "a cover attached to three core elements")
            _verify(doubly is None, "two covers attached to both chains")
            doubly = z

    _verify(_is_chain(p, tuple(chain_a)) and _is_chain(p, tuple(chain_b)),
            "chain A or chain B is not a chain")
    _verify(sorted(chain_a + chain_b) == list(core.members),
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
        _verify(not core.members and not eta,
                "an element with at most one cover has a non-empty core")

    if doubly is not None:
        q, r = closure_sp.covered(doubly)
        _verify(top_a is not None and top_b is not None,
                "a cover attached to both chains, but a chain has no top")
        _verify(not (p.leq(top_a, top_b) or p.leq(top_b, top_a)),
                "chain tops are comparable although a cover attaches to both")
        tops_meet = math.gcd(p.elements[top_a], p.elements[top_b])
        qr_meet = math.gcd(p.elements[q], p.elements[r])
        _verify(tops_meet == qr_meet,
                "chain tops and doubly-attached covers have different meets")

    return ChainDecomposition(
        poset=p,
        owner=i,
        core=core,
        chain_a=tuple(chain_a),
        chain_b=tuple(chain_b),
        attach={m: tuple(zs) for m, zs in attach.items()},
        eta=eta,
        top_a=top_a,
        top_b=top_b,
        doubly_attached=doubly,
    )


def is_a_set(p: DivisorPoset) -> bool:
    """True when the pairwise gcds of distinct members form a single chain."""
    els = p.elements
    meets = sorted({math.gcd(els[a], els[b])
                    for a in range(len(els)) for b in range(a)})
    return all(b % a == 0 for a, b in zip(meets, meets[1:]))


def is_meet_tree(p: DivisorPoset) -> bool:
    """True when the Hasse diagram of the gcd closure of the set is a tree."""
    closed = p if p.gcd_closed else DivisorPoset(gcd_closure(p.elements))
    edges = sum(len(closed.covered(i)) for i in range(closed.n))
    return edges == closed.n - 1


def is_r_fold_gcd_closed(p: DivisorPoset, r: int) -> bool:
    """True when the r smallest elements form a divisor chain whose maximum
    divides the minimum of the rest, and the rest is gcd closed.

    r = 0 degenerates to plain gcd closedness.  Raises BadFoldCountError for
    r outside 0..n-1.
    """
    n = p.n
    if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r <= n - 1:
        raise BadFoldCountError(f"fold count must be an integer in 0..{n - 1}, got {r!r}")
    if r == 0:
        return p.gcd_closed
    els = p.elements
    head, tail = els[:r], els[r:]
    if not all(b % a == 0 for a, b in zip(head, head[1:])):
        return False
    if tail[0] % head[-1] != 0:
        return False
    present = set(tail)
    return all(math.gcd(tail[a], tail[b]) in present
               for a in range(len(tail)) for b in range(a))
