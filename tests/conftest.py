"""Shared fixtures: a named corpus of gcd-closed posets and an enumerated pool.

Every corpus member is gcd closed, so matrix-level functions apply to all of
them.  The enumerated pool holds every gcd-closed subset of the divisors of
210 with at most six elements, giving property tests a dense, unbiased sample
of small instances.
"""

from __future__ import annotations

import pytest

from lcmlattice import (
    DivisorPoset,
    build_poset,
    classical_set,
    cube_instances,
    divisors,
    enumerate_gcd_closed,
    grid_family,
    incomparable_tops_instance,
    squarefree_pairs_family,
    triple_prime_family,
)

# The ten-element set whose top's core is {1, 2, 6, 10}: a width-2 core whose
# bottom has a single cover inside the core (323 covers 1 but sits in the
# covered set, not the core).  Exercises the general chain-splitting path.
SINGLE_CORE_COVER_SET = (1, 2, 6, 10, 30, 42, 110, 130, 323, 9699690)

# A chain with extra leaves whose gcd structure is a tree: 1-2, then 4, 6, 10
# all covering 2.  Every element above the bottom has exactly one cover, so
# the negative inertia index hits its n-1 ceiling.
MEET_TREE_SET = (1, 2, 4, 6, 10)

# Every element generates a double chain, and the top's core {1, 2, 3, 6}
# splits as A = 1, 2, 6 and B = 3: two chain tops, 3 below 6.
COMPARABLE_TOPS_SET = (1, 2, 3, 6, 22, 30, 39, 42, 30030)


def _named_corpus() -> list[tuple[str, DivisorPoset]]:
    items: list[tuple[str, DivisorPoset]] = []
    for m in range(2, 6):
        items.append((f"grid-m{m}", grid_family(2, 3, m)))
    all_primes = (2, 3, 5, 7, 11)
    for m in range(2, 6):
        items.append((f"squarefree-m{m}", squarefree_pairs_family(all_primes[:m])))
    for m in range(2, 4):
        items.append((f"triple-m{m}", triple_prime_family((5, 7, 11)[:m], 2, 3, m)))
    for n in range(1, 41):
        items.append((f"classical-{n}", classical_set(n)))
    for k, cube in enumerate(cube_instances(), start=1):
        items.append((f"cube-{k}", cube))
    items.append(("incomparable-tops", incomparable_tops_instance()))
    items.append(("diamond", build_poset([1, 2, 3, 6])))
    items.append(("meet-tree", build_poset(MEET_TREE_SET)))
    items.append(("single-core-cover", build_poset(SINGLE_CORE_COVER_SET)))
    # Two sets whose top has a cover attached to a pair of core elements.
    items.append(("doubly-attached", build_poset([1, 2, 3, 4, 6, 9, 36])))
    items.append(("doubly-attached-wide", build_poset([1, 2, 3, 6, 10, 21, 210])))
    # A top covering 22, 30, 39 and 42 whose two chain tops are comparable.
    items.append(("comparable-tops", build_poset(COMPARABLE_TOPS_SET)))
    return items


_CORPUS = _named_corpus()


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, DivisorPoset]]:
    return _CORPUS


@pytest.fixture(scope="session")
def enum210() -> list[DivisorPoset]:
    pool: list[DivisorPoset] = []
    for size in range(1, 7):
        pool.extend(enumerate_gcd_closed(210, size))
    return pool


def corpus_ids() -> list[str]:
    return [label for label, _ in _CORPUS]


def corpus_posets() -> list[DivisorPoset]:
    return [p for _, p in _CORPUS]
