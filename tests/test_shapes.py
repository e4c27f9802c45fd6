"""Every shape of a gcd-closed set up to 8 elements, as an exhaustive corpus.

The order (S, |) of a gcd-closed set is a finite meet-semilattice, and every
finite meet-semilattice is such an order: give each member T a private prime
p_T and let x_S be the product of p_T over the members T <= S; then
gcd(x_S, x_U) = x_meet(S, U).  So the shapes of size n are the lattices on
n + 1 elements with the top removed, and their counts 1, 1, 2, 5, 15, 53,
222, 1,078 for n = 1..8 are the lattice counts of J. Heitzig and
J. Reinhold, "Counting finite lattices", Algebra Universalis 48 (2002)
(OEIS A006966): the independent check of the enumeration below.

A shape is a tuple of down-set bitmasks, each member's own bit included.  It
grows by one new maximal element over a non-empty antichain A, kept when
every member y has a meet with it, that is when the down-set of A cut with
the down-set of y is itself a member's down-set.  Removing a maximal element
of a meet-semilattice leaves one, so every shape of size n + 1 arises.
Duplicates are removed by a canonical form: colour refinement on down-set
and up-set colours, then the least encoding over every ordering inside each
colour class.
"""

from __future__ import annotations

import json
import math
from functools import cache
from itertools import permutations, product

import pytest

from lcmlattice import build_poset, cli, core_set, generates_double_chain, is_cube_isomorphic, \
    mobius_closed_form, mobius_recursive, mobius_via_zeta_inverse, width
from lcmlattice.lattice import _bits

A006966 = (1, 1, 2, 5, 15, 53, 222, 1078)  # lattices on n + 1 elements, n = 1..8
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _canonical(down: tuple[int, ...]) -> tuple[int, ...]:
    n = len(down)
    up = [sum(1 << j for j in range(n) if down[j] >> i & 1) for i in range(n)]
    colour, classes = [0] * n, 1
    while True:  # the old colour leads, so classes only split, never merge
        sig = [(colour[i], tuple(sorted(colour[j] for j in _bits(down[i]))),
                tuple(sorted(colour[j] for j in _bits(up[i])))) for i in range(n)]
        rank = {s: r for r, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) == classes:
            break
        classes = len(rank)
    groups = [[i for i in range(n) if colour[i] == c] for c in range(classes)]
    best = None
    for orders in product(*map(permutations, groups)):
        order = [v for order in orders for v in order]
        pos = {v: k for k, v in enumerate(order)}
        code = tuple(sum(1 << pos[j] for j in _bits(down[v])) for v in order)
        best = code if best is None or code < best else best
    return best


@cache
def shapes(n: int) -> tuple[tuple[int, ...], ...]:
    """The shapes of size n, one canonical down-mask tuple each."""
    if n == 1:
        return ((1,),)
    found = set()
    for down in shapes(n - 1):
        member = {d: i for i, d in enumerate(down)}
        for a in range(1, 1 << (n - 1)):
            if any(down[i] & a & ~(1 << i) for i in _bits(a)):
                continue  # not an antichain
            below = 0
            for i in _bits(a):
                below |= down[i]
            if all(below & d in member for d in down):
                found.add(_canonical((*down, below | 1 << (n - 1))))
    return tuple(sorted(found))


def realize(down: tuple[int, ...], squares: bool = False):
    """The gcd-closed set of the shape with a private prime p_T per member T:
    x_S is the product of p_T^e_T over T <= S, where e_T = 1, or with
    ``squares`` e_T = 2 on every other member.  The meet's down-set is the
    intersection of the down-sets, so gcd(x_S, x_U) = x_meet(S, U) either way."""
    p = build_poset(math.prod(PRIMES[j] ** (1 + (squares and j % 2)) for j in _bits(d))
                    for d in down)
    assert p.gcd_closed and p.n == len(down)
    return p


@pytest.mark.parametrize("n", range(1, 9))
def test_shape_counts_are_the_lattice_counts(n):
    assert len(shapes(n)) == A006966[n - 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_matches_the_recursive_table_at_every_generator(n):
    for down in shapes(n):
        p = realize(down)
        mu = mobius_recursive(p)
        for i in range(n):
            if generates_double_chain(p, i):
                assert mobius_closed_form(p, i) == mu.column(i), (p.elements, i)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_shape_up_to_seven_is_structural_and_oracle_verified(n, capsys):
    # The paper's theorem then makes each LCM matrix nonsingular with inertia
    # (n - s, s, 0), s the members that cover exactly one member: the
    # Bourque-Ligh statement for n <= 7 over every shape, checked by the
    # report's sign checks and the oracle's pivots.
    for down in shapes(n):
        p = realize(down)
        assert all(generates_double_chain(p, i) for i in range(n)), p.elements
        assert cli.main(["analyze", "--json", *map(str, p.elements)]) == 0
        single = sum(len(p.covered(i)) == 1 for i in range(n))
        assert json.loads(capsys.readouterr().out)["inertia"] == {
            "plus": n - single, "minus": single, "zero": 0, "method": "oracle-verified"}


def test_at_eight_the_one_shape_with_a_non_generator_is_the_cube():
    others = [p for p in map(realize, shapes(8))
              if not all(generates_double_chain(p, i) for i in range(8))]
    assert len(others) == 1 and is_cube_isomorphic(others[0])


def test_the_cube_is_the_one_shape_up_to_eight_recognized_on_both_labellings():
    # is_cube_isomorphic reads down-set sizes only; over every shape they pick
    # out the cube's, whichever primes label it.
    cube = _canonical(build_poset([1, 2, 3, 5, 6, 10, 15, 30])._down)
    for squares in (False, True):
        assert [down for n in range(1, 9) for down in shapes(n)
                if is_cube_isomorphic(realize(down, squares))] == [cube]


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_matches_the_zeta_and_recursive_columns_on_both_labellings(n):
    for down in shapes(n):
        for p in (realize(down), realize(down, squares=True)):
            mu, zeta = mobius_recursive(p), mobius_via_zeta_inverse(p)
            for i in range(n):
                if generates_double_chain(p, i):
                    col = mobius_closed_form(p, i)
                    assert col == mu.column(i) == zeta.column(i), (p.elements, i)


def _report(p, capsys) -> dict:
    assert cli.main(["analyze", "--json", *map(str, p.elements)]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("n", range(1, 8))
def test_the_second_labelling_up_to_seven_is_oracle_verified(n, capsys):
    # Other labels, the same shapes: the same inertia (n - s, s, 0).
    for down in shapes(n):
        p = realize(down, squares=True)
        single = sum(len(p.covered(i)) == 1 for i in range(n))
        assert _report(p, capsys)["inertia"] == {
            "plus": n - single, "minus": single, "zero": 0, "method": "oracle-verified"}


def test_every_report_at_eight_exits_zero_on_the_second_labelling(capsys):
    for down in shapes(8):
        assert _report(realize(down, squares=True), capsys)["inertia"]["method"] == \
            "oracle-verified"


def test_at_eight_the_one_core_of_width_three_is_at_the_cube_top():
    wide = [(p, i) for p in map(realize, shapes(8)) for i in range(8)
            if width(core_set(p, i)) > 2]
    assert [(is_cube_isomorphic(p), i, width(core_set(p, i))) for p, i in wide] == [(True, 7, 3)]
