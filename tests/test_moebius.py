"""Mobius function: recursion, zeta-matrix inversion, and the closed form."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import mobius as nt_mobius

from lcmlattice import (
    NotDoubleChainGeneratorError,
    build_poset,
    cube_instances,
    decompose_chains,
    divisors,
    gcd_closure,
    generates_double_chain,
    incomparable_tops_instance,
    meet_closure,
    mobius_closed_form,
    mobius_recursive,
    mobius_via_zeta_inverse,
)


class TestRecursive:
    def test_chain(self):
        p = build_poset([1, 2, 4])
        t = mobius_recursive(p)
        assert t[(0, 0)] == t[(1, 1)] == t[(2, 2)] == 1
        assert t[(0, 1)] == t[(1, 2)] == -1
        assert t[(0, 2)] == 0
        assert t[(1, 0)] == 0  # below the diagonal

    def test_diamond(self):
        p = build_poset([1, 2, 3, 6])
        t = mobius_recursive(p)
        i6 = p.index(6)
        assert t[(p.index(1), i6)] == 1
        assert t[(p.index(2), i6)] == t[(p.index(3), i6)] == -1

    def test_column_accessor(self):
        p = build_poset([1, 2, 3, 6])
        col = mobius_recursive(p).column(p.index(6))
        assert col == {0: 1, 1: -1, 2: -1, 3: 1}

    def test_column_sums_vanish_above_bottom(self, corpus):
        # Summing mu(x_j, x_i) over all x_j below x_i gives zero unless
        # x_i is its own interval: the defining property of the recursion.
        for _, p in corpus:
            t = mobius_recursive(p)
            for i in range(p.n):
                below = [j for j in range(p.n) if p.leq(j, i)]
                total = sum(t[(j, i)] for j in below)
                assert total == (1 if len(below) == 1 else 0)


class TestNumberTheoreticOracle:
    @pytest.mark.parametrize("universe", [60, 210, 360])
    def test_full_divisor_lattice_matches_classical_mobius(self, universe):
        # On the full divisor set the interval function depends only on the
        # quotient, so an independent number-theory implementation pins every
        # entry.
        p = build_poset(divisors(universe))
        t = mobius_recursive(p)
        for i in range(p.n):
            for j in range(p.n):
                if p.leq(j, i):
                    expected = int(nt_mobius(p.elements[i] // p.elements[j]))
                else:
                    expected = 0
                assert t[(j, i)] == expected


class TestZetaInverse:
    def test_agrees_with_recursion(self, corpus):
        for _, p in corpus:
            assert mobius_via_zeta_inverse(p).values == mobius_recursive(p).values

    def test_product_with_zeta_is_identity(self, corpus):
        for _, p in corpus:
            m = mobius_via_zeta_inverse(p).values
            for j in range(p.n):
                for i in range(p.n):
                    acc = sum(
                        (1 if p.leq(j, k) else 0) * m[k][i] for k in range(p.n))
                    assert acc == (1 if i == j else 0)

    @given(st.one_of(
        st.lists(st.sampled_from(divisors(720720)), min_size=2, max_size=14),
        st.lists(st.integers(min_value=1, max_value=300), min_size=2, max_size=12)))
    @settings(max_examples=150, deadline=None)
    def test_sets_not_gcd_closed_random(self, xs):
        # The back-substitution stops each column at its own row; on a poset
        # that is not a lattice the rows above must still come out right.
        p = build_poset(xs)
        assume(not p.gcd_closed)
        m = mobius_via_zeta_inverse(p).values
        assert m == mobius_recursive(p).values
        for j in range(p.n):
            for i in range(p.n):
                acc = sum(m[k][i] for k in range(p.n) if p.elements[k] % p.elements[j] == 0)
                assert acc == (1 if i == j else 0)


class TestClosedForm:
    def test_matches_recursion_on_doubly_attached_instance(self):
        p = build_poset([1, 2, 3, 4, 6, 9, 36])
        t = mobius_recursive(p)
        i = p.index(36)
        col = mobius_closed_form(p, i)
        assert col == {j: t[(j, i)] for j in range(p.n)}
        assert col[p.index(2)] == 1 and col[p.index(3)] == 1
        assert col[p.index(1)] == 0

    def test_incomparable_tops_instance_exercises_meet_bump(self):
        # Two chain tops that do not divide one another, with no cover
        # attached twice: the meet of the tops picks up an extra +1.
        p = incomparable_tops_instance()
        i = p.n - 1
        d = decompose_chains(p, i)
        assert d.doubly_attached is None
        ta, tb = d.top_a, d.top_b
        assert not p.leq(ta, tb) and not p.leq(tb, ta)
        col = mobius_closed_form(p, i)
        t = mobius_recursive(p)
        assert col == {j: t[(j, i)] for j in range(p.n)}
        # The meet of the tops is the bottom, whose eta is zero, so its value
        # in this column is the bump alone.
        import math
        meet_val = math.gcd(p.elements[ta], p.elements[tb])
        k = p.index(meet_val)
        assert d.eta[k] == 0 and col[k] == 1

    def test_every_top_case_is_reached_and_matches_zeta(self, corpus, enum210):
        # The closed form corrects the chain tops in one of four ways; the
        # corpus and the pool reach each, and each column is the zeta route's.
        seen = set()
        for p in [q for _, q in corpus] + enum210:
            zeta = mobius_via_zeta_inverse(p)
            for i in range(p.n):
                try:
                    d = decompose_chains(p, i)
                except NotDoubleChainGeneratorError:
                    continue
                ta, tb = d.top_a, d.top_b
                if ta is None:
                    continue
                if not d.chain_b:
                    case = "chain B empty"
                elif p.leq(ta, tb) or p.leq(tb, ta):
                    case = "comparable tops"
                elif d.doubly_attached is None:
                    case = "incomparable tops"
                else:
                    case = "incomparable tops, doubly attached"
                assert mobius_closed_form(p, i) == zeta.column(i), (p, i, case)
                seen.add(case)
        assert seen == {"chain B empty", "comparable tops", "incomparable tops",
                        "incomparable tops, doubly attached"}

    def test_raises_for_non_generating_element(self):
        p = cube_instances()[0]
        with pytest.raises(NotDoubleChainGeneratorError):
            mobius_closed_form(p, p.index(30))

    def test_matches_recursion_everywhere_on_corpus(self, corpus):
        for _, p in corpus:
            t = mobius_recursive(p)
            for i in range(p.n):
                if not generates_double_chain(p, i):
                    continue
                col = mobius_closed_form(p, i)
                assert col == {j: t[(j, i)] for j in range(p.n)}

    def test_support_confined_to_closure_of_covers(self, enum210):
        for p in enum210:
            t = mobius_recursive(p)
            for i in range(p.n):
                closed = set(meet_closure(p, p.covered(i)))
                for j in range(p.n):
                    if t[(j, i)] != 0:
                        assert j == i or j in closed

    @given(st.lists(st.integers(min_value=1, max_value=2000),
                    min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_three_routes_agree_random(self, xs):
        p = build_poset(gcd_closure(xs))
        rec = mobius_recursive(p)
        assert mobius_via_zeta_inverse(p).values == rec.values
        for i in range(p.n):
            if generates_double_chain(p, i):
                col = mobius_closed_form(p, i)
                assert col == {j: rec[(j, i)] for j in range(p.n)}
