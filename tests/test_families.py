"""Named constructions, enumeration of closed sets, and the inertia search."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlattice import (
    DEFAULT_SEARCH_UNIVERSES,
    BadParamsError,
    DivisorPoset,
    VerificationError,
    build_poset,
    classical_set,
    cube_instances,
    divisors,
    enumerate_gcd_closed,
    families,
    gcd_closure,
    grid_family,
    incomparable_tops_instance,
    inertia_from_psi,
    is_cube_isomorphic,
    is_gcd_closed,
    psi,
    search_max_iplus,
    squarefree_pairs_family,
    structural_inertia,
    triple_prime_family,
)


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert len(divisors(210)) == 16
        assert len(divisors(2310)) == 32

    def test_validation(self):
        with pytest.raises(BadParamsError):
            divisors(0)

    def test_matches_brute_force(self):
        # Past 64 the factorization leaves trial division: 67 * 67 = 4489
        # and 67 * 149 = 9983 are split by Pollard's rho.
        for n in [*range(1, 10 ** 4 + 1), 999_983, 2 * 999_983]:
            assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)

    def test_products_of_primes_near_a_billion(self):
        primes = [998_244_353, 999_999_937, 1_000_000_007, 1_000_000_009]
        for i, p in enumerate(primes):
            for q in primes[i + 1:]:
                assert divisors(p * q) == (1, p, q, p * q)
            assert divisors(p * p) == (1, p, p * p)
        # A factor rho finds may itself be composite, and is split again.
        assert len(divisors(1009 * 10007 * 100003 * 1000003)) == 16
        assert len(divisors(67 ** 3 * 71 ** 2 * primes[0])) == 24

    def test_large_number_with_small_primes(self):
        # 2^18 * 5^18: trial division up to sqrt(n) would need 10^9 steps.
        divs = divisors(10 ** 18)
        assert len(divs) == 19 * 19
        assert list(divs) == sorted(set(divs))
        assert divs[:4] == (1, 2, 4, 5) and divs[-1] == 10 ** 18
        assert all(10 ** 18 % d == 0 for d in divs)
        # Past the Miller-Rabin bound, but nothing is left to decide.
        assert len(divisors(2 ** 100)) == 101

    def test_part_past_the_primality_bound_is_split_by_rho(self):
        # Above the Miller-Rabin bound with no factor below 64: the budgeted
        # rho splits it, and the composite parts it finds are split again.
        assert families._factor(1009 ** 5 * 1_000_003 ** 2) == [(1009, 5), (1_000_003, 2)]

    def test_the_first_step_with_a_gcd_above_one_decides(self):
        # 67 * 71: rho with c = 1 meets 67 at step 16 and 71 at step 25; the
        # first gcd above 1 gives 67, where moving on to c = 2 would find 71.
        assert families._rho_factor(67 * 71, math.inf) == 67

    def test_a_budget_one_step_short_is_refused(self):
        assert families._rho_factor(67 * 71, 15) is None
        assert families._rho_factor(67 * 71, 16) == 67

    def test_factor_matches_sympy_on_products_of_primes(self):
        # Products of 2 to 4 primes of 3 to 9 digits, from a fixed seed.
        rng = random.Random(7)
        for _ in range(100):
            n = math.prod(sympy.nextprime(rng.randrange(10 ** (k - 1), 9 * 10 ** (k - 1)))
                          for k in rng.choices(range(3, 10), k=rng.randint(2, 4)))
            assert families._factor(n) == sorted(sympy.factorint(n).items()), n


class TestIsPrime:
    def test_matches_trial_division(self):
        for n in range(-2, 10 ** 4 + 1):
            trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert families.is_prime(n) == trial, n

    def test_strong_pseudoprimes_are_composite(self):
        # 2047 = 23 * 89 passes base 2; 3215031751 = 151 * 751 * 28351 passes
        # bases 2, 3, 5 and 7.
        assert not families.is_prime(2047)
        assert not families.is_prime(3215031751)

    def test_large_values_match_sympy(self):
        limit = families._MILLER_RABIN_LIMIT
        for n in [10 ** 18 + 3, 10 ** 18 + 1, 2 ** 61 - 1, (2 ** 31 - 1) ** 2,
                  998244353 * 1000000007, limit - 1, limit - 2]:
            assert families.is_prime(n) == sympy.isprime(n), n

    def test_non_integers_are_not_prime(self):
        assert not families.is_prime(True)
        assert not families.is_prime(7.0)  # type: ignore[arg-type]

    def test_witness_decides_past_the_bound(self):
        # A Miller-Rabin witness proves compositeness at any size; the
        # trial-division bases decide multiples of themselves.
        assert not families.is_prime(10000000000037 * 20000000000021)
        assert not families.is_prime(families._MILLER_RABIN_LIMIT + 2)

    def test_refuses_to_guess_at_the_bound(self):
        with pytest.raises(BadParamsError, match="exact only below"):
            families.is_prime(families._MILLER_RABIN_LIMIT)
        with pytest.raises(BadParamsError, match="exact only below"):
            grid_family(2 ** 127 - 1, 3, 2)


class TestGrid:
    def test_smallest(self):
        assert grid_family(2, 3, 2).elements == (1, 2, 3, 6)

    def test_structure(self):
        p = grid_family(2, 3, 3)
        assert p.n == 9
        assert is_gcd_closed(p)
        assert p.elements == (1, 2, 3, 4, 6, 9, 12, 18, 36)

    def test_inertia_formula(self):
        for m in range(2, 7):
            triple = inertia_from_psi(grid_family(2, 3, m)).as_tuple()
            assert triple == ((m - 1) ** 2 + 1, 2 * m - 2, 0)

    def test_positive_count_dominates_as_grid_grows(self):
        # The rational-free structural path reaches m=8 (n=64) instantly
        # and shows the positive share (m²−2m+2)/m² approaching 1.
        for m in range(2, 9):
            triple = structural_inertia(grid_family(2, 3, m))
            assert triple is not None
            assert triple.as_tuple() == (m * m - 2 * m + 2, 2 * m - 2, 0)

    def test_validation(self):
        with pytest.raises(BadParamsError):
            grid_family(2, 2, 3)  # repeated prime
        with pytest.raises(BadParamsError):
            grid_family(4, 3, 3)  # not prime
        with pytest.raises(BadParamsError):
            grid_family(2, 3, 1)  # too small


class TestSquarefreePairs:
    def test_smallest(self):
        assert squarefree_pairs_family((2, 3)).elements == (1, 2, 3, 6)

    def test_structure(self):
        p = squarefree_pairs_family((2, 3, 5))
        assert p.elements == (1, 2, 3, 5, 6, 10, 15)
        assert is_gcd_closed(p)

    def test_inertia_formula(self):
        primes = (2, 3, 5, 7, 11, 13)
        for m in range(2, 7):
            triple = inertia_from_psi(squarefree_pairs_family(primes[:m])).as_tuple()
            assert triple == (1 + m * (m - 1) // 2, m, 0)

    def test_validation(self):
        with pytest.raises(BadParamsError):
            squarefree_pairs_family((2,))
        with pytest.raises(BadParamsError):
            squarefree_pairs_family((2, 2, 3))
        with pytest.raises(BadParamsError):
            squarefree_pairs_family((2, 9))


class TestTriplePrime:
    def test_size_is_cubed(self):
        assert triple_prime_family((5, 7), 2, 3, 2).n == 8
        assert triple_prime_family((5, 7, 11), 2, 3, 3).n == 27

    def test_gcd_closed(self):
        for m in (2, 3):
            assert is_gcd_closed(triple_prime_family((5, 7, 11)[:m], 2, 3, m))

    def test_inertia_formula(self):
        for m in (2, 3):
            p = triple_prime_family((5, 7, 11)[:m], 2, 3, m)
            expected = (m ** 3 - m ** 2 - m + 2, m ** 2 + m - 2, 0)
            assert inertia_from_psi(p).as_tuple() == expected

    @pytest.mark.parametrize("primes, q, r", [((5, 7, 11, 13), 2, 3), ((2, 3, 5, 7), 11, 13),
                                              ((97, 89, 83, 79), 3, 2), ((3, 11, 2, 29), 5, 7)])
    def test_m_cubed_closed_elements_for_any_distinct_primes(self, primes, q, r):
        # Unique factorization keeps the products distinct: no recount needed.
        for m in (2, 3, 4):
            p = triple_prime_family(primes, q, r, m)
            assert p.n == m ** 3 and is_gcd_closed(p)

    def test_validation(self):
        with pytest.raises(BadParamsError):
            triple_prime_family((5,), 2, 3, 2)  # not enough block primes
        with pytest.raises(BadParamsError):
            triple_prime_family((5, 7), 2, 2, 2)  # q repeated as r
        with pytest.raises(BadParamsError):
            triple_prime_family((5, 2), 2, 3, 2)  # q inside the block
        with pytest.raises(BadParamsError):
            triple_prime_family((5, 7), 2, 3, 1)


class TestCubesAndClassical:
    def test_cube_instances(self):
        cubes = cube_instances()
        assert len(cubes) == 3
        assert cubes[0].elements == (1, 2, 3, 5, 6, 10, 15, 30)
        for c in cubes:
            assert c.n == 8 and is_gcd_closed(c)

    def test_classical(self):
        assert classical_set(1).elements == (1,)
        assert classical_set(12).elements == tuple(range(1, 13))
        with pytest.raises(BadParamsError):
            classical_set(0)

    def test_incomparable_tops_instance(self):
        p = incomparable_tops_instance()
        assert is_gcd_closed(p)
        assert p.n == 10


class TestCubeRecognition:
    def test_known_cubes(self):
        for c in cube_instances():
            assert is_cube_isomorphic(c)
        assert is_cube_isomorphic(build_poset(divisors(30)))
        assert is_cube_isomorphic(build_poset(divisors(2 * 3 * 7)))

    def test_non_cubes(self):
        assert not is_cube_isomorphic(build_poset([1, 2, 3, 6]))      # wrong size
        assert not is_cube_isomorphic(classical_set(8))               # wrong shape
        assert not is_cube_isomorphic(build_poset(divisors(24)))      # wrong shape
        assert not is_cube_isomorphic(build_poset([1, 2, 4, 8, 16, 32, 64, 128]))
        assert not is_cube_isomorphic(build_poset([2, 3, 5, 7, 11, 13, 17, 19]))

    def test_cube_sizes_on_a_set_that_is_not_gcd_closed(self):
        # The cube's down-set sizes, but 42 and 66 are over the same pair of
        # atoms and their gcd 6 is missing.
        p = build_poset([1, 2, 3, 5, 15, 42, 66, 2310])
        assert sorted(map(int.bit_count, p._down)) == [1, 2, 2, 2, 4, 4, 4, 8]
        assert not is_cube_isomorphic(p)


class TestEnumeration:
    @pytest.mark.parametrize("universe,max_size", [(60, 5), (36, 5)])
    def test_counts_match_brute_force(self, universe, max_size):
        divs = divisors(universe)
        for size in range(1, max_size + 1):
            brute = {
                tuple(sorted(sub))
                for sub in combinations(divs, size)
                if is_gcd_closed(build_poset(sub))
            }
            fast = {p.elements for p in enumerate_gcd_closed(universe, size)}
            assert fast == brute

    def test_yields_are_closed_and_sized(self):
        seen = set()
        for p in enumerate_gcd_closed(210, 4):
            assert p.n == 4
            assert is_gcd_closed(p)
            assert set(p.elements) <= set(divisors(210))
            assert p.elements not in seen
            seen.add(p.elements)
        assert len(seen) == 321

    def test_validation(self):
        with pytest.raises(BadParamsError):
            list(enumerate_gcd_closed(210, 0))
        with pytest.raises(BadParamsError):
            list(enumerate_gcd_closed(0, 3))

    def test_bad_size_is_refused_before_the_universe_is_built(self):
        # The primes up to 53 give 65,536 divisors, past the cap; the error
        # still names the bad size, since size is checked first.
        universe = math.prod(sympy.primerange(2, 54))
        with pytest.raises(BadParamsError, match="need integer size >= 1"):
            next(enumerate_gcd_closed(universe, 0))


class TestSearch:
    def test_default_universes(self):
        assert DEFAULT_SEARCH_UNIVERSES == (210, 216)

    def test_singleton(self):
        r = search_max_iplus(1)
        assert r.max_iplus == 1
        assert r.witness.elements == (1,)

    def test_size_four(self):
        r = search_max_iplus(4)
        assert r.max_iplus == 2
        assert inertia_from_psi(r.witness).plus == 2

    def test_witness_inertia_matches_reported_max(self):
        for n in range(1, 6):
            r = search_max_iplus(n)
            assert inertia_from_psi(r.witness).plus == r.max_iplus
            assert r.witness.n == n

    def test_maximum_bounded_by_negative_count_floor(self):
        # Every closed set of size n has at least ⌈log₂ n⌉ members that cover
        # one member alone, each with a negative weight, so the best positive
        # count can never exceed n − ⌈log₂ n⌉.
        for n in range(2, 12):
            assert search_max_iplus(n).max_iplus <= n - (n - 1).bit_length()

    @pytest.mark.parametrize("n, universes", [
        *((n, DEFAULT_SEARCH_UNIVERSES) for n in (1, 2, 3, 4, 5, 6, 7, 9, 10, 11)),
        (8, (30030,)),
    ])
    def test_floor_is_attained(self, n, universes):
        # A count that reaches the floor is the maximum over every closed set
        # of size n, not only over the universes searched.
        assert search_max_iplus(n, universes).max_iplus == n - (n - 1).bit_length()

    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_single_cover_members_at_least_log2_of_size(self, xs):
        # x -> {single-cover members dividing x} is one-to-one on a closed
        # set, so n members need at least ⌈log₂ n⌉ of them, and each has a
        # negative weight.
        p = build_poset(gcd_closure(xs))
        floor = (p.n - 1).bit_length()
        assert sum(1 for i in range(p.n) if len(p.covered(i)) == 1) >= floor
        assert psi(p).inertia().minus >= floor

    def test_custom_universe(self):
        r = search_max_iplus(3, universes=(30,))
        assert r.max_iplus == 1
        assert r.universes == (30,)

    def test_no_candidates_raises(self):
        with pytest.raises(BadParamsError):
            search_max_iplus(20, universes=(6,))

    def test_whole_universe_is_the_only_answer(self):
        # Only one subset has all 64 divisors: the walk must reach it without
        # trying the branches that cannot fill 64 places.
        r = search_max_iplus(64, universes=(30030,))
        assert r.max_iplus == 32
        assert r.witness.elements == divisors(30030)

    def test_universe_with_too_many_divisors_raises_at_once(self):
        # The primorial of the first 13 primes has 2^13 divisors: the count
        # comes from its factorization, before any divisor is listed.
        primorial = math.prod(p for p in range(2, 42) if sympy.isprime(p))
        with pytest.raises(BadParamsError, match=f"universe {primorial} has 8192 "
                                                 f"divisors, more than the 4096"):
            search_max_iplus(2, universes=(primorial,))
        with pytest.raises(BadParamsError, match="8192 divisors"):
            next(enumerate_gcd_closed(primorial, 2))

    def test_divisor_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(families, "_MAX_UNIVERSE_DIVISORS", 8)
        assert search_max_iplus(2, universes=(30,)).max_iplus == 1
        with pytest.raises(BadParamsError, match="210 has 16 divisors"):
            search_max_iplus(2, universes=(30, 210))

    def test_size_past_the_universe_raises(self):
        with pytest.raises(BadParamsError, match="no gcd-closed subset of size 65"):
            search_max_iplus(65, universes=(30030,))

    @pytest.mark.parametrize("n, universes", [
        *(pytest.param(n, DEFAULT_SEARCH_UNIVERSES, id=f"{n}-default")
          for n in range(1, 8)),
        pytest.param(6, (2310,), id="6-2310"),
        # Every subset of the divisors of 30 comes again inside 210.
        pytest.param(4, (30, 210), id="4-30-210"),
    ])
    def test_matches_per_subset_reference(self, n, universes):
        # The reference builds each set and takes its inertia from psi: the
        # first maximizer in universe order, each set counted once.
        best, witness, seen = -1, None, set()
        for u in universes:
            for p in enumerate_gcd_closed(u, n):
                if p.elements in seen:
                    continue
                seen.add(p.elements)
                plus = inertia_from_psi(p).plus
                if plus > best:
                    best, witness = plus, p
        r = search_max_iplus(n, universes)
        assert (r.max_iplus, r.witness) == (best, witness)

    @pytest.mark.parametrize("n, universes", [
        (1, (6,)), (3, (30,)), (5, DEFAULT_SEARCH_UNIVERSES),
        (8, DEFAULT_SEARCH_UNIVERSES), (10, DEFAULT_SEARCH_UNIVERSES),
        (6, (2310,)), (7, (216, 210)), (4, (30, 210)), (5, (210, 30)),
        (64, (30030,)), (2, (6,)), (2, (30030,)), (2, (216, 210)),
        (2, DEFAULT_SEARCH_UNIVERSES),
        # The maximum reaches the floor, so each later node and universe stops
        # at once.
        (7, (2310,)), (9, DEFAULT_SEARCH_UNIVERSES), (6, (36, 2310)),
    ])
    def test_bound_matches_unbounded_walk(self, n, universes):
        # The reference walks every set with no bound and keeps the first
        # maximizer; the bounded search must find the same count and set.
        best, witness = -1, None
        for u in universes:
            p = build_poset(divisors(u))
            for idxs, plus in families._closed_index_subsets(p, n):
                if plus > best:
                    best, witness = plus, tuple(p.elements[i] for i in idxs)
        r = search_max_iplus(n, universes)
        assert (r.max_iplus, r.witness.elements) == (best, witness)

    def test_bound_yields_only_records(self):
        p = build_poset(divisors(210))
        every = list(families._closed_index_subsets(p, 6))
        records, best = [], -1
        for leaf in every:
            if leaf[1] > best:
                records.append(leaf)
                best = leaf[1]
        assert list(families._closed_index_subsets(p, 6, beat=-1)) == records
        assert list(families._closed_index_subsets(p, 6, beat=best)) == []
        assert [plus for _, plus in families._closed_index_subsets(p, 6, beat=1)] \
            == [plus for _, plus in records if plus > 1]

    def test_size_two_stops_at_the_first_set(self, monkeypatch):
        # The second element of a set covers only the first, so its weight
        # is negative and a 2-set counts at most 1: once the first set, with
        # count 1, is found, no node can beat it.
        calls = [0]
        real = families._w_by_recursion

        def counted(x, lower):
            calls[0] += 1
            return real(x, lower)
        monkeypatch.setattr(families, "_w_by_recursion", counted)
        r = search_max_iplus(2, (30030, 210))
        assert (r.max_iplus, r.witness.elements) == (1, (1, 2))
        assert calls[0] == 2

    def test_bound_skips_most_weights(self, monkeypatch):
        calls = [0]
        real = families._w_by_recursion

        def counted(x, lower):
            calls[0] += 1
            return real(x, lower)
        monkeypatch.setattr(families, "_w_by_recursion", counted)
        search_max_iplus(6, (2310,))
        bounded, calls[0] = calls[0], 0
        p = build_poset(divisors(2310))
        # With no bound the walk yields every gcd-closed set of the size.
        assert sum(1 for _ in families._closed_index_subsets(p, 6)) == 16_081
        assert 0 < 4 * bounded <= calls[0]
        # 3,218 with the reach bound alone, 1,032 with the single-cover skip.
        # The first set found counts 3 = 6 - ⌈log₂ 6⌉, so with the floor the
        # walk computes 7 weights in all.
        assert bounded == 7
        # At size 8 on the default universes the maximum, 4, stays below the
        # floor's 5, so the candidate count does the pruning: 811 without it.
        calls[0] = 0
        assert search_max_iplus(8).max_iplus == 4
        assert calls[0] == 484

    @pytest.mark.parametrize("args, weights", [((8,), 484), ((6, (2310,)), 7)])
    def test_walk_passes_each_weight_its_divisors_ascending(self, monkeypatch, args, weights):
        # The walk peels its masks bit by bit: each weight must get the strict
        # divisors of its element on the path in ascending order, and the
        # bounds must leave the same 484 and 7 weights as test_bound_skips_most_weights.
        calls = []
        real = families._w_by_recursion

        def spy(x, lower):
            lower = list(lower)
            calls.append((x, [y for y, _ in lower]))
            return real(x, lower)
        monkeypatch.setattr(families, "_w_by_recursion", spy)
        search_max_iplus(*args)
        assert len(calls) == weights
        for x, ys in calls:
            assert ys == sorted(ys) and len(set(ys)) == len(ys)
            assert all(x % y == 0 and y < x for y in ys)

    def test_single_cover_candidate_gets_no_weight_where_a_positive_is_needed(
            self, monkeypatch):
        # On the path 1 2 3 with one place left and best 1, only a positive
        # weight can beat the best.  4 covers 2 alone there, so its weight is
        # never computed; 6 covers 2 and 3, so its weight is, and it is
        # positive.  Its count, 2, is 4 less the floor of ⌈log₂ 4⌉ = 2
        # single-cover members, so no node can beat it and the walk ends.
        seen = []
        real = families._w_by_recursion

        def spy(x, lower):
            seen.append(x)
            return real(x, lower)
        monkeypatch.setattr(families, "_w_by_recursion", spy)
        u = build_poset([1, 2, 3, 4, 6])
        assert list(families._closed_index_subsets(u, 4, beat=1)) == [((0, 1, 2, 4), 2)]
        assert seen == [1, 2, 3, 6]
        seen.clear()
        # Unbounded, 4 gets its weight on each path that a 4-set through it
        # extends.
        assert len(list(families._closed_index_subsets(u, 4))) == 3
        assert 4 in seen

    def test_candidate_with_too_few_child_candidates_gets_no_weight(
            self, monkeypatch):
        # After the path 1, a 3-set through 4 needs one more element above 4,
        # and 6 is the only one, but gcd(4, 6) = 2 is off the path: 4 has no
        # candidate to follow it, so its weight there is never computed, even
        # with no bound.  After 1 2 it has the candidate 6.
        seen = []
        real = families._w_by_recursion

        def spy(x, lower):
            seen.append((x, tuple(y for y, _ in lower)))
            return real(x, lower)
        monkeypatch.setattr(families, "_w_by_recursion", spy)
        u = build_poset([1, 2, 4, 6])
        assert [idxs for idxs, _ in families._closed_index_subsets(u, 3)] == [
            (0, 1, 2), (0, 1, 3), (1, 2, 3)]
        assert (4, (1,)) not in seen
        assert (4, (1, 2)) in seen

    @given(st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_walk_matches_brute_force_over_combinations(self, xs):
        # An ascending prefix of a gcd-closed set is gcd closed, so cutting
        # the closure keeps a gcd-closed universe of at most 10 elements.
        u = build_poset(gcd_closure(xs)[:10])
        els = u.elements
        for size in range(1, u.n + 1):
            brute = []
            for idxs in combinations(range(u.n), size):
                sub = DivisorPoset(els[i] for i in idxs)
                if sub.gcd_closed:
                    brute.append((idxs, inertia_from_psi(sub).plus))
            assert list(families._closed_index_subsets(u, size)) == brute
            records, best = [], -1
            for leaf in brute:
                if leaf[1] > best:
                    records.append(leaf)
                    best = leaf[1]
            assert list(families._closed_index_subsets(u, size, beat=-1)) == records

    def test_leaf_counts_match_psi_inside_any_closed_universe(self, corpus):
        # Any gcd-closed list can stand in for a divisor list.  The second
        # cube has a zero weight, which must not count as positive.
        for _, p in corpus:
            if p.n > 12:
                continue
            for size in range(1, p.n + 1):
                for idxs, plus in families._closed_index_subsets(p, size):
                    values = [p.elements[i] for i in idxs]
                    assert plus == inertia_from_psi(build_poset(values)).plus

    def test_disagreeing_weight_routes_raise(self, monkeypatch):
        real = families._w_by_crosscut
        monkeypatch.setattr(families, "_w_by_crosscut",
                            lambda x, covers: real(x, covers) + 1)
        with pytest.raises(VerificationError, match="Psi routes disagreed at 1"):
            search_max_iplus(4)
