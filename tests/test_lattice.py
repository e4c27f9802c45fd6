"""Poset construction, closure, meets, width, and DOT output."""

from __future__ import annotations

import math
from decimal import Decimal
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlattice import (
    BadFoldCountError,
    BadParamsError,
    DivisorPoset,
    EmptyInputError,
    MeetOutsideSetError,
    NonIntegerExponentError,
    NonPositiveElementError,
    NotDoubleChainGeneratorError,
    SubPoset,
    VerificationError,
    build_poset,
    classical_set,
    classify_psi_sign,
    core_set,
    decompose_chains,
    enumerate_gcd_closed,
    families,
    gcd_closure,
    grid_family,
    has_antichain_3,
    is_gcd_closed,
    is_r_fold_gcd_closed,
    meet,
    meet_closure,
    mobius_closed_form,
    power_lcm_matrix,
    search_max_iplus,
    squarefree_pairs_family,
    to_dot,
    width,
)
from lcmlattice.lattice import _verify


def exhaustive_width(sp: SubPoset) -> int:
    """Maximum antichain size by brute force.  Only for small subposets."""
    ms = sp.members
    assert len(ms) <= 12
    best = 0
    for mask in range(1 << len(ms)):
        chosen = [ms[k] for k in range(len(ms)) if mask >> k & 1]
        if all(not (sp.parent.leq(a, b) or sp.parent.leq(b, a))
               for a, b in combinations(chosen, 2)):
            best = max(best, len(chosen))
    return best


def brute_covered(els: tuple[int, ...], members, i: int) -> tuple[int, ...]:
    """The members that x_i covers, from the definition: x_j | x_i, j != i,
    and no member strictly between them."""
    return tuple(j for j in members
                 if j != i and els[i] % els[j] == 0
                 and not any(k not in (i, j) and els[k] % els[j] == 0
                             and els[i] % els[k] == 0 for k in members))


def pairwise_close(have, op) -> tuple[int, ...]:
    """Reference closure: grow have until it holds op(a, b) for every pair
    a, b in it, by a worklist over pairs; sorted."""
    have = set(have)
    queue = list(have)
    while queue:
        a = queue.pop()
        for b in list(have):
            c = op(a, b)
            if c not in have:
                have.add(c)
                queue.append(c)
    return tuple(sorted(have))


def meet_outcome(close, p: DivisorPoset, subset):
    """The closure, or MeetOutsideSetError if closing raised it."""
    try:
        return close(p, subset)
    except MeetOutsideSetError:
        return MeetOutsideSetError


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            build_poset([])

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveElementError):
            build_poset([1, 0, 3])
        with pytest.raises(NonPositiveElementError):
            build_poset([-4])

    def test_non_integer_rejected(self):
        with pytest.raises(NonPositiveElementError):
            build_poset([1, 2.5])  # type: ignore[list-item]
        with pytest.raises(NonPositiveElementError):
            build_poset([True, 2])  # type: ignore[list-item]

    @pytest.mark.parametrize("x, shown", [
        (0, "0"), ("a", "'a'"), (-10 ** 18, "-1000000000000000000"),  # 20 characters
        (-10 ** 19, "-1000000000000000000... (21 characters)"),
        ("b" * 30, "'bbbbbbbbbbbbbbbbbbb... (32 characters)"),
    ])
    def test_a_rejected_element_longer_than_20_characters_is_cut(self, x, shown):
        for route in (build_poset, gcd_closure):
            with pytest.raises(NonPositiveElementError) as exc:
                route([1, x])
            assert str(exc.value) == f"elements must be positive integers, got {shown}"

    def test_dedupe_and_sort(self):
        p = build_poset([6, 2, 1, 6, 3, 2])
        assert p.elements == (1, 2, 3, 6)
        assert p.n == 4

    def test_index_and_contains(self):
        p = build_poset([1, 2, 6])
        assert p.index(6) == 2
        assert 2 in p and 5 not in p
        with pytest.raises(ValueError):
            p.index(5)

    def test_equality_and_hash(self):
        assert build_poset([2, 1]) == build_poset([1, 2, 2])
        assert hash(build_poset([2, 1])) == hash(build_poset([1, 2]))
        assert build_poset([1, 2]) != build_poset([1, 3])


class TestOrder:
    def test_leq_is_divisibility(self):
        p = build_poset([1, 2, 3, 6])
        i6 = p.index(6)
        assert p.leq(p.index(2), i6) and p.leq(p.index(3), i6)
        assert not p.leq(p.index(2), p.index(3))
        assert p.leq(i6, i6)

    def test_covers_diamond(self):
        p = build_poset([1, 2, 3, 6])
        assert [p.elements[j] for j in p.covered(p.index(6))] == [2, 3]
        assert [p.elements[j] for j in p.covered(p.index(2))] == [1]
        assert p.covered(p.index(1)) == ()

    def test_covers_skip_non_immediate(self):
        p = build_poset([1, 2, 4, 8])
        assert [p.elements[j] for j in p.covered(p.index(8))] == [4]

    def test_covers_form_antichain(self, corpus):
        for _, p in corpus:
            for i in range(p.n):
                cs = p.covered(i)
                for a, b in combinations(cs, 2):
                    assert not p.leq(a, b) and not p.leq(b, a)

    @given(st.lists(st.integers(min_value=1, max_value=120),
                    min_size=1, max_size=14), st.data())
    @settings(max_examples=200, deadline=None)
    def test_covers_match_definition_random(self, xs, data):
        p = build_poset(xs)
        els, full = p.elements, range(p.n)
        for i in full:
            assert p.covered(i) == brute_covered(els, full, i)
        sp = SubPoset(p, data.draw(st.sets(st.sampled_from(full))))
        for m in sp.members:
            assert sp.covered(m) == brute_covered(els, sp.members, m)


class TestClosure:
    def test_is_gcd_closed(self):
        assert is_gcd_closed(build_poset([1, 2, 3, 6]))
        assert not is_gcd_closed(build_poset([2, 3]))
        assert not is_gcd_closed(build_poset([1, 2, 15, 42]))
        assert is_gcd_closed(build_poset([7]))

    def test_closure_examples(self):
        assert gcd_closure([2, 3]) == (1, 2, 3)
        assert gcd_closure([1, 2, 15, 42]) == (1, 2, 3, 15, 42)
        assert gcd_closure([4, 6, 10]) == (2, 4, 6, 10)

    def test_closure_idempotent(self):
        xs = [12, 18, 30, 45]
        once = gcd_closure(xs)
        assert gcd_closure(once) == once
        assert is_gcd_closed(build_poset(once))

    def test_closure_adds_only_necessary_values(self):
        # Every added value must arise as a gcd of two closure members, so the
        # closure is contained in any gcd-closed superset.
        xs = [12, 18, 30, 45]
        closed = gcd_closure(xs)
        for v in set(closed) - set(xs):
            assert any(math.gcd(a, b) == v
                       for a, b in combinations(closed, 2))

    def test_closure_validates(self):
        with pytest.raises(EmptyInputError):
            gcd_closure([])
        with pytest.raises(NonPositiveElementError):
            gcd_closure([0, 3])

    @given(st.lists(st.integers(min_value=1, max_value=3000),
                    min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_closure_properties_random(self, xs):
        closed = gcd_closure(xs)
        assert set(xs) <= set(closed)
        assert is_gcd_closed(build_poset(closed))
        assert gcd_closure(closed) == closed

    @given(st.lists(st.integers(min_value=1, max_value=5000),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_closure_matches_pairwise_reference(self, xs):
        assert gcd_closure(xs) == pairwise_close(xs, math.gcd)


class TestMeet:
    def test_meet_inside(self):
        p = build_poset([1, 2, 3, 6])
        assert p.elements[meet(p, p.index(2), p.index(3))] == 1
        assert p.elements[meet(p, p.index(6), p.index(2))] == 2

    def test_meet_outside_raises(self):
        p = build_poset([1, 2, 15, 42])
        with pytest.raises(MeetOutsideSetError):
            meet(p, p.index(15), p.index(42))  # gcd is 3, absent
        with pytest.raises(MeetOutsideSetError):
            meet_closure(build_poset([2, 3, 6]), [0, 1])  # gcd(2, 3) is absent

    def test_meet_closure(self):
        p = build_poset([1, 2, 3, 5, 6, 10, 15, 30])
        sub = meet_closure(p, [p.index(6), p.index(10), p.index(15)])
        assert tuple(p.elements[j] for j in sub) == (1, 2, 3, 5, 6, 10, 15)

    def test_meet_closure_of_chain_is_itself(self):
        p = build_poset([1, 2, 4, 8])
        idxs = [p.index(2), p.index(8)]
        assert meet_closure(p, idxs) == tuple(sorted(idxs))
        assert meet_closure(p, []) == ()

    @given(st.lists(st.integers(min_value=1, max_value=360),
                    min_size=1, max_size=12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_meet_closure_matches_pairwise_reference(self, xs, data):
        # The sets are mostly not gcd closed, so both sides often raise; they
        # must raise on the same subsets and agree everywhere else.
        p = build_poset(xs)
        subset = data.draw(st.lists(st.sampled_from(range(p.n)), max_size=6))
        reference = meet_outcome(
            lambda q, s: pairwise_close(s, partial(meet, q)), p, subset)
        assert meet_outcome(meet_closure, p, subset) == reference


class TestWidth:
    def test_width_examples(self):
        p = build_poset([1, 2, 3, 5, 6, 10, 15, 30])
        assert width(SubPoset(p, range(p.n))) == 3  # {2,3,5} or {6,10,15}
        assert width(SubPoset(p, [p.index(v) for v in (1, 2, 6, 30)])) == 1
        assert width(SubPoset(p, [])) == 0

    def test_width_matches_exhaustive_on_corpus(self, corpus):
        for _, p in corpus:
            if p.n > 12:
                continue
            sp = SubPoset(p, range(p.n))
            assert width(sp) == exhaustive_width(sp)

    @given(st.lists(st.integers(min_value=1, max_value=500),
                    min_size=1, max_size=9))
    @settings(max_examples=150, deadline=None)
    def test_width_matches_exhaustive_random(self, xs):
        p = build_poset(xs)
        sp = SubPoset(p, range(p.n))
        assert width(sp) == exhaustive_width(sp)

    @given(st.lists(st.integers(min_value=1, max_value=500),
                    min_size=1, max_size=9))
    @settings(max_examples=150, deadline=None)
    def test_antichain3_iff_width_over_two(self, xs):
        p = build_poset(xs)
        sp = SubPoset(p, range(p.n))
        assert has_antichain_3(sp) == (width(sp) >= 3)


class TestSubPoset:
    def test_restricted_covers(self):
        p = build_poset([1, 2, 4, 8])
        sp = SubPoset(p, [p.index(1), p.index(8)])
        # With 2 and 4 removed, 8 covers 1 directly inside the subposet.
        assert sp.covered(p.index(8)) == (p.index(1),)

    @pytest.mark.parametrize("i", [1, 2, -1, 4])
    def test_covered_of_a_non_member_raises_key_error(self, i):
        # The covers are computed when asked; a non-member still has none.
        p = build_poset([1, 2, 4, 8])
        with pytest.raises(KeyError):
            SubPoset(p, [0, 3]).covered(i)

    def test_members_sorted_and_sized(self):
        p = build_poset([1, 2, 3, 6])
        sp = SubPoset(p, [3, 1])
        assert sp.members == (1, 3)
        assert sp.size == 2
        assert sp.values() == (2, 6)


class TestDot:
    def test_dot_chain(self):
        expected = (
            'digraph hasse {\n'
            '  rankdir=BT;\n'
            '  "1";\n'
            '  "2";\n'
            '  "6";\n'
            '  "1" -> "2";\n'
            '  "2" -> "6";\n'
            '}\n'
        )
        assert to_dot(build_poset([1, 2, 6])) == expected

    def test_dot_diamond_edges(self):
        out = to_dot(build_poset([1, 2, 3, 6]))
        assert '"2" -> "6";' in out and '"3" -> "6";' in out
        assert '"1" -> "6";' not in out  # only cover edges


BIG = 10 ** 5000  # past the 4,300 digits that str(int) allows by default
CUBE = build_poset([1, 2, 3, 5, 6, 10, 15, 30 * BIG])  # its top generates no double chain


def _digits(v: int) -> str:
    return str(Decimal(v))


@pytest.mark.parametrize("patches, call, error, text", [
    ((), lambda: build_poset([1, -BIG]), NonPositiveElementError,
     "elements must be positive integers, got -1000000000000000000... (5002 characters)"),
    ((), lambda: decompose_chains(CUBE, 7), NotDoubleChainGeneratorError,
     f"element {_digits(30 * BIG)}: core of its covered set has width > 2"),
    ((), lambda: mobius_closed_form(CUBE, 7), NotDoubleChainGeneratorError,
     f"element {_digits(30 * BIG)}: core of its covered set has width > 2"),
    ((), lambda: classify_psi_sign(CUBE, 7), NotDoubleChainGeneratorError,
     f"element {_digits(30 * BIG)} does not generate a double chain"),
    ((), lambda: meet(build_poset([2 * BIG, 3 * BIG]), 0, 1), MeetOutsideSetError,
     f"gcd({_digits(2 * BIG)}, {_digits(3 * BIG)}) = {_digits(BIG)} is not in the set"),
    ((), lambda: build_poset([1]).index(BIG), ValueError,
     f"{_digits(BIG)} is not an element of the set"),
    ((), lambda: SubPoset(CUBE, [BIG]), ValueError, f"index {_digits(BIG)} outside parent poset"),
    ((), lambda: meet_closure(CUBE, [BIG]), ValueError, f"index {_digits(BIG)} outside poset"),
    ((), lambda: _verify(False, "the routes disagreed at %s", BIG), VerificationError,
     f"the routes disagreed at {_digits(BIG)}"),
    ((), lambda: is_r_fold_gcd_closed(CUBE, BIG), BadFoldCountError,
     f"fold count must be an integer in 0..7, got {_digits(BIG)}"),
    ((), lambda: power_lcm_matrix(CUBE, -BIG), NonIntegerExponentError,
     f"exponent must be non-negative, got -{_digits(BIG)}"),
    # No base witnesses a prime, and no prime past 4,300 digits is cheap to
    # test, so the bases are taken away.
    ((("_MILLER_RABIN_BASES", ()),), lambda: families.is_prime(BIG + 1), BadParamsError,
     f"cannot decide whether {_digits(BIG + 1)} is prime"),
    ((), lambda: grid_family(BIG, 3, 2), BadParamsError,
     f"grid primes must be prime, got {_digits(BIG)}"),
    ((), lambda: grid_family(2, 3, -BIG), BadParamsError,
     f"grid needs integer m >= 2, got -{_digits(BIG)}"),
    ((("is_prime", lambda v: True),), lambda: squarefree_pairs_family([BIG, BIG]), BadParamsError,
     f"primes must be pairwise distinct: [{_digits(BIG)}, {_digits(BIG)}]"),
    ((), lambda: families._factor(-BIG), BadParamsError,
     f"need a positive integer, got -{_digits(BIG)}"),
    # 67^2740 has 5,004 digits and no factor below 64; one rho step does not split it.
    ((("is_prime", lambda v: False), ("_RHO_BUDGET", 1)), lambda: families._factor(67 ** 2740),
     BadParamsError, f"cannot factor {_digits(67 ** 2740)}: it is composite"),
    ((), lambda: families._universe_poset(BIG), BadParamsError,
     f"universe {_digits(BIG)} has {5001 ** 2} divisors"),
    ((), lambda: classical_set(-BIG), BadParamsError, f"need integer n >= 1, got -{_digits(BIG)}"),
    ((), lambda: search_max_iplus(-BIG), BadParamsError,
     f"need integer n >= 1, got -{_digits(BIG)}"),
    ((), lambda: search_max_iplus(BIG, [6]), BadParamsError,
     f"no gcd-closed subset of size {_digits(BIG)} inside universes [6]"),
    ((), lambda: list(enumerate_gcd_closed(6, -BIG)), BadParamsError,
     f"need integer size >= 1, got -{_digits(BIG)}"),
], ids=["build_poset", "decompose_chains", "mobius_closed_form", "classify_psi_sign", "meet",
        "index", "SubPoset", "meet_closure", "_verify", "is_r_fold_gcd_closed",
        "power_lcm_matrix", "is_prime", "grid_prime", "grid_m", "distinct_primes", "_factor",
        "cannot_factor", "_universe_poset", "classical_set", "search_n", "search_no_subset",
        "enumerate_size"])
def test_a_message_names_a_value_of_any_size(patches, call, error, text, monkeypatch):
    # Each message names its value in full, and the error keeps its class,
    # not the interpreter's ValueError for ints past its digit limit.
    for name, value in patches:
        monkeypatch.setattr(families, name, value)
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and text in str(exc.value)


def test_members_of_any_size_are_written_in_full():
    # repr and DOT write each member in full, not the interpreter's ValueError
    # for ints past its digit limit; the digits are spelled out here.
    one = "1" + "0" * 5000  # BIG
    p = build_poset([1, BIG])
    assert repr(p) == f"DivisorPoset([1, {one}])"
    lines = ["digraph hasse {", "  rankdir=BT;", '  "1";', f'  "{one}";', f'  "1" -> "{one}";', "}"]
    assert to_dot(p) == "\n".join(lines) + "\n"
    core = core_set(build_poset([BIG, 2 * BIG, 3 * BIG, 6 * BIG]), 3)
    assert repr(core) == f"SubPoset(values=[{one}])"
