"""Chain decompositions of cores, attachment counts, and set classifiers."""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcmlattice import (
    BadFoldCountError,
    ChainDecomposition,
    MeetOutsideSetError,
    NotDoubleChainGeneratorError,
    SubPoset,
    build_poset,
    core_set,
    cube_instances,
    decompose_chains,
    divisors,
    gcd_closure,
    generates_double_chain,
    incomparable_tops_instance,
    is_a_set,
    is_meet_tree,
    is_r_fold_gcd_closed,
    meet_closure,
    width,
)
from lcmlattice.lattice import _covers
from conftest import SINGLE_CORE_COVER_SET
from test_shapes import realize, shapes


def two_chain_partition_exists(sp: SubPoset) -> bool:
    """Brute force: can the subposet be split into at most two chains?"""
    ms = sp.members
    assert len(ms) <= 12

    def is_chain(seq):
        return all(sp.parent.leq(a, b) for a, b in zip(seq, seq[1:]))

    for mask in range(1 << len(ms)):
        a = [ms[k] for k in range(len(ms)) if mask >> k & 1]
        b = [ms[k] for k in range(len(ms)) if not mask >> k & 1]
        if is_chain(a) and is_chain(b):
            return True
    return False


class TestCoreAndGeneration:
    def test_cube_top_core_width_three(self):
        p = cube_instances()[0]
        top = p.index(30)
        core = core_set(p, top)
        assert core.values() == (1, 2, 3, 5)
        assert width(core) == 3
        assert not generates_double_chain(p, top)
        with pytest.raises(NotDoubleChainGeneratorError):
            decompose_chains(p, top)

    def test_cube_non_top_elements_generate(self):
        p = cube_instances()[0]
        for i in range(p.n - 1):
            assert generates_double_chain(p, i)

    def test_minimum_has_empty_core(self):
        p = build_poset([1, 2, 3, 6])
        d = decompose_chains(p, p.index(1))
        assert d.core.size == 0
        assert d.chain_a == () and d.chain_b == ()
        assert d.top_a is None and d.top_b is None

    def test_single_cover_has_empty_core(self):
        p = build_poset([1, 2, 4])
        d = decompose_chains(p, p.index(4))
        assert d.core.size == 0
        assert d.eta == {}
        assert d.doubly_attached is None


class TestDecomposition:
    # Which chain is A is part of the JSON output.  Beyond a plain example,
    # these reach the split's two rarer placements: a single minimal element
    # that fits only chain B, and two minimal elements placed swapped.
    @pytest.mark.parametrize("elements, top, chain_a, chain_b", [
        ((1, 2, 3, 4, 6, 9, 36), 36, (1, 2), (3,)),
        (incomparable_tops_instance().elements, 1531530, (1, 2), (3, 9)),
        ((1, 2, 3, 9, 10, 38, 69, 70, 99, 117, 170, 669278610), 669278610,
         (1, 2, 10), (3, 9)),
    ])
    def test_chain_labels(self, elements, top, chain_a, chain_b):
        p = build_poset(elements)
        d = decompose_chains(p, p.index(top))
        vals = lambda t: tuple(p.elements[j] for j in t)
        assert (vals(d.chain_a), vals(d.chain_b)) == (chain_a, chain_b)

    def test_frozen_example_with_doubly_attached(self):
        p = build_poset([1, 2, 3, 4, 6, 9, 36])
        d = decompose_chains(p, p.index(36))
        assert {p.elements[k]: v for k, v in d.eta.items()} == {1: 0, 2: 2, 3: 2}
        assert p.elements[d.doubly_attached] == 6
        assert p.elements[d.top_a] == 2 and p.elements[d.top_b] == 3
        # The doubly attached cover's two core covers meet where the tops meet.
        assert math.gcd(2, 3) == math.gcd(p.elements[d.top_a], p.elements[d.top_b])

    def test_core_bottom_with_single_core_cover(self):
        # The core {1, 2, 6, 10} has width two, yet its bottom has only one
        # cover inside the core: the splitter cannot rely on the bottom having
        # two, so this guards the general minimal-element processing.
        p = build_poset(SINGLE_CORE_COVER_SET)
        top = p.index(9699690)
        core = core_set(p, top)
        assert core.values() == (1, 2, 6, 10)
        assert width(core) == 2
        bottom = p.index(1)
        assert core.covered(p.index(2)) == (bottom,)
        assert [c for c in core.members if bottom in core.covered(c)] == [p.index(2)]
        d = decompose_chains(p, top)
        assert sorted(d.chain_a + d.chain_b) == list(core.members)
        # A core element may sit below many covers: 30, 110, and 130 all
        # cover 10, so eta(10) = 3 even though the core has width two.
        assert {p.elements[k]: v for k, v in d.eta.items()} == \
            {1: 1, 2: 0, 6: 2, 10: 3}
        assert p.elements[d.doubly_attached] == 30

    def test_chains_partition_core_into_chains(self, corpus):
        for _, p in corpus:
            for i in range(p.n):
                if not generates_double_chain(p, i):
                    continue
                d = decompose_chains(p, i)
                assert sorted(d.chain_a + d.chain_b) == list(d.core.members)
                for chain in (d.chain_a, d.chain_b):
                    for a, b in zip(chain, chain[1:]):
                        assert p.leq(a, b)

    def test_three_way_agreement(self, corpus, enum210):
        posets = [p for _, p in corpus] + enum210
        for p in posets:
            for i in range(p.n):
                gen = generates_double_chain(p, i)
                w = width(core_set(p, i))
                assert gen == (w <= 2)
                try:
                    decompose_chains(p, i)
                    decomposed = True
                except NotDoubleChainGeneratorError:
                    decomposed = False
                assert decomposed == gen

    def test_split_matches_exhaustive_partition_oracle(self, enum210):
        for p in enum210:
            for i in range(p.n):
                core = core_set(p, i)
                if core.size > 12:
                    continue
                can_split = two_chain_partition_exists(core)
                assert can_split == (width(core) <= 2)
                if generates_double_chain(p, i):
                    assert can_split

    def test_attachment_bounds(self, corpus, enum210):
        for p in [p for _, p in corpus] + enum210:
            for i in range(p.n):
                if not generates_double_chain(p, i):
                    continue
                d = decompose_chains(p, i)
                # Each cover of x_i sits immediately above at most two core
                # elements (three would form a forbidden antichain in the
                # core); at most one cover attaches twice.
                above_counts = {z: 0 for z in p.covered(i)}
                for zs in d.attach.values():
                    for z in zs:
                        above_counts[z] += 1
                assert all(v <= 2 for v in above_counts.values())
                twice = [z for z, v in above_counts.items() if v == 2]
                assert len(twice) <= 1
                assert (d.doubly_attached is not None) == (len(twice) == 1)
                if twice:
                    assert d.doubly_attached == twice[0]
                covered = p.covered(i)
                if len(covered) >= 2:
                    expected = len(covered) + (1 if d.doubly_attached is not None else 0)
                    assert sum(d.eta.values()) == expected

    def test_doubly_attached_forces_incomparable_tops(self, corpus, enum210):
        for p in [p for _, p in corpus] + enum210:
            for i in range(p.n):
                if not generates_double_chain(p, i):
                    continue
                d = decompose_chains(p, i)
                if d.doubly_attached is None:
                    continue
                ta, tb = d.top_a, d.top_b
                assert ta is not None and tb is not None and ta != tb
                assert not p.leq(ta, tb) and not p.leq(tb, ta)

    @given(st.lists(st.integers(min_value=1, max_value=2000),
                    min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_three_way_agreement_random(self, xs):
        p = build_poset(gcd_closure(xs))
        for i in range(p.n):
            gen = generates_double_chain(p, i)
            assert gen == (width(core_set(p, i)) <= 2)
            if gen:
                d = decompose_chains(p, i)
                assert sorted(d.chain_a + d.chain_b) == list(d.core.members)

    @given(st.one_of(
        st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=7),
        st.lists(st.sampled_from(divisors(720720)), min_size=1, max_size=7)))
    @settings(max_examples=150, deadline=None)
    def test_attach_matches_brute_force(self, xs):
        # attach[m] lists the covers z of x_i for which m is a maximal core
        # element dividing z, with the core found by closing the covers'
        # values under gcd.
        p = build_poset(gcd_closure(xs))
        els = p.elements
        for i in range(p.n):
            if not generates_double_chain(p, i):
                continue
            d = decompose_chains(p, i)
            covers = _covered_brute(els, i)
            closed = {els[z] for z in covers}
            while (more := closed | {math.gcd(a, b) for a in closed for b in closed}) != closed:
                closed = more
            core = sorted(els.index(v) for v in closed - {els[z] for z in covers})
            assert list(d.attach) == core == list(d.core.members)
            for m in core:
                assert d.attach[m] == tuple(
                    z for z in covers if els[z] % els[m] == 0
                    and not any(k != m and els[k] % els[m] == 0 and els[z] % els[k] == 0
                                for k in core))


def _scan_decomposition(p, i) -> tuple:
    """The fields of decompose_chains(p, i) as the split made them when it
    scanned the core's members: the core is the meet closure of the covered
    set minus that set, and each step takes the members of what remains that
    have no other member of it below them."""
    c = p.covered(i)
    core = SubPoset(p, set(meet_closure(p, c)) - set(c))
    chain_a, chain_b, rest = [], [], set(core.members)

    def fits(chain, u):
        return not chain or p.leq(chain[-1], u)

    while rest:
        mins = [u for u in core.members
                if u in rest and not any(v != u and p.leq(v, u) for v in rest)]
        if len(mins) == 1 and (fits(chain_a, mins[0]) or fits(chain_b, mins[0])):
            (chain_a if fits(chain_a, mins[0]) else chain_b).append(mins[0])
        elif len(mins) == 2 and fits(chain_a, mins[0]) and fits(chain_b, mins[1]):
            chain_a.append(mins[0])
            chain_b.append(mins[1])
        elif len(mins) == 2 and fits(chain_a, mins[1]) and fits(chain_b, mins[0]):
            chain_a.append(mins[1])
            chain_b.append(mins[0])
        else:
            raise NotDoubleChainGeneratorError(
                f"element {p.elements[i]}: core of its covered set has width > 2")
        rest -= set(mins)
    mask = sum(1 << m for m in core.members)
    attach = {m: [] for m in core.members}
    doubly = None
    for z in c:
        below = _covers(p._down[z] & mask, p._down)
        for k in below:
            attach[k].append(z)
        if len(below) == 2:
            doubly = z
    top_a = chain_a[-1] if chain_a else None
    top_b = chain_b[-1] if chain_b else top_a
    return (p, i, core, tuple(chain_a), tuple(chain_b),
            {m: tuple(zs) for m, zs in attach.items()},
            {m: len(zs) for m, zs in attach.items()}, top_a, top_b, doubly)


def _outcome(f, p, i):
    try:
        return f(p, i)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_splits_agree(p):
    for i in range(p.n):
        got, want = _outcome(decompose_chains, p, i), _outcome(_scan_decomposition, p, i)
        assert tuple(got) == want, (p.elements, i)  # each field, or the error and its message
        split = isinstance(got, ChainDecomposition)
        if split:
            assert [list(got.attach.items()), list(got.eta.items())] == [
                list(want[5].items()), list(want[6].items())]
            assert core_set(p, i) == got.core
        if want[0] is not MeetOutsideSetError:
            assert generates_double_chain(p, i) == split


class TestSplitAgainstTheMemberScan:
    # The split on down-set masks against the scan of the core's members that
    # it replaced: every field, the order of attach and eta, and each error.
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_shape_on_both_labellings(self, n):
        for down in shapes(n):
            for p in (realize(down), realize(down, squares=True)):
                _assert_splits_agree(p)

    @given(st.one_of(
        st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=8),
        st.lists(st.sampled_from(divisors(720720)), min_size=1, max_size=8)).map(gcd_closure))
    @settings(max_examples=200, deadline=None)
    def test_gcd_closed_sets(self, xs):
        _assert_splits_agree(build_poset(xs))

    def test_the_corpus_and_the_rarer_placements(self, corpus):
        # The last set places two minimal elements swapped, which no shape up
        # to eight elements does; the one before places one on chain B.
        for p in [p for _, p in corpus] + [
                incomparable_tops_instance(),
                build_poset([1, 2, 3, 9, 10, 38, 69, 70, 99, 117, 170, 669278610])]:
            _assert_splits_agree(p)

    def test_the_cube_top_is_refused_alike(self):
        p = cube_instances()[0]
        assert _outcome(decompose_chains, p, 7) == _outcome(_scan_decomposition, p, 7) == (
            NotDoubleChainGeneratorError, "element 30: core of its covered set has width > 2")

    @pytest.mark.parametrize("xs, i, gcd", [([2, 3, 6], 2, "gcd(3, 2) = 1"),
                                            ([1, 6, 10, 15, 30], 4, "gcd(10, 6) = 2")])
    def test_a_set_that_is_not_gcd_closed_is_refused_alike(self, xs, i, gcd):
        p = build_poset(xs)
        assert _outcome(decompose_chains, p, i) == _outcome(_scan_decomposition, p, i) == (
            MeetOutsideSetError, f"{gcd} is not in the set")

    @given(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_any_set(self, xs):
        _assert_splits_agree(build_poset(xs))


def _closed_brute(xs) -> bool:
    return all(math.gcd(a, b) in xs for a, b in combinations(xs, 2))


def _a_set_brute(xs) -> bool:
    meets = {math.gcd(a, b) for a, b in combinations(xs, 2)}
    return all(g % h == 0 or h % g == 0 for g, h in combinations(meets, 2))


def _r_fold_brute(xs, r: int) -> bool:
    head, tail = xs[:r], xs[r:]
    return (all(b % a == 0 for a, b in combinations(head, 2))
            and (not head or tail[0] % head[-1] == 0)
            and _closed_brute(tail))


def _covered_brute(xs, i: int) -> tuple[int, ...]:
    """Indices j whose x_j divides x_i with nothing of xs strictly between."""
    below = [j for j, y in enumerate(xs) if j != i and xs[i] % y == 0]
    return tuple(j for j in below
                 if not any(k != j and xs[k] % xs[j] == 0 for k in below))


def _chain_below(mults, ys) -> list[int]:
    """The chain 1 | m_1 | m_1 m_2 | ..., with its top times each of ys."""
    chain = [1]
    for m in mults:
        chain.append(chain[-1] * m)
    return chain + [chain[-1] * y for y in ys]


_INTS = st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=10)
_SETS = st.one_of(
    _INTS,
    _INTS.map(gcd_closure),
    st.lists(st.integers(min_value=2, max_value=5), max_size=12).map(
        lambda ms: _chain_below(ms, [1])),
    st.builds(_chain_below, st.lists(st.integers(min_value=2, max_value=5), max_size=5),
              st.one_of(_INTS, _INTS.map(gcd_closure))),
)


class TestClassifiersAgainstBruteForce:
    @given(_SETS)
    @settings(max_examples=400, deadline=None)
    def test_every_classifier_and_every_fold(self, xs):
        p = build_poset(xs)
        els = p.elements
        assert all(p.leq(j, i) == (els[i] % els[j] == 0)
                   for i in range(p.n) for j in range(p.n))
        assert [p.covered(i) for i in range(p.n)] == [_covered_brute(els, i)
                                                       for i in range(p.n)]
        assert p.gcd_closed == _closed_brute(els)
        assert is_a_set(p) == _a_set_brute(els)
        assert ([is_r_fold_gcd_closed(p, r) for r in range(p.n)]
                == [_r_fold_brute(els, r) for r in range(p.n)])


class TestASet:
    def test_examples(self):
        assert is_a_set(build_poset([1, 2, 4, 12]))
        assert is_a_set(build_poset([1, 2, 4, 8]))  # chain
        assert is_a_set(build_poset([7]))
        assert not is_a_set(build_poset([1, 2, 3, 6]))  # gcds {1, 2, 3}
        assert is_a_set(build_poset([8, 12, 20]))  # not gcd closed; gcds {4}
        assert not is_a_set(build_poset([6, 10, 15]))  # gcds {2, 3, 5}

    def test_a_set_elements_all_generate(self, enum210):
        for p in enum210:
            if not is_a_set(p):
                continue
            for i in range(p.n):
                assert generates_double_chain(p, i)


class TestMeetTree:
    def test_examples(self):
        assert is_meet_tree(build_poset([1, 2, 4, 6, 10]))
        assert is_meet_tree(build_poset([1, 2, 4, 8]))
        assert not is_meet_tree(build_poset([1, 2, 3, 6]))  # diamond cycle

    def test_closure_taken_first(self):
        # {2, 3} closes to {1, 2, 3}, whose diagram is a tree.
        assert is_meet_tree(build_poset([2, 3]))
        # {2, 3, 6, 30, 42} closes to {1, 2, 3, 6, 30, 42}: 6 = 2*3 closes a
        # diamond, so the diagram has a cycle.
        assert not is_meet_tree(build_poset([2, 3, 6, 30, 42]))


class TestRFold:
    def test_plain_closure_is_zero_fold(self):
        assert is_r_fold_gcd_closed(build_poset([1, 2, 3, 6]), 0)
        assert not is_r_fold_gcd_closed(build_poset([1, 2, 15, 42]), 0)

    def test_one_fold_example(self):
        p = build_poset([3, 6, 12, 18])
        assert is_r_fold_gcd_closed(p, 1)
        assert is_r_fold_gcd_closed(p, 0)

    def test_diamond_not_one_fold(self):
        assert not is_r_fold_gcd_closed(build_poset([1, 2, 3, 6]), 1)

    def test_chain_is_r_fold_for_every_r(self):
        p = build_poset([1, 2, 4, 8])
        for r in range(p.n):
            assert is_r_fold_gcd_closed(p, r)

    def test_fold_validity_is_a_prefix(self, enum210):
        for p in enum210:
            flags = [is_r_fold_gcd_closed(p, r) for r in range(p.n)]
            if not flags[0]:
                continue
            dropped = False
            for f in flags:
                if not f:
                    dropped = True
                assert not (dropped and f)

    @given(_SETS)
    @example([6, 10, 15])  # not gcd closed: _low_meet holds -1
    @example([1, 2, 4, 8, 9, 12])
    @settings(max_examples=300, deadline=None)
    def test_each_fold_matches_the_linear_scan(self, xs):
        # The scan that each call made before the poset kept its fold bounds.
        p = build_poset(xs)
        els, low = p.elements, p._low_meet
        assert [is_r_fold_gcd_closed(p, r) for r in range(p.n)] == [
            all(b % a == 0 for a, b in zip(els[:r], els[1:r + 1])) and min(low[r:]) >= r
            for r in range(p.n)]

    def test_bad_fold_counts(self):
        p = build_poset([1, 2, 4])
        for bad in (-1, 3, 10):
            with pytest.raises(BadFoldCountError):
                is_r_fold_gcd_closed(p, bad)
        with pytest.raises(BadFoldCountError):
            is_r_fold_gcd_closed(p, 1.0)  # type: ignore[arg-type]
