"""Exact matrices, the rational weight vector, determinants, and inertia."""

from __future__ import annotations

import contextlib
import io
import math
from collections import defaultdict
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlattice import cli, doublechain, matrices, moebius
from lcmlattice import (
    ExactMatrix,
    InertiaTriple,
    NonIntegerExponentError,
    NonSquareError,
    NonSymmetricError,
    NotDoubleChainGeneratorError,
    NotGcdClosedError,
    Sign,
    VerificationError,
    build_poset,
    classify_psi_sign,
    congruence_oracle,
    cube_instances,
    decompose_chains,
    determinant_exact,
    determinant_via_psi,
    divisors,
    factorization,
    gcd_closure,
    gcd_matrix,
    generates_double_chain,
    inertia_charpoly_oracle,
    inertia_from_psi,
    is_invertible,
    lcm_matrix,
    mobius_closed_form,
    power_lcm_matrix,
    psi,
    reciprocal_gcd_matrix,
    structural_inertia,
)


def permutation_determinant(m: ExactMatrix) -> F:
    """Textbook sum over permutations, walking only those whose entries are
    all nonzero.  Only for tiny or sparse matrices."""
    n = m.rows
    assert n <= 8
    acc = F(0)

    def walk(perm: list[int], term: F) -> None:
        nonlocal acc
        r = len(perm)
        if r == n:
            inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                             if perm[a] > perm[b])
            acc += (-1) ** inversions * term
            return
        for c in range(n):
            if c not in perm and m[(r, c)]:
                walk(perm + [c], term * m[(r, c)])
    walk([], F(1))
    return acc


def char_poly_int(a: list[list[int]]) -> list[int]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] of an
    integer matrix, by the Faddeev-LeVerrier trace recurrence (every division
    exact).  O(n^4): a test-side oracle only."""
    n = len(a)
    coeffs = [1]
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        assert rem == 0
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            m[i][i] += ck
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
    return coeffs


def sign_variations(seq) -> int:
    signs = [1 if v > 0 else -1 for v in seq if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def upper_rows(a: list[list[int]]) -> list[list[int]]:
    """Row k of a from its diagonal on: the input of the symmetric elimination."""
    return [row[k:] for k, row in enumerate(a)]


def charpoly_inertia(a: list[list[int]]) -> tuple[int, int, int]:
    """Inertia of a symmetric integer matrix by Descartes' rule of signs on its
    characteristic polynomial (exact, since every root is real)."""
    coeffs = char_poly_int(a)
    zero = 0
    while coeffs[-1 - zero] == 0:
        zero += 1
    trimmed = coeffs[:len(coeffs) - zero]
    plus = sign_variations(trimmed)
    minus = sign_variations(c if k % 2 == 0 else -c for k, c in enumerate(trimmed))
    assert plus + minus + zero == len(a)
    return plus, minus, zero


@st.composite
def symmetric_int_matrices(draw) -> list[list[int]]:
    """Small symmetric integer matrices: dense, zero-diagonal, or low rank
    (B D B^T with B of n rows and r <= n columns)."""
    n = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["dense", "zero-diagonal", "low-rank"]))
    if kind == "low-rank":
        r = draw(st.integers(0, n))
        b = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(n)]
        d = [draw(st.sampled_from([-2, -1, 1, 3])) for _ in range(r)]
        return [[sum(b[i][t] * d[t] * b[j][t] for t in range(r)) for j in range(n)]
                for i in range(n)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + (kind == "dense")):
            a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    return a


@st.composite
def zero_diagonal_int_matrices(draw) -> list[list[int]]:
    """Small integer matrices with a zero diagonal: general, or skew-symmetric."""
    n = draw(st.integers(0, 6))
    a = [[0 if i == j else draw(st.integers(-3, 3)) for j in range(n)]
         for i in range(n)]
    if draw(st.booleans()):
        a = [[a[i][j] if j < i else -a[j][i] for j in range(n)] for i in range(n)]
    return a


@st.composite
def symmetric_fraction_matrices(draw) -> list[list[int | F]]:
    """Small symmetric matrices of Fractions mixed with ints, dense or with a
    zero diagonal."""
    n = draw(st.integers(0, 6))
    dense = draw(st.booleans())
    entry = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-4, 4), st.integers(1, 6)))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + dense):
            a[i][j] = a[j][i] = draw(entry)
    return a


@st.composite
def sparse_int_matrices(draw) -> list[list[int]]:
    """Integer matrices of order up to 8, mostly 0, symmetric or not: most
    rows have lead 0 at most pivots, so most steps leave them as they are."""
    n = draw(st.integers(0, 8))
    symmetric = draw(st.booleans())
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if symmetric else n):
            a[i][j] = draw(entry)
            if symmetric:
                a[j][i] = a[i][j]
    return a


@st.composite
def interleaved_matrices(draw) -> list[list[int | F]]:
    """Symmetric matrices of order up to 8 whose entry (i, j) is 0 where
    i + j is odd: each pivot row holds zeros between its nonzero entries.
    The rest are ints or Fractions, 0 included, so a diagonal entry may be 0."""
    n = draw(st.integers(0, 8))
    entry = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-4, 4), st.integers(1, 6)))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i % 2, i + 1, 2):
            a[i][j] = a[j][i] = draw(entry)
    return a


def frozen_cube_psi() -> list[list[F]]:
    return [
        [F(1), F(-1, 2), F(-2, 3), F(-4, 5), F(1, 3), F(2, 5), F(8, 15), F(-4, 15)],
        [F(1), F(-1, 2), F(-2, 3), F(-4, 5), F(2, 11), F(11, 35), F(8, 17), F(0)],
        [F(1), F(-1, 2), F(-2, 3), F(-4, 5), F(11, 35), F(7, 39), F(8, 17), F(18, 7735)],
    ]


class TestExactMatrix:
    def test_construction_and_access(self):
        m = ExactMatrix(((F(1), F(2)), (F(3), F(4))))
        assert m.rows == 2 and m.cols == 2
        assert m[(0, 1)] == 2

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix(((F(1), F(2)), (F(3),)))

    def test_identity_diagonal(self):
        assert ExactMatrix.identity(2) == ExactMatrix(((F(1), F(0)), (F(0), F(1))))
        d = ExactMatrix.diagonal([F(2), F(3)])
        assert d[(0, 0)] == 2 and d[(1, 1)] == 3 and d[(0, 1)] == 0

    def test_matmul_and_transpose(self):
        a = ExactMatrix(((F(1), F(2)), (F(0), F(1))))
        b = ExactMatrix(((F(1), F(0)), (F(5), F(1))))
        assert (a @ b) == ExactMatrix(((F(11), F(2)), (F(5), F(1))))
        assert a.transpose() == ExactMatrix(((F(1), F(0)), (F(2), F(1))))

    def test_symmetry_flags(self):
        assert ExactMatrix(((F(1), F(2)), (F(2), F(5)))).is_symmetric
        assert not ExactMatrix(((F(1), F(2)), (F(3), F(5)))).is_symmetric


class TestBuilders:
    def test_two_element_matrices(self):
        p = build_poset([1, 2])
        assert lcm_matrix(p) == ExactMatrix(((F(1), F(2)), (F(2), F(2))))
        assert gcd_matrix(p) == ExactMatrix(((F(1), F(1)), (F(1), F(2))))
        assert reciprocal_gcd_matrix(p) == ExactMatrix(((F(1), F(1)), (F(1), F(1, 2))))
        assert power_lcm_matrix(p, 2) == ExactMatrix(((F(1), F(4)), (F(4), F(4))))
        assert power_lcm_matrix(p, 1) == lcm_matrix(p)
        assert all(type(v) is int for row in lcm_matrix(p).entries for v in row)

    def test_builders_allow_non_closed_sets(self):
        p = build_poset([1, 2, 15, 42])
        assert lcm_matrix(p).rows == 4  # no closedness requirement

    def test_power_exponent_validation(self):
        p = build_poset([1, 2])
        for bad in (-1, F(1, 2), 1.5):
            with pytest.raises(NonIntegerExponentError):
                power_lcm_matrix(p, bad)  # type: ignore[arg-type]

    def test_power_zero_is_all_ones(self):
        p = build_poset([1, 2, 6])
        m = power_lcm_matrix(p, 0)
        assert all(m[(r, c)] == 1 for r in range(3) for c in range(3))

    def test_gcd_times_lcm_is_outer_product(self, corpus):
        # gcd(x,y)·lcm(x,y) = x·y entrywise, closed or not.
        for _, p in corpus:
            g, l = gcd_matrix(p), lcm_matrix(p)
            for r in range(p.n):
                for c in range(p.n):
                    assert g[(r, c)] * l[(r, c)] == p.elements[r] * p.elements[c]


class TestPsi:
    def test_two_element(self):
        assert list(psi(build_poset([1, 2]))) == [F(1), F(-1, 2)]

    def test_diamond(self):
        assert list(psi(build_poset([1, 2, 3, 6]))) == \
            [F(1), F(-1, 2), F(-2, 3), F(1, 3)]

    def test_frozen_cube_vectors(self):
        for cube, expected in zip(cube_instances(), frozen_cube_psi()):
            assert list(psi(cube)) == expected

    def test_requires_gcd_closed(self):
        with pytest.raises(NotGcdClosedError):
            psi(build_poset([1, 2, 15, 42]))

    def test_values_sum_telescopes(self, corpus):
        # Summing the weights over the lower set of x_i gives 1/x_i: the
        # defining recursion, checked through the public accessor.
        for _, p in corpus:
            v = psi(p)
            for i in range(p.n):
                below = [j for j in range(p.n) if p.leq(j, i)]
                assert sum(v[j] for j in below) == F(1, p.elements[i])

    def test_vector_api(self):
        v = psi(build_poset([1, 2]))
        assert len(v) == 2 and v[0] == 1 and list(v) == [F(1), F(-1, 2)]

    def test_disagreeing_definitions_raise(self, monkeypatch):
        # A Mobius table of zeros makes the second definition sum to 0.
        monkeypatch.setattr(matrices, "mobius_recursive", lambda p: defaultdict(int))
        with pytest.raises(VerificationError, match="disagreed at 1"):
            psi(build_poset([1, 2]))

    def test_wrong_recursion_raises(self, monkeypatch):
        # The Mobius sum is the second route: a recursion off by one at the
        # bottom element must not go through.
        real = matrices._w_by_recursion
        monkeypatch.setattr(matrices, "_w_by_recursion",
                            lambda x, divisor_ws: real(x, divisor_ws) + 1)
        with pytest.raises(VerificationError, match="disagreed at 1"):
            psi(build_poset([1, 2, 3, 6]))


#: The top of {1, these primes, their product} covers all twenty primes.
FIRST_20_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                   59, 61, 67, 71)


class TestIntegerWeights:
    """The integer routes to w = x * Psi(x): the recursion that _weights, psi
    and the search run, and the crosscut that the search checks it with."""

    def test_both_routes_equal_x_times_psi(self, corpus):
        # The reference w_i = sum of mu(x_j, x_i) * (x_i / x_j) comes from the
        # zeta-inverse Mobius table, which psi's own routes do not use.
        wide = build_poset([1, *FIRST_20_PRIMES, math.prod(FIRST_20_PRIMES)])
        for p in [p for _, p in corpus] + [wide]:
            els = p.elements
            mu = moebius.mobius_via_zeta_inverse(p)
            ws = [sum(mu[j, i] * (x // els[j]) for j in range(i + 1) if p.leq(j, i))
                  for i, x in enumerate(els)]
            assert matrices._weights(p) == ws
            for i, (x, v) in enumerate(zip(els, psi(p))):
                assert ws[i] == x * v
                below = [(els[j], ws[j]) for j in range(i) if p.leq(j, i)]
                assert matrices._w_by_recursion(x, below) == ws[i]
                covers = [els[j] for j in p.covered(i)]
                assert matrices._w_by_crosscut(x, covers) == ws[i]

    def test_crosscut_merges_terms_by_gcd(self, monkeypatch):
        # 2^20 subsets of covers, but after each merge the terms are indexed
        # by the 22 divisors below the top, so at most 20 * 22 gcds are taken.
        # Every pair of primes has gcd 1, so the sum is 1 - sum(top / q) +
        # (sum over k >= 2 of (-1)^k C(20, k)) * top, and that inner sum is 19.
        top = math.prod(FIRST_20_PRIMES)
        calls = []

        def counting_gcd(a, b):
            calls.append((a, b))
            return math.gcd(a, b)

        monkeypatch.setattr(matrices, "math", SimpleNamespace(gcd=counting_gcd))
        w = matrices._w_by_crosscut(top, FIRST_20_PRIMES)
        assert w == 1 + 19 * top - sum(top // q for q in FIRST_20_PRIMES)
        assert len(calls) <= 20 * 22


class TestFactorization:
    def test_shapes_and_content(self):
        p = build_poset([1, 2, 3, 6])
        delta, e, lam = factorization(p)
        assert delta == ExactMatrix.diagonal([F(x) for x in p.elements])
        assert lam == ExactMatrix.diagonal(list(psi(p)))
        for r in range(p.n):
            for c in range(p.n):
                expected = F(1) if p.elements[r] % p.elements[c] == 0 else F(0)
                if c > r:
                    expected = F(0)
                assert e[(r, c)] == expected

    def test_identity_reproduces_lcm_matrix(self, corpus):
        for _, p in corpus:
            delta, e, lam = factorization(p)
            de = delta @ e
            assert (de @ lam) @ de.transpose() == lcm_matrix(p)

    def test_identity_check_catches_a_wrong_weight(self, monkeypatch):
        p = build_poset([1, 2, 3, 6])
        right = psi(p)
        wrong = matrices.PsiVector(p, (*right.values[:3], right[3] + F(1, 1000)))
        monkeypatch.setattr(matrices, "psi", lambda q: wrong)
        with pytest.raises(VerificationError, match="factorization identity failed"):
            factorization(p)

    def test_incidence_factor_recovers_reciprocal_gcd(self):
        # Dropping the element-diagonal factors leaves the reciprocal GCD
        # matrix: EΛEᵀ entrywise equals 1/gcd(x_r, x_c).
        p = build_poset([1, 2, 3, 6])
        _, e, lam = factorization(p)
        assert (e @ lam) @ e.transpose() == reciprocal_gcd_matrix(p)

    def test_incidence_factor_is_unimodular(self, corpus):
        for _, p in corpus:
            _, e, _ = factorization(p)
            assert determinant_exact(e) == 1

    def test_requires_gcd_closed(self):
        with pytest.raises(NotGcdClosedError):
            factorization(build_poset([2, 3]))


class TestDeterminant:
    def test_examples(self):
        assert determinant_exact(lcm_matrix(build_poset([1, 2]))) == -2
        assert determinant_exact(ExactMatrix.identity(4)) == 1
        assert determinant_exact(lcm_matrix(build_poset([1, 2, 15, 42]))) == 0
        assert determinant_exact(ExactMatrix([])) == 1

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            determinant_exact(ExactMatrix(((F(1), F(2)),)))

    def test_rational_entries(self):
        m = ExactMatrix(((F(1, 2), F(1, 3)), (F(1, 5), F(1, 7))))
        assert determinant_exact(m) == F(1, 14) - F(1, 15)

    def test_matches_permutation_expansion_on_corpus(self, corpus):
        for _, p in corpus:
            if p.n > 5:
                continue
            m = lcm_matrix(p)
            assert determinant_exact(m) == permutation_determinant(m)

    @given(st.lists(st.lists(st.fractions(min_value=-5, max_value=5,
                                          max_denominator=6),
                             min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_permutation_expansion_random(self, rows):
        m = ExactMatrix(tuple(tuple(r) for r in rows))
        assert determinant_exact(m) == permutation_determinant(m)

    def test_zero_diagonal_examples(self):
        # No nonzero diagonal entry: a row must be added before the first pivot.
        assert determinant_exact(ExactMatrix([[0, 1], [-1, 0]])) == 1
        assert determinant_exact(ExactMatrix([[0, 2, 0], [0, 0, 3], [5, 0, 0]])) == 30

    @given(zero_diagonal_int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_zero_diagonal_matches_permutation_expansion(self, a):
        m = ExactMatrix(a)
        assert determinant_exact(m) == permutation_determinant(m)

    def test_product_formula_matches_elimination(self, corpus):
        for _, p in corpus:
            assert determinant_via_psi(p) == determinant_exact(lcm_matrix(p))

    def test_invertibility_iff_nonzero_determinant(self, corpus):
        for _, p in corpus:
            assert is_invertible(p) == (determinant_via_psi(p) != 0)

    def test_singular_cube_not_invertible(self):
        cubes = cube_instances()
        assert not is_invertible(cubes[1])
        assert is_invertible(cubes[0]) and is_invertible(cubes[2])


class TestInertia:
    def test_sign_count_examples(self):
        assert inertia_from_psi(build_poset([1, 2])).as_tuple() == (1, 1, 0)
        assert inertia_from_psi(build_poset([1, 2, 3, 6])).as_tuple() == (2, 2, 0)

    def test_frozen_cube_inertias(self):
        expected = [(4, 4, 0), (4, 3, 1), (5, 3, 0)]
        for cube, e in zip(cube_instances(), expected):
            assert inertia_from_psi(cube).as_tuple() == e

    def test_structural_examples(self):
        assert structural_inertia(build_poset([1, 2, 4, 6, 10])).as_tuple() == (1, 4, 0)
        assert structural_inertia(build_poset([1, 2, 3, 6])).as_tuple() == (2, 2, 0)
        # The cube's top fails to generate a double chain, so the structural
        # count does not apply.
        assert structural_inertia(cube_instances()[0]) is None

    def test_structural_matches_sign_counts_when_defined(self, corpus, enum210):
        for p in [p for _, p in corpus] + enum210:
            s = structural_inertia(p)
            if s is not None:
                assert s == inertia_from_psi(p)
                assert all(generates_double_chain(p, i) for i in range(p.n))

    def test_as_tuple(self):
        assert InertiaTriple(2, 1, 0).as_tuple() == (2, 1, 0)


class TestCharpolyOracle:
    def test_fixed_matrices(self):
        z = ExactMatrix(((F(0), F(0)), (F(0), F(0))))
        assert inertia_charpoly_oracle(z).as_tuple() == (0, 0, 2)
        assert inertia_charpoly_oracle(ExactMatrix.identity(3)).as_tuple() == (3, 0, 0)
        neg = ExactMatrix.diagonal([F(-1), F(-2)])
        assert inertia_charpoly_oracle(neg).as_tuple() == (0, 2, 0)
        mixed = ExactMatrix.diagonal([F(1, 2), F(-1, 3), F(0)])
        assert inertia_charpoly_oracle(mixed).as_tuple() == (1, 1, 1)
        assert inertia_charpoly_oracle(ExactMatrix([])).as_tuple() == (0, 0, 0)

    def test_input_validation(self):
        with pytest.raises(NonSquareError):
            inertia_charpoly_oracle(ExactMatrix(((F(1), F(2)),)))
        with pytest.raises(NonSymmetricError):
            inertia_charpoly_oracle(ExactMatrix(((F(1), F(2)), (F(3), F(4)))))

    def test_row_add_step(self):
        # Every diagonal entry is 0, so a row must be added first.
        swap = ExactMatrix([[0, 1], [1, 0]])
        assert inertia_charpoly_oracle(swap).as_tuple() == (1, 1, 0)
        ones_minus_identity = ExactMatrix([[int(r != c) for c in range(3)]
                                           for r in range(3)])
        assert inertia_charpoly_oracle(ones_minus_identity).as_tuple() == (1, 2, 0)
        assert inertia_charpoly_oracle(ExactMatrix(
            [[0, 2, 0], [2, 0, 0], [0, 0, 0]])).as_tuple() == (1, 1, 1)
        # Row j must be the first in column k: taking the last instead makes
        # a diagonal entry between them the next pivot, and reads (3, 1, 1).
        assert inertia_charpoly_oracle(ExactMatrix(
            [[0, 1, 1, 0, 0], [1, 0, 1, 0, 1], [1, 1, 0, 1, 0], [0, 0, 1, 0, 1],
             [0, 1, 0, 1, 0]])).as_tuple() == (2, 2, 1)

    def test_zero_block_left_after_pivots(self):
        # v v^T: one pivot, then an all-zero 2x2 block.
        v = [1, 2, 3]
        assert inertia_charpoly_oracle(ExactMatrix(
            [[a * b for b in v] for a in v])).as_tuple() == (1, 0, 2)
        # u u^T - w w^T: two pivots, then an all-zero 2x2 block.
        u, w = [1, 0, 2, 1], [0, 1, 1, 3]
        m = ExactMatrix([[u[i] * u[j] - w[i] * w[j] for j in range(4)]
                         for i in range(4)])
        assert inertia_charpoly_oracle(m).as_tuple() == (1, 1, 2)

    def test_leaves_the_matrix_unchanged(self):
        # The elimination updates its rows in place, so it is given copies.
        a = [[0, 1, 2, 0], [1, 3, 0, F(1, 2)], [2, 0, 5, 1], [0, F(1, 2), 1, 0]]
        m = ExactMatrix(a)
        entries = m.entries
        assert congruence_oracle(m) == congruence_oracle(m)
        assert m.entries is entries and m == ExactMatrix(a)

    def test_singular_second_cube(self):
        m = lcm_matrix(cube_instances()[1])
        assert inertia_charpoly_oracle(m).as_tuple() == (4, 3, 1)

    @settings(max_examples=300, deadline=None)
    @given(symmetric_int_matrices())
    def test_matches_charpoly_read_out(self, a):
        want = (*charpoly_inertia(a), sympy.Matrix(a).det())
        assert inertia_charpoly_oracle(ExactMatrix(a)).as_tuple() == want[:3]
        assert matrices._eliminate_symmetric(upper_rows(a)) == want
        triple, det = congruence_oracle(ExactMatrix(a))
        assert (*triple.as_tuple(), det) == want

    @settings(max_examples=300, deadline=None)
    @given(symmetric_fraction_matrices())
    def test_rational_matrices_match_the_scaled_charpoly(self, a):
        # Scaling by the lcm of the denominators, a positive integer, keeps
        # the inertia, so the integer characteristic polynomial reads it.
        scale = math.lcm(*(v.denominator for row in a for v in row))
        m = ExactMatrix(a)
        triple, det = congruence_oracle(m)
        assert triple.as_tuple() == charpoly_inertia([[int(v * scale) for v in row] for row in a])
        assert det == determinant_exact(m) == sympy.Matrix(a).det()

    def test_charpoly_matches_sympy(self, corpus):
        # Independent check of the test-side integer characteristic
        # polynomial against a third-party implementation, on moderately
        # sized instances.
        for _, p in corpus:
            if p.n > 12:
                continue
            a = [[int(lcm_matrix(p)[(r, c)]) for c in range(p.n)]
                 for r in range(p.n)]
            ours = char_poly_int(a)
            theirs = sympy.Matrix(a).charpoly().all_coeffs()
            assert ours == [int(c) for c in theirs]
            assert inertia_charpoly_oracle(lcm_matrix(p)).as_tuple() == charpoly_inertia(a)

    def test_agrees_with_sign_counts_on_corpus(self, corpus):
        for _, p in corpus:
            if p.n > 32:
                continue
            assert inertia_charpoly_oracle(lcm_matrix(p)) == inertia_from_psi(p)

    def test_report_runs_one_elimination_in_the_given_order(self, monkeypatch):
        # analyze reads the determinant and the inertia from one elimination
        # of the upper triangle of the lcm matrix as given, pivots from the
        # first index up: the order factorization() builds from the Psi values.
        real, seen = matrices._eliminate_symmetric, []

        def spy(a):
            seen.append([row[:] for row in a])
            return real(a)
        monkeypatch.setattr(matrices, "_eliminate_symmetric", spy)
        p = cube_instances()[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", *map(str, p.elements)]) == 0
        assert seen == [upper_rows([list(row) for row in lcm_matrix(p).entries])]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(symmetric_int_matrices(), sparse_int_matrices()))
    def test_symmetric_elimination_reads_no_entry_below_the_diagonal(self, a):
        # The elimination is given each row from its diagonal on, so it has
        # no entry below the diagonal to read: they are None here, and the
        # rows it gets hold none of them.
        if not ExactMatrix(a).is_symmetric:
            return
        upper = upper_rows([[v if c >= r else None for c, v in enumerate(row)]
                            for r, row in enumerate(a)])
        assert not any(v is None for row in upper for v in row)
        assert matrices._eliminate_symmetric(upper) \
            == (*charpoly_inertia(a), sympy.Matrix(a).det())

    def test_oracles_call_nothing_on_the_psi_route(self, corpus, monkeypatch):
        small = [p for _, p in corpus if p.n <= 64]
        want = [(inertia_from_psi(p), determinant_via_psi(p)) for p in small]

        def forbidden(*args, **kwargs):
            raise AssertionError("an oracle reached the Psi route")
        for module, name in [(matrices, "psi"), (matrices, "_checked_by_mobius"),
                             (matrices, "_w_by_recursion"),
                             (matrices, "_w_by_crosscut"),
                             (matrices, "mobius_recursive"),
                             (moebius, "mobius_recursive")]:
            monkeypatch.setattr(module, name, forbidden)
        for p, (inertia, det) in zip(small, want):
            m = lcm_matrix(p)
            assert inertia_charpoly_oracle(m) == inertia
            assert determinant_exact(m) == det
            assert congruence_oracle(m) == (inertia, det)


class TestLazyRowScaling:
    """Matrices whose rows have lead 0 at most pivots and later meet in
    congruence steps and Fraction steps: the symmetric elimination against
    the third oracles, and determinant_exact against the permutation sum."""

    @pytest.mark.parametrize("a, want", [
        # [2] + [[3, 1], [1, 5]] + [[0, 1], [1, 0]]: every row skips the first
        # pivot, and the last block takes a congruence step.
        ([[2, 0, 0, 0, 0], [0, 3, 1, 0, 0], [0, 1, 5, 0, 0], [0, 0, 0, 0, 1],
          [0, 0, 0, 1, 0]], (4, 1, 0, -28)),
        # A zero diagonal: the rows of the later congruence steps were last
        # updated at different pivots.
        ([[0, 0, -3, 0, 0, -2, 0], [0, 0, 1, 0, 3, 3, 0], [-3, 1, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0, 3], [0, 3, 0, 0, 0, 2, 0], [-2, 3, 0, 0, 2, 0, 0],
          [0, 0, 0, 3, 0, 0, 0]], (3, 4, 0, 2268)),
    ])
    def test_stale_rows_pivot_update_and_meet_in_the_row_add(self, a, want):
        m = ExactMatrix(a)
        assert matrices._eliminate_symmetric(upper_rows(a)) == want
        assert determinant_exact(m) == permutation_determinant(m) == want[3]
        triple, det = congruence_oracle(m)
        assert triple.as_tuple() == charpoly_inertia(a) == want[:3]
        assert det == sympy.Matrix(a).det()

    @settings(max_examples=300, deadline=None)
    @given(sparse_int_matrices())
    def test_sparse_matrices_match_the_third_oracles(self, a):
        m = ExactMatrix(a)
        assert determinant_exact(m) == permutation_determinant(m)
        if m.is_symmetric:
            triple, det = congruence_oracle(m)
            assert triple.as_tuple() == charpoly_inertia(a)
            assert det == sympy.Matrix(a).det()
            assert matrices._eliminate_symmetric(upper_rows(a)) == (*triple.as_tuple(), det)


def _random_closure(divs: list[int]):
    return st.lists(st.sampled_from(divs), min_size=1, max_size=12).map(
        lambda xs: build_poset(gcd_closure(xs)))


def _perturbed_lcm() -> list[list[int]]:
    # Pivots 1, -2, -6, -4 are exact; the entry of 6 raised by 1 makes its
    # pivot 13 instead of 12, and 13 does not divide the 24 in its row.
    els = [1, 2, 3, 4, 6, 12]
    a = [[math.lcm(x, y) for y in els] for x in els]
    a[4][4] += 1
    return a


class TestExactElimination:
    """_eliminate_symmetric keeps each block left at its true scale.  On the
    LCM matrix of a gcd-closed set in ascending order every entry stays an
    int and pivot k is x_k * w_k; other matrices take Fraction steps, where a
    pivot does not divide its lead, and congruence steps, where a zero pivot
    has a nonzero row."""

    @staticmethod
    def assert_pivots_are_weights(p):
        # The weights come from psi here, in the test only: the elimination
        # reads none.  Once an entry is a Fraction, every later entry computed
        # from it is one too, so the rows left at the end show every step.
        els = p.elements
        psis = psi(p)
        a = [[math.lcm(x, y) for y in els[i:]] for i, x in enumerate(els)]
        result = matrices._eliminate_symmetric(a)
        assert all(type(v) is int for row in a for v in row)
        assert type(result[3]) is int
        assert [row[0] for row in a] == [x * x * v for x, v in zip(els, psis)]
        assert result == (*psis.inertia().as_tuple(), psis.determinant())

    def test_corpus_and_cubes_never_hand_off(self, corpus):
        for _, p in corpus + [("cube", c) for c in cube_instances()]:
            self.assert_pivots_are_weights(p)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_random_closure(divisors(720)),
                     _random_closure(divisors(2310)),
                     _random_closure(divisors(30030))))
    def test_random_closures_never_hand_off(self, p):
        self.assert_pivots_are_weights(p)

    @settings(max_examples=300, deadline=None)
    @given(interleaved_matrices())
    def test_interleaved_zeros_match_sympy(self, a):
        # Scaling by the lcm of the denominators keeps the inertia.
        scale = math.lcm(*(F(v).denominator for row in a for v in row))
        want = (*charpoly_inertia([[int(v * scale) for v in row] for row in a]),
                sympy.Matrix(a).det())
        assert matrices._eliminate_symmetric(upper_rows(a)) == want
        assert congruence_oracle(ExactMatrix(a)) == (InertiaTriple(*want[:3]), want[3])

    @pytest.mark.parametrize("a, pivots", [
        # A Fraction first step: 2 does not divide the 1 in its row.
        ([[2, 1], [1, 2]], [2, F(3, 2)]),
        # Four int steps, then pivot 13, which does not divide the 24.
        (_perturbed_lcm(), [1, -2, -6, -4, 13, F(360, 13)]),
        # One int step leaves [[0, 1], [1, 0]]: a zero pivot on a nonzero row,
        # so a congruence step with t = 1 makes the pivot 2 * 1 + 0.
        ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], [1, 2, F(-1, 2)]),
        # Pivot 4 divides each product 2 * 2 it meets but not the 2s of its
        # row: both later steps are Fraction steps.
        ([[4, 2, 2], [2, 5, 3], [2, 3, 7]], [4, 4, 5]),
        # 2 * 1 + (-2) = 0, so the congruence step takes t = -1: pivot
        # -2 * 1 + (-2) = -4.
        ([[0, 1], [1, -2]], [-4, F(1, 4)]),
        # Zeros between the nonzero entries of each pivot row: a congruence
        # step with row 2 makes row 0 [5, 0, 4, 0, 5], whose lead 4 takes a
        # Fraction step and whose lead 5 an int step.
        ([[0, 0, 1, 0, 3], [0, 2, 0, 1, 0], [1, 0, 3, 0, 2], [0, 1, 0, 0, 5],
          [3, 0, 2, 5, 1]], [5, 2, F(-1, 5), F(-1, 2), 66]),
    ], ids=["inexact-first", "perturbed-lcm", "zero-pivot-nonzero-row",
            "pivot-not-dividing-its-row", "congruence-t-minus-one", "interleaved-zeros"])
    def test_hand_off_block_left(self, a, pivots):
        upper = upper_rows(a)
        got = matrices._eliminate_symmetric(upper)
        assert [row[0] for row in upper] == pivots
        assert any(type(v) is F for row in upper for v in row)
        assert got[:3] == charpoly_inertia(a)
        assert got[3] == math.prod(pivots) == sympy.Matrix(a).det()
        m = ExactMatrix(a)
        assert congruence_oracle(m) == (InertiaTriple(*got[:3]), got[3])
        assert determinant_exact(m) == permutation_determinant(m) == got[3]


class TestSignClassification:
    def test_negative_iff_single_cover(self, corpus):
        for _, p in corpus:
            v = psi(p)
            for i in range(p.n):
                if not generates_double_chain(p, i):
                    continue
                s = classify_psi_sign(p, i)
                assert s in (Sign.POSITIVE, Sign.NEGATIVE)
                assert (s is Sign.NEGATIVE) == (len(p.covered(i)) == 1)
                # A generating element never has a vanishing weight, and the
                # structural rule predicts the actual sign.
                assert v[i] != 0
                assert (v[i] < 0) == (s is Sign.NEGATIVE)

    def test_raises_on_non_generator(self):
        p = cube_instances()[1]
        with pytest.raises(NotDoubleChainGeneratorError):
            classify_psi_sign(p, p.n - 1)

    def test_zero_weight_only_at_non_generators(self, corpus, enum210):
        for p in [p for _, p in corpus] + enum210:
            v = psi(p)
            for i in range(p.n):
                if v[i] == 0:
                    assert not generates_double_chain(p, i)


class TestPowerNonsingularity:
    def test_power_lcm_nonsingular_for_double_chain_sets(self, corpus):
        # When every element generates a double chain, raising entries to a
        # positive power preserves nonsingularity.
        for _, p in corpus:
            if p.n > 16 or structural_inertia(p) is None:
                continue
            for alpha in (1, 2, 3):
                m = power_lcm_matrix(p, alpha)
                assert determinant_exact(m) != 0


PLAIN = [1, 2, 3, 4, 6, 9, 36]  # top 36: chain A [1, 2], chain B [3]


@pytest.mark.parametrize("module, name, fake, run, message", [
    (doublechain, "_split_into_chains",
     lambda real: lambda p, core: (real(p, core)[0], []),
     lambda: decompose_chains(build_poset(PLAIN), 6),
     "do not partition the core"),
    (moebius, "decompose_chains",
     lambda real: lambda p, i: real(p, i)._replace(top_a=None, top_b=None),
     lambda: mobius_closed_form(build_poset(PLAIN), 6),
     "no chain tops"),
    (matrices, "_eliminate_symmetric",
     lambda real: lambda a: (0, 0, 0, 1),  # 0 + 0 + 0 != 2
     lambda: inertia_charpoly_oracle(ExactMatrix.identity(2)),
     "congruence counts failed to add up"),
], ids=["chain-split", "chain-tops", "congruence-count"])
def test_failed_invariant_raises_verification_error(monkeypatch, module, name, fake,
                                                    run, message):
    # A raise, not an assert: the check must also run under python -O.
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    with pytest.raises(VerificationError, match=message):
        run()
