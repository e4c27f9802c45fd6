"""Exact matrices, the rational weight vector, determinants, and inertia."""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from fractions import Fraction as F
from itertools import permutations
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlattice import doublechain, matrices, moebius
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
    cube_instances,
    decompose_chains,
    determinant_exact,
    determinant_via_psi,
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
from lcmlattice.matrices import _char_poly_int


def permutation_determinant(m: ExactMatrix) -> F:
    """Textbook sum over permutations.  Only for tiny matrices."""
    n = m.rows
    assert n <= 6
    acc = F(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        term = F(-1) ** inversions
        for r in range(n):
            term *= m[(r, perm[r])]
        acc += term
    return acc


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
    """The two integer routes to w = x * Psi(x) that the search runs."""

    def test_both_routes_equal_x_times_psi(self, corpus):
        # The reference w_i = sum of mu(x_j, x_i) * (x_i / x_j) comes from the
        # zeta-inverse Mobius table, which psi's own routes do not use.
        wide = build_poset([1, *FIRST_20_PRIMES, math.prod(FIRST_20_PRIMES)])
        for p in [p for _, p in corpus] + [wide]:
            els = p.elements
            mu = moebius.mobius_via_zeta_inverse(p)
            ws = [sum(mu[j, i] * (x // els[j]) for j in range(i + 1) if p.leq(j, i))
                  for i, x in enumerate(els)]
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

    def test_charpoly_matches_sympy(self, corpus):
        # Independent check of the integer characteristic polynomial against
        # a third-party implementation, on moderately sized instances.
        for _, p in corpus:
            if p.n > 12:
                continue
            a = [[int(lcm_matrix(p)[(r, c)]) for c in range(p.n)]
                 for r in range(p.n)]
            ours = _char_poly_int(a)
            theirs = sympy.Matrix(a).charpoly().all_coeffs()
            assert ours == [int(c) for c in theirs]

    def test_agrees_with_sign_counts_on_corpus(self, corpus):
        for _, p in corpus:
            if p.n > 32:
                continue
            assert inertia_charpoly_oracle(lcm_matrix(p)) == inertia_from_psi(p)


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
     lambda real: lambda p, i: dataclasses.replace(real(p, i), top_a=None, top_b=None),
     lambda: mobius_closed_form(build_poset(PLAIN), 6),
     "no chain tops"),
    (matrices, "_char_poly_int",
     lambda real: lambda a: [1, 0, 1],  # no sign variations: 0 + 0 + 0 != 2
     lambda: inertia_charpoly_oracle(ExactMatrix.identity(2)),
     "Descartes counts failed to add up"),
], ids=["chain-split", "chain-tops", "descartes-count"])
def test_failed_invariant_raises_verification_error(monkeypatch, module, name, fake,
                                                    run, message):
    # A raise, not an assert: the check must also run under python -O.
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    with pytest.raises(VerificationError, match=message):
        run()
