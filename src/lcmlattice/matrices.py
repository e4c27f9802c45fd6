"""Exact GCD/LCM matrix analysis: determinants, invertibility, inertia.

Two independent routes exist for every headline quantity.  The formula route
goes through the Psi vector (an inclusion-exclusion over the divisor poset);
the oracle route uses fraction-free elimination for determinants and an exact
characteristic polynomial with Descartes' rule for inertia.  The routes never
share code, so their agreement in the test suite is meaningful.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .doublechain import NotDoubleChainGeneratorError, generates_double_chain
from .lattice import DivisorPoset, VerificationError, _bits, _verify
from .moebius import mobius_recursive


class NotGcdClosedError(ValueError):
    """The operation needs a gcd-closed set."""


class NonSquareError(ValueError):
    """A square matrix was required."""


class NonSymmetricError(ValueError):
    """A symmetric matrix was required."""


class NonIntegerExponentError(ValueError):
    """The power matrix exponent must be a plain integer."""


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class ExactMatrix:
    """Dense matrix of exact rationals (immutable); int entries stay ints."""

    def __init__(self, entries):
        rows = tuple(tuple(v if type(v) is int else Fraction(v) for v in row)
                     for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.entries: tuple[tuple[int | Fraction, ...], ...] = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if r == c else 0 for c in range(n)] for r in range(n)])

    @classmethod
    def diagonal(cls, values) -> "ExactMatrix":
        vals = list(values)
        n = len(vals)
        return cls([[vals[r] if r == c else 0 for c in range(n)] for r in range(n)])

    def __getitem__(self, rc: tuple[int, int]) -> int | Fraction:
        r, c = rc
        return self.entries[r][c]

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.entries))) if self.rows else self

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = list(zip(*other.entries))
        return ExactMatrix([[sum(a * b for a, b in zip(row, col))
                             for col in bt] for row in self.entries])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.entries[r][c] == self.entries[c][r]
            for r in range(self.rows) for c in range(r))

    def __repr__(self) -> str:
        return f"ExactMatrix({[[str(v) for v in row] for row in self.entries]})"


@dataclass(frozen=True)
class PsiVector:
    """Index-aligned exact Psi values of a gcd-closed poset."""

    poset: DivisorPoset
    values: tuple[Fraction, ...]

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def determinant(self) -> Fraction:
        """Determinant of the lcm matrix: (prod of Psi) * (prod of elements)^2."""
        return math.prod(self.values) * math.prod(self.poset.elements) ** 2

    def inertia(self) -> InertiaTriple:
        """Inertia of the lcm matrix: sign counts of the Psi values (congruence)."""
        plus = sum(1 for v in self.values if v > 0)
        minus = sum(1 for v in self.values if v < 0)
        return InertiaTriple(plus, minus, len(self.values) - plus - minus)


@dataclass(frozen=True)
class InertiaTriple:
    """Counts of positive, negative, and zero eigenvalues."""

    plus: int
    minus: int
    zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.plus, self.minus, self.zero)


def _require_gcd_closed(p: DivisorPoset) -> None:
    if not p.gcd_closed:
        raise NotGcdClosedError("the set is not gcd closed")


def gcd_matrix(p: DivisorPoset) -> ExactMatrix:
    """Matrix of pairwise gcds (any set of positive integers)."""
    els = p.elements
    return ExactMatrix([[math.gcd(a, b) for b in els] for a in els])


def lcm_matrix(p: DivisorPoset) -> ExactMatrix:
    """Matrix of pairwise lcms (any set of positive integers)."""
    els = p.elements
    return ExactMatrix([[math.lcm(a, b) for b in els] for a in els])


def reciprocal_gcd_matrix(p: DivisorPoset) -> ExactMatrix:
    """Matrix of exact reciprocals of pairwise gcds."""
    els = p.elements
    return ExactMatrix([[Fraction(1, math.gcd(a, b)) for b in els] for a in els])


def power_lcm_matrix(p: DivisorPoset, alpha: int) -> ExactMatrix:
    """Matrix of pairwise lcms raised to a non-negative integer power."""
    if not isinstance(alpha, int) or isinstance(alpha, bool):
        raise NonIntegerExponentError(f"exponent must be an integer, got {alpha!r}")
    if alpha < 0:
        raise NonIntegerExponentError(f"exponent must be non-negative, got {alpha}")
    els = p.elements
    return ExactMatrix([[math.lcm(a, b) ** alpha for b in els] for a in els])


def psi(p: DivisorPoset) -> PsiVector:
    """Exact Psi values, from the integers w_i = x_i * Psi_i by the recursion
    over strict divisors that the search also runs.

    Each w_i is checked against the equivalent Mobius sum, in integers:
    sum of mu(x_j, x_i) * (x_i / x_j) over the divisors x_j of x_i;
    VerificationError if the two disagree.
    """
    _require_gcd_closed(p)
    els = p.elements
    mu = mobius_recursive(p)
    ws: list[int] = []
    for i, x in enumerate(els):
        strict = p._down[i] & ~(1 << i)
        w = _w_by_recursion(x, ((els[j], ws[j]) for j in _bits(strict)))
        _verify(sum(mu[j, i] * (x // els[j]) for j in _bits(p._down[i])) == w,
                f"the two Psi definitions disagreed at {x}")
        ws.append(w)
    return PsiVector(p, tuple(Fraction(w, x) for w, x in zip(ws, els)))


def _w_by_recursion(x: int, divisor_ws: Iterable[tuple[int, int]]) -> int:
    """The integer w = x * Psi(x), from the pairs (x_j, w_j) of every strict
    divisor x_j of x in a gcd-closed set: w = 1 - sum (x / x_j) * w_j."""
    return 1 - sum(x // xj * wj for xj, wj in divisor_ws)


def _w_by_crosscut(x: int, covers: Iterable[int]) -> int:
    """The integer w = x * Psi(x), from the elements x covers in a gcd-closed
    set, by Rota's crosscut theorem: w = sum over subsets T of the covers of
    (-1)^|T| * x / gcd(x, T).  Terms with equal gcd are merged after each
    cover, so the work is (number of covers) * (number of members dividing x),
    not 2^(number of covers)."""
    terms = {x: 1}
    for c in covers:
        for g, k in list(terms.items()):
            h = math.gcd(g, c)
            terms[h] = terms.get(h, 0) - k
    return sum(k * (x // g) for g, k in terms.items())


def factorization(p: DivisorPoset) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Congruence factorization of the lcm matrix: Delta E Lambda (Delta E)^T.

    Delta is the diagonal of the elements, E the lower-unitriangular
    divisibility indicator, Lambda the diagonal of Psi values.  The identity is
    checked entrywise (else VerificationError): entry (i, j) of the product
    divided by x_i * x_j is the sum of Psi over the common divisors of x_i and
    x_j in the set, which must equal 1 / gcd(x_i, x_j).
    """
    _require_gcd_closed(p)
    n = p.n
    els = p.elements
    values = psi(p).values
    for i in range(n):
        for j in range(i + 1):
            _verify(sum((values[k] for k in _bits(p._down[i] & p._down[j])),
                        start=Fraction(0)) == Fraction(1, math.gcd(els[i], els[j])),
                    "factorization identity failed")
    delta = ExactMatrix.diagonal(els)
    e = ExactMatrix([[1 if p.leq(j, i) else 0 for j in range(n)] for i in range(n)])
    return delta, e, ExactMatrix.diagonal(values)


def _bareiss_det_int(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (destructive)."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for r in range(k + 1, n):
            row_r = rows[r]
            row_k = rows[k]
            lead = row_r[k]
            for c in range(k + 1, n):
                row_r[c] = (row_r[c] * pivot - lead * row_k[c]) // prev
            row_r[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def _scaled_to_int(m: ExactMatrix) -> tuple[list[list[int]], int]:
    """A square matrix times the lcm of its denominators, as integer rows, and
    that multiplier; NonSquareError for a non-square matrix."""
    if not m.is_square:
        raise NonSquareError(f"matrix is {m.rows}x{m.cols}")
    scale = math.lcm(*(v.denominator for row in m.entries for v in row))
    return [[int(v * scale) for v in row] for row in m.entries], scale


def determinant_exact(m: ExactMatrix) -> Fraction:
    """Exact determinant by fraction-free elimination (the oracle route)."""
    rows, scale = _scaled_to_int(m)
    return Fraction(_bareiss_det_int(rows), scale ** m.rows)


def determinant_via_psi(p: DivisorPoset) -> Fraction:
    """Determinant of the lcm matrix as (prod of elements)^2 * (prod of Psi)."""
    return psi(p).determinant()


def is_invertible(p: DivisorPoset) -> bool:
    """True when the lcm matrix is nonsingular, i.e. no Psi value is zero."""
    return all(v != 0 for v in psi(p))


def inertia_from_psi(p: DivisorPoset) -> InertiaTriple:
    """Inertia of the lcm matrix: sign counts of the Psi values (congruence)."""
    return psi(p).inertia()


def structural_inertia(p: DivisorPoset) -> InertiaTriple | None:
    """Inertia with no rational arithmetic, when every element generates a
    double chain: elements covering exactly one member count negative, the
    rest positive, and the matrix is nonsingular.  None when some element
    does not generate a double chain."""
    _require_gcd_closed(p)
    if not all(generates_double_chain(p, i) for i in range(p.n)):
        return None
    minus = sum(1 for i in range(p.n) if len(p.covered(i)) == 1)
    return InertiaTriple(p.n - minus, minus, 0)


def _char_poly_int(a: list[list[int]]) -> list[int]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] of an
    integer matrix, by the trace recurrence (all divisions exact)."""
    n = len(a)
    coeffs = [1]
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        _verify(rem == 0, "trace recurrence divided inexactly")
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            m[i][i] += ck
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
    return coeffs


def _sign_variations(seq) -> int:
    signs = [1 if v > 0 else -1 for v in seq if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def inertia_charpoly_oracle(m: ExactMatrix) -> InertiaTriple:
    """Inertia of a symmetric rational matrix via its exact characteristic
    polynomial and Descartes' rule of signs (exact on real-rooted input).

    The zero count is read off the trailing zero coefficients and must match
    what the sign variations leave over.
    """
    a, _ = _scaled_to_int(m)
    if not m.is_symmetric:
        raise NonSymmetricError("inertia needs a symmetric matrix")
    coeffs = _char_poly_int(a)
    zero = 0
    while coeffs[-1 - zero] == 0:
        zero += 1
    trimmed = coeffs[:len(coeffs) - zero]
    plus = _sign_variations(trimmed)
    minus = _sign_variations(c if k % 2 == 0 else -c
                             for k, c in enumerate(trimmed))
    _verify(plus + minus + zero == m.rows, "Descartes counts failed to add up")
    return InertiaTriple(plus, minus, zero)


def classify_psi_sign(p: DivisorPoset, i: int) -> Sign:
    """Predicted sign of Psi at a double-chain generating element: negative
    exactly when the element covers a single member."""
    _require_gcd_closed(p)
    if not generates_double_chain(p, i):
        raise NotDoubleChainGeneratorError(
            f"element {p.elements[i]} does not generate a double chain")
    return Sign.NEGATIVE if len(p.covered(i)) == 1 else Sign.POSITIVE
