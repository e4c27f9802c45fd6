"""Exact GCD/LCM matrix analysis: determinants, invertibility, inertia.

Two independent routes exist for every headline quantity.  The formula route
goes through the Psi vector (an inclusion-exclusion over the divisor poset);
the oracle route is one exact symmetric elimination of the matrix as it is,
pivots from the first index up, whose pivot product gives the determinant
and whose pivot signs give the inertia by Sylvester's law of inertia.  On a
gcd-closed set in ascending order, pivot k is x_k * w_k = x_k^2 * Psi_k,
the congruence factorization() builds; the oracle still shares no code with
the Psi route, so their agreement is meaningful.  Each routine imports
Fraction where it builds one, so the CLI, which builds none, never loads it.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Iterable

from .doublechain import NotDoubleChainGeneratorError, generates_double_chain
from .lattice import DivisorPoset, VerificationError, _PosetValues, _bits, _shown, _verify
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
        from fractions import Fraction
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
        return ExactMatrix([[sum(a * b for a, b in zip(row, col) if a and b)
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
        # str of each entry, an int or a Fraction's parts in full past the digit limit
        return "ExactMatrix(%r)" % [[_shown(v.numerator) + f"/{_shown(v.denominator)}" * (
            v.denominator != 1) for v in row] for row in self.entries]


class PsiVector(_PosetValues):
    """Index-aligned exact Psi values of a gcd-closed poset."""

    __slots__ = ()

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


class InertiaTriple(namedtuple("InertiaTriple", "plus minus zero")):
    """Counts of positive, negative, and zero eigenvalues."""

    __slots__ = ()

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


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
    from fractions import Fraction
    els = p.elements
    return ExactMatrix([[Fraction(1, math.gcd(a, b)) for b in els] for a in els])


def power_lcm_matrix(p: DivisorPoset, alpha: int) -> ExactMatrix:
    """Matrix of pairwise lcms raised to a non-negative integer power."""
    if not isinstance(alpha, int) or isinstance(alpha, bool):
        raise NonIntegerExponentError(f"exponent must be an integer, got {_shown(alpha)}")
    if alpha < 0:
        raise NonIntegerExponentError(f"exponent must be non-negative, got {_shown(alpha)}")
    els = p.elements
    return ExactMatrix([[math.lcm(a, b) ** alpha for b in els] for a in els])


def psi(p: DivisorPoset) -> PsiVector:
    """Exact Psi values w_i / x_i, the integers w_i = x_i * Psi_i of _weights
    checked by _checked_by_mobius."""
    from fractions import Fraction
    return PsiVector(p, tuple(map(Fraction, _checked_by_mobius(p, _weights(p)), p.elements)))


def _checked_by_mobius(p: DivisorPoset, ws: list[int]) -> list[int]:
    """ws, each w_i = x_i * Psi_i checked against the equivalent Mobius sum,
    in integers: sum of mu(x_j, x_i) * (x_i / x_j) over the divisors x_j of
    x_i; VerificationError if the two disagree."""
    els = p.elements
    mu = mobius_recursive(p)
    for i, (x, w) in enumerate(zip(els, ws)):
        _verify(sum(mu[j, i] * (x // els[j]) for j in _bits(p._down[i])) == w,
                "the two Psi definitions disagreed at %s", x)
    return ws


def _weights(p: DivisorPoset) -> list[int]:
    """The integers w_i = x_i * Psi_i, by the recursion over strict divisors
    that the search also runs; no check."""
    _require_gcd_closed(p)
    els = p.elements
    ws: list[int] = []
    for i, x in enumerate(els):
        pairs, strict = [], p._down[i] ^ 1 << i
        while strict:  # peel the lowest bit: the strict divisors, ascending
            pairs.append((els[j := (strict & -strict).bit_length() - 1], ws[j]))
            strict &= strict - 1
        ws.append(_w_by_recursion(x, pairs))
    return ws


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
    x_j in the set, which must equal 1 / gcd(x_i, x_j).  Entries with the same
    common divisors and gcd share one check: n of them on a gcd-closed set.
    """
    from fractions import Fraction
    _require_gcd_closed(p)
    n = p.n
    els = p.elements
    values = psi(p).values
    for common, g in {(p._down[i] & p._down[j], math.gcd(els[i], els[j]))
                      for i in range(n) for j in range(i + 1)}:
        _verify(sum((values[k] for k in _bits(common)), start=Fraction(0)) == Fraction(1, g),
                "factorization identity failed")
    delta = ExactMatrix.diagonal(els)
    e = ExactMatrix([[1 if p.leq(j, i) else 0 for j in range(n)] for i in range(n)])
    return delta, e, ExactMatrix.diagonal(values)


def _eliminate_symmetric(a: list[list[int | Fraction]]) -> tuple[int, int, int, int | Fraction]:
    """Exact elimination of a symmetric rational matrix given by its upper
    rows, a[k] = row k from its diagonal on, as a list: (plus, minus, zero,
    det).  Destructive: a[k] becomes row k of the block left before step k,
    after any congruence step.

    Pivot k is the diagonal entry, with no scale factor: the block left is
    the Schur complement, so each pivot adds an eigenvalue of its sign
    (Sylvester's law of inertia) and det is the product of the pivots.  Row i
    with lead a_ki != 0 becomes a_ic - q * a_kc for c >= i, q = a_ki / pivot:
    lead // pivot where the pivot divides the lead, so int rows stay ints,
    else a Fraction, in place and only where a_kc != 0, listed once per
    pivot.  An all-zero row adds a zero eigenvalue and is dropped.
    A zero pivot on a nonzero row, whose first nonzero entry is a_kj, first
    adds t times row j and column j to row k and column k, a congruence of
    determinant 1: the pivot becomes 2 t a_kj + a_jj, with t = 1 unless that
    is 0, and t = -1 then.

    On an LCM matrix of a gcd-closed set in ascending order every q is the
    integer x_i / x_k.  It is D Lambda D^T, D = Delta E lower triangular
    (factorization()).  Let the block left before step k be D_Q Lambda_Q
    D_Q^T over Q = {k, k+1, ...}.  The strict divisors of x_k precede it, so
    row k of D_Q is x_k e_k, and row k of the block is w_k x_j where x_k |
    x_j, else 0 (w_k = x_k Psi_k): pivot k is x_k w_k.  If Psi_k = 0 the row
    is all zero; else q = x_i / x_k, and q a_kc = (x_i / x_k) x_c w_k removes
    the term of k.  Either way the block left is D_Q' Lambda_Q' D_Q'^T,
    Q' = Q - {k}.  Only the proof reads Psi and divisibility.
    """
    plus, minus, zero, det = 0, 0, 0, 1
    for k, row_k in enumerate(a):
        if not any(row_k):
            zero, det = zero + 1, 0
            continue
        if not row_k[0]:
            d = next(d for d, v in enumerate(row_k) if v)
            j = k + d
            t = 1 if 2 * row_k[d] + a[j][0] else -1
            row_k = a[k] = [2 * t * row_k[d] + a[j][0],
                            *(t * a[c][j - c] for c in range(k + 1, j)),
                            *(x + t * y for x, y in zip(row_k[d:], a[j]))]
        pivot = row_k[0]
        nonzero = [(d, v) for d, v in enumerate(row_k) if v]
        for s, (d, lead) in enumerate(nonzero[1:], 1):
            if lead % pivot:  # never on an LCM matrix (see the docstring)
                from fractions import Fraction
                q = Fraction(lead, pivot)
            else:
                q = lead // pivot
            row_i = a[k + d]
            for e, y in nonzero[s:]:
                row_i[e - d] -= q * y
        plus += pivot > 0
        minus += pivot < 0
        det *= pivot
    return plus, minus, zero, det


def determinant_exact(m: ExactMatrix) -> Fraction:
    """Exact determinant of any square rational matrix: the matrix times the
    lcm of its denominators, by Bareiss's fraction-free elimination (E. H.
    Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968).  Each update divides exactly by the
    previous pivot, so the last pivot is the determinant.  A zero pivot swaps
    in the first row below it with a nonzero entry in its column, which
    flips the sign; a column with none gives 0."""
    from fractions import Fraction
    if not m.is_square:
        raise NonSquareError(f"matrix is {m.rows}x{m.cols}")
    n = m.rows
    scale = math.lcm(*(v.denominator for row in m.entries for v in row))
    a = [[int(v * scale) for v in row] for row in m.entries]
    sign, prev = 1, 1
    for k in range(n):
        j = next((i for i in range(k, n) if a[i][k]), None)
        if j is None:
            return Fraction(0)
        if j != k:
            a[k], a[j] = a[j], a[k]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        for row_i in a[k + 1:]:
            lead = row_i[k]
            for c in range(k + 1, n):
                row_i[c] = (row_i[c] * pivot - lead * row_k[c]) // prev
        prev = pivot
    return Fraction(sign * prev, scale ** n)


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
    double chain: single-cover elements count negative, the rest positive, and
    the matrix is nonsingular; else None.  No report calls it (a report reads
    these counts off its sign checks); it stays as the standalone route."""
    _require_gcd_closed(p)
    if not all(generates_double_chain(p, i) for i in range(p.n)):
        return None
    minus = sum(1 for i in range(p.n) if len(p.covered(i)) == 1)
    return InertiaTriple(p.n - minus, minus, 0)


def congruence_oracle(m: ExactMatrix) -> tuple[InertiaTriple, Fraction]:
    """Inertia and determinant of a symmetric rational matrix from one exact
    elimination of its upper rows as they are, pivots from the first index
    up, with no Psi values: the pivot signs give the inertia (Sylvester's
    law of inertia), their product the determinant."""
    if not m.is_square:
        raise NonSquareError(f"matrix is {m.rows}x{m.cols}")
    if not m.is_symmetric:
        raise NonSymmetricError("inertia needs a symmetric matrix")
    from fractions import Fraction
    inertia, det = _upper_congruence([list(row[i:]) for i, row in enumerate(m.entries)])
    return inertia, Fraction(det)


def lcm_congruence_oracle(p: DivisorPoset) -> tuple[InertiaTriple, int, list[int]]:
    """congruence_oracle(lcm_matrix(p)) on the n(n+1)/2 upper lcms as plain
    ints: the inertia, the integer determinant and the pivots a[k][0]."""
    els = p.elements
    a = [[math.lcm(x, y) for y in els[i:]] for i, x in enumerate(els)]
    return *_upper_congruence(a), [row[0] for row in a]


def _upper_congruence(a: list[list[int | Fraction]]) -> tuple[InertiaTriple, int | Fraction]:
    """The oracle on the upper rows of a symmetric rational matrix."""
    plus, minus, zero, det = _eliminate_symmetric(a)
    _verify(plus + minus + zero == len(a), "congruence counts failed to add up")
    return InertiaTriple(plus, minus, zero), det


def inertia_charpoly_oracle(m: ExactMatrix) -> InertiaTriple:
    """Inertia of a symmetric rational matrix: congruence_oracle(m)[0].  The
    name, which says charpoly, is kept for callers."""
    return congruence_oracle(m)[0]


def classify_psi_sign(p: DivisorPoset, i: int) -> Sign:
    """Predicted sign of Psi at a double-chain generating element: negative
    exactly when the element covers a single member."""
    _require_gcd_closed(p)
    if not generates_double_chain(p, i):
        raise NotDoubleChainGeneratorError(
            f"element {_shown(p.elements[i])} does not generate a double chain")
    return Sign.NEGATIVE if len(p.covered(i)) == 1 else Sign.POSITIVE
