"""Mobius function of a divisor poset, computed three ways.

The recursive definition sums over intervals, the zeta route inverts the
divisibility indicator matrix, and the closed form reads values off an
element's two-chain decomposition.  The first two run one recursion (back
substitution solves Z*M = I as mu(x_j, x_i) = -sum of mu(x_k, x_i) over
x_j < x_k <= x_i), so the closed form is the independent route.  The tests
check that the three agree on the whole corpus wherever the closed form is
defined, and the table against sympy's mu and against Z*M = I.
"""

from __future__ import annotations

from .doublechain import decompose_chains
from .lattice import DivisorPoset, _PosetValues, _bits, _verify, meet


class MoebiusTable(_PosetValues):
    """Full table of mu(x_j, x_i) values; values[j][i] is 0 unless x_j | x_i."""

    __slots__ = ()

    def column(self, i: int) -> dict[int, int]:
        """Column of mu(., x_i) as an index-to-value map (zeros included)."""
        return {j: self.values[j][i] for j in range(self.poset.n)}

    def __getitem__(self, ji: tuple[int, int]) -> int:
        j, i = ji
        return self.values[j][i]


def mobius_recursive(p: DivisorPoset) -> MoebiusTable:
    """Interval recursion: mu(x,x) = 1 and each strict divisor takes the
    negated sum of the values strictly above it in the interval."""
    n = p.n
    mu = [[0] * n for _ in range(n)]
    for i in range(n):
        mu[i][i] = 1
        for j in range(i - 1, -1, -1):
            if p.leq(j, i):
                mu[j][i] = -sum(mu[k][i] for k in range(j + 1, i + 1)
                                if p.leq(j, k) and p.leq(k, i))
    return MoebiusTable(p, tuple(tuple(row) for row in mu))


def mobius_via_zeta_inverse(p: DivisorPoset) -> MoebiusTable:
    """Oracle route: exact integer inverse of the zeta (divisibility) matrix.

    The zeta matrix is unitriangular in the ascending element order, so back
    substitution inverts it exactly over the integers.  Row j runs over the
    k > j with x_j | x_k, and column i down over the j with x_j | x_i.
    """
    n = p.n
    above: list[list[int]] = [[] for _ in range(n)]
    for k in range(n):
        for j in _bits(p._down[k] & ~(1 << k)):
            above[j].append(k)
    inv = [[0] * n for _ in range(n)]
    for col in range(n):
        for row in reversed(list(_bits(p._down[col]))):
            inv[row][col] = (row == col) - sum(inv[k][col] for k in above[row])
    return MoebiusTable(p, tuple(tuple(row) for row in inv))


def mobius_closed_form(p: DivisorPoset, i: int) -> dict[int, int]:
    """Column of mu(., x_i) read directly off the chain decomposition of x_i.

    Value 1 at x_i itself, -1 on the covered set, and on the core each
    element's attachment count eta, corrected at the chain tops: when the tops
    are comparable (or chain B is empty) only the higher one loses one; when
    they are incomparable both lose one, and their meet gains one unless a
    cover is doubly attached.  Everything outside the closure is 0.  Raises
    NotDoubleChainGeneratorError when x_i has no such decomposition.
    """
    dec = decompose_chains(p, i)
    col = {j: 0 for j in range(p.n)}
    col[i] = 1
    for z in p.covered(i):
        col[z] = -1
    col.update(dec.eta)
    if not dec.core.members:
        return col
    ta, tb = dec.top_a, dec.top_b
    _verify(ta is not None and tb is not None, "a non-empty core has no chain tops")
    if p.leq(ta, tb) or p.leq(tb, ta):
        col[max(ta, tb)] -= 1  # ascending order: the higher top has the larger index
    else:
        col[ta] -= 1
        col[tb] -= 1
        if dec.doubly_attached is None:
            col[meet(p, ta, tb)] += 1
    return col
