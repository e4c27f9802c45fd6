"""A fixed computation that measures how fast the machine runs right now.

On a shared machine the same pass can take 1.7 times as long from one minute
to the next, and a run's wall time moves with it.  The worker times this
computation three times before its first operation and once after each one,
in the same process.  run.py reports times scaled to the reference speed:
``measured * REFERENCE_S / median(reference durations of that worker)``.
A change to the program changes the measured times but not the reference,
which is the benchmark's own code.  It repeats the two kinds of work the
program spends its time on: the psi recursion in Fractions (as in check.py)
and the interval recursion of the Mobius function, which calls a small
``leq`` method in its innermost loop.  Among the candidates tried, their sum
followed the slowdowns of all three workloads most closely.  It imports
nothing the CLI does not, so it adds little to the worker's memory.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

#: About the reference's duration on a 2-core x86-64 VM running CPython 3.11
#: when it is not slowed down, so scaled times read about like seconds there.
REFERENCE_S = 0.022


class _Divisibility:
    def __init__(self, xs: list[int]):
        self.xs = xs
        self.down = [sum(1 << j for j in range(i + 1) if x % xs[j] == 0)
                     for i, x in enumerate(xs)]

    def leq(self, j: int, i: int) -> bool:
        return bool((self.down[i] >> j) & 1)


_PSI_SET = sorted(2 ** k * 3 ** l for k in range(11) for l in range(11))
_MU_ORDER = _Divisibility(sorted(2 ** k * 3 ** l for k in range(9) for l in range(9)))


def _psi(xs: list[int]) -> list[Fraction]:
    psi: list[Fraction] = []
    for i, x in enumerate(xs):
        psi.append(Fraction(1, x) - sum((psi[j] for j in range(i) if x % xs[j] == 0),
                                        Fraction(0)))
    return psi


def _mobius(p: _Divisibility) -> list[list[int]]:
    n = len(p.xs)
    mu = [[0] * n for _ in range(n)]
    for i in range(n):
        mu[i][i] = 1
        for j in range(i - 1, -1, -1):
            if p.leq(j, i):
                mu[j][i] = -sum(mu[k][i] for k in range(j + 1, i + 1)
                                if p.leq(j, k) and p.leq(k, i))
    return mu


def duration() -> float:
    """Seconds the reference takes now; the collector is off meanwhile, so the
    program's heap does not change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        _psi(_PSI_SET)
        _mobius(_MU_ORDER)
        return time.perf_counter() - start
    finally:
        gc.enable()
