"""The operations of each workload, built from the seed with the benchmark's
own code (nothing here imports lcmlattice, so a change to the program cannot
change its own inputs).

An operation is a dict with a stable ``id``, the CLI ``argv``, the ``kind`` of
output to check, and the integers it was built from.  Fixed operations carry
``fixed=True``: their outputs are compared with digests recorded at the seed
commit (``expected.json``).  Seeded operations are checked by recomputation
only.

The seed picks primes for two templates written as exponent vectors.  Swapping
the primes of a template keeps its divisibility order (gcd is a componentwise
minimum of exponents), so the seed changes the values of an input but never
its size, its shape or its side of the oracle cap.  The pool holds primes of
nearly equal size, so the big-integer work also stays about the same.
"""

from __future__ import annotations

import random

#: The CLI's default ``--cap``: ``analyze`` runs the matrix oracles at or below it.
CAP = 64

WORKLOADS = ("analyze-verified", "analyze-large", "search-small")

#: Primes between 101 and 151; their logarithms differ by under 9%.
PRIME_POOL = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151)

#: Generators over four primes whose gcd closure has 48 elements (at most CAP).
VERIFIED_TEMPLATE = (
    (0, 1, 3, 2), (1, 0, 1, 1), (1, 2, 0, 2), (1, 3, 3, 1), (2, 2, 0, 3),
    (2, 3, 1, 1), (3, 0, 3, 0), (3, 1, 2, 2), (3, 2, 2, 3), (3, 3, 0, 3),
)

#: Generators over five primes, not gcd closed; the closure has 196 elements.
LARGE_TEMPLATE = (
    (0, 0, 0, 0, 2), (0, 0, 0, 2, 0), (0, 2, 2, 0, 3), (0, 3, 2, 1, 2),
    (1, 1, 2, 0, 1), (1, 2, 1, 2, 0), (1, 2, 2, 2, 2), (2, 0, 0, 3, 2),
    (2, 0, 3, 0, 0), (2, 0, 3, 3, 2), (2, 1, 0, 3, 3), (2, 1, 1, 0, 2),
    (2, 1, 3, 2, 0), (2, 2, 1, 2, 2), (2, 3, 0, 0, 1), (2, 3, 0, 3, 3),
    (3, 0, 1, 0, 0), (3, 1, 3, 1, 3), (3, 2, 0, 3, 0), (3, 2, 1, 3, 1),
    (3, 3, 1, 1, 0), (3, 3, 3, 2, 3),
)


def _exponent_closure(vectors) -> set[tuple[int, ...]]:
    have = set(vectors)
    queue = list(have)
    while queue:
        x = queue.pop()
        for y in list(have):
            g = tuple(map(min, x, y))
            if g not in have:
                have.add(g)
                queue.append(g)
    return have


def _values(vectors, primes) -> list[int]:
    out = []
    for v in vectors:
        x = 1
        for p, e in zip(primes, v):
            x *= p ** e
        out.append(x)
    return sorted(out)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def grid(p: int, q: int, m: int) -> list[int]:
    return sorted(p ** k * q ** l for k in range(m) for l in range(m))


def triple_prime(primes, q: int, r: int, m: int) -> list[int]:
    return sorted(r ** i * q ** k * primes[i] ** l
                  for i in range(m) for k in range(m) for l in range(m))


def squarefree_pairs(primes) -> list[int]:
    return sorted([1, *primes] + [a * b for i, a in enumerate(primes)
                                  for b in primes[:i]])


CUBES = (
    [1, 2, 3, 5, 6, 10, 15, 30],
    [1, 2, 3, 5, 66, 70, 255, 39270],
    [1, 2, 3, 5, 70, 78, 255, 46410],
)
FIRST_TEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _analyze(op_id: str, xs, fixed: bool, close: bool = False) -> dict:
    argv = ["analyze", "--json", *(["--close"] if close else []), *map(str, xs)]
    return {"id": op_id, "kind": "analyze", "argv": argv, "input": list(xs),
            "close": close, "fixed": fixed}


def _mobius(op_id: str, xs, method: str) -> dict:
    return {"id": op_id, "kind": "mobius", "method": method, "input": list(xs),
            "argv": ["mobius", "--json", "--method", method, *map(str, xs)],
            "fixed": True}


def _search(op_id: str, argv) -> dict:
    return {"id": op_id, "kind": "search", "argv": ["search", "--json", *argv],
            "fixed": True}


def seeded_verified_set(seed: int) -> list[int]:
    primes = random.Random(seed).sample(PRIME_POOL, 4)
    return _values(_exponent_closure(VERIFIED_TEMPLATE), primes)


def seeded_large_generators(seed: int) -> list[int]:
    primes = random.Random(seed).sample(PRIME_POOL, 5)
    return _values(LARGE_TEMPLATE, primes)


def operations(workload: str, seed: int) -> list[dict]:
    """The operations of one pass, in the order they run."""
    if workload == "analyze-verified":
        return [
            *(_analyze(f"cube-{k + 1}", xs, True) for k, xs in enumerate(CUBES)),
            _analyze("range-64", range(1, 65), True),
            _analyze("grid-2-3-8", grid(2, 3, 8), True),
            _analyze("triple-prime-4", triple_prime((5, 7, 11, 13), 2, 3, 4), True),
            _analyze("squarefree-pairs-10", squarefree_pairs(FIRST_TEN_PRIMES), True),
            _analyze("seeded-closed-48", seeded_verified_set(seed), False),
        ]
    if workload == "analyze-large":
        return [
            _analyze("divisors-720720", divisors(720720), True),
            _analyze("range-300", range(1, 301), True),
            _analyze("range-900", range(1, 901), True),
            _analyze("grid-2-3-20", grid(2, 3, 20), True),
            _analyze("chain-2-120", [2 ** k for k in range(120)], True),
            _analyze("seeded-close-196", seeded_large_generators(seed), False,
                     close=True),
            *(_mobius(f"mobius-grid-2-3-12-{m}", grid(2, 3, 12), m)
              for m in ("recursive", "closed-form", "zeta")),
            *(_mobius(f"mobius-divisors-720720-{m}", divisors(720720), m)
              for m in ("recursive", "zeta")),
        ]
    if workload == "search-small":
        return [
            _search("search-6-2310", ["--n", "6", "--universe", "2310"]),
            _search("search-8-default", ["--n", "8"]),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


#: Analyzed outside the workloads: it fails at the seed commit (the CLI cannot
#: print a determinant of more than 4300 digits), and the workloads hold only
#: operations that succeed.  Each analyze-large run reports its outcome.
KNOWN_FAILURE = _analyze("chain-2-200", [2 ** k for k in range(200)], False)
