"""Independent checks of the CLI's outputs.

Nothing here imports lcmlattice.  ``check`` returns None for a correct output
and a one-line reason otherwise.  Reports are recomputed with short reference
code: the gcd closure, psi by the ``1/x - sum of psi(y) over y | x`` recursion
in Fractions, the determinant as ``(prod S)^2 * prod psi``, the inertia as the
sign counts of psi, and Mobius tables from the number-theoretic Mobius
function (every table input is a full divisor lattice).  Fixed operations are
also compared with digests recorded at the seed commit in ``expected.json``;
a digest covers only the keys the output had then, so fields added later do
not change it.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import CAP

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: The keys of each output at the seed commit; None keeps a value whole.
SCHEMAS = {
    "analyze": {
        "input": None, "gcd_closed_input": None, "closure_applied": None,
        "elements": None, "n": None,
        "per_element": [{
            "value": None, "covers": None, "generates_double_chain": None,
            "chain_a": None, "chain_b": None, "eta": None, "doubly_attached": None,
            "mobius_source": None, "psi": None, "psi_sign": None,
        }],
        "determinant": None,
        "inertia": {"plus": None, "minus": None, "zero": None, "method": None},
        "classification": {"a_set": None, "meet_tree": None, "r_fold": None,
                           "cube_isomorphic": None},
    },
    "mobius": {"elements": None, "method": None, "table": None},
    "search": {"n": None, "universes": None, "max_iplus": None,
               "lower_bound": None, "witness": None},
}

_CHUNK_DIGITS = 1000


def decimal(n: int) -> str:
    """Decimal digits of any int; ``str`` refuses more than 4300 digits."""
    if n < 0:
        return "-" + decimal(-n)
    chunk = 10 ** _CHUNK_DIGITS
    parts = []
    while n >= chunk:
        n, r = divmod(n, chunk)
        parts.append(f"{r:0{_CHUNK_DIGITS}d}")
    return str(n) + "".join(reversed(parts))


def frac(f: Fraction) -> str:
    return f"{decimal(f.numerator)}/{decimal(f.denominator)}"


def gcd_closure(xs) -> list[int]:
    have = set(xs)
    queue = list(have)
    while queue:
        x = queue.pop()
        for y in list(have):
            g = math.gcd(x, y)
            if g not in have:
                have.add(g)
                queue.append(g)
    return sorted(have)


def psi(els: list[int]) -> list[Fraction]:
    """psi(x) = 1/x minus psi(y) summed over the members y that strictly divide x."""
    values: list[Fraction] = []
    for i, x in enumerate(els):
        acc = Fraction(1, x)
        for j in range(i):
            if x % els[j] == 0:
                acc -= values[j]
        values.append(acc)
    return values


def determinant(els: list[int], psis: list[Fraction]) -> Fraction:
    num = den = 1
    for v in psis:
        num *= v.numerator
        den *= v.denominator
    square = math.prod(els) ** 2
    return Fraction(num * square, den)


def sign_counts(psis: list[Fraction]) -> tuple[int, int, int]:
    plus = sum(1 for v in psis if v > 0)
    minus = sum(1 for v in psis if v < 0)
    return plus, minus, len(psis) - plus - minus


def _sign_name(v: Fraction) -> str:
    return "positive" if v > 0 else ("negative" if v < 0 else "zero")


def project(value, schema):
    """The part of ``value`` that ``schema`` names; KeyError if a key is gone."""
    if isinstance(schema, dict):
        return {k: project(value[k], s) for k, s in schema.items()}
    if isinstance(schema, list):
        return [project(v, schema[0]) for v in value]
    return value


def digest(kind: str, doc: dict) -> str:
    text = json.dumps(project(doc, SCHEMAS[kind]), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check_analyze(op: dict, rep: dict) -> str | None:
    given = sorted(set(op["input"]))
    els = gcd_closure(given)
    if not op["close"] and els != given:
        return "workload error: input is not gcd closed"
    if rep["elements"] != [str(x) for x in els]:
        return "elements differ from the gcd closure"
    if rep["input"] != [str(x) for x in given]:
        return "input field differs from the input"
    if rep["closure_applied"] != (els != given) or rep["n"] != len(els):
        return "closure_applied or n is wrong"
    psis = psi(els)
    for rec, x, v in zip(rep["per_element"], els, psis, strict=True):
        if rec["value"] != str(x) or rec["psi"] != frac(v):
            return f"psi({x}) is {rec['psi']}, expected {frac(v)}"
        if rec["psi_sign"] != _sign_name(v):
            return f"psi_sign of {x} is {rec['psi_sign']}"
    if rep["determinant"] != frac(determinant(els, psis)):
        return "determinant differs from (prod S)^2 * prod psi"
    inertia = rep["inertia"]
    if (inertia["plus"], inertia["minus"], inertia["zero"]) != sign_counts(psis):
        return "inertia differs from the sign counts of psi"
    if (inertia["method"] == "oracle-verified") != (len(els) <= CAP):
        return f"inertia.method is {inertia['method']!r} at n={len(els)} (cap {CAP})"
    return None


def mobius_classical(m: int) -> int:
    result, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def check_mobius(op: dict, doc: dict) -> str | None:
    els = sorted(set(op["input"]))
    if doc["elements"] != [str(x) for x in els] or doc["method"] != op["method"]:
        return "elements or method differ from the request"
    table = doc["table"]
    if len(table) != len(els):
        return "table has the wrong size"
    for j, (xj, row) in enumerate(zip(els, table)):
        for i, xi in enumerate(els):
            want = mobius_classical(xi // xj) if xi % xj == 0 else 0
            if row[i] != want:
                return f"mu({xj}, {xi}) is {row[i]}, expected {want}"
    return None


def check_search(op: dict, doc: dict, expected: dict) -> str | None:
    want = expected[op["id"]]
    if doc["max_iplus"] != want["max_iplus"] or doc["witness"] != want["witness"]:
        return "max_iplus or witness differs from the seed commit's"
    els = [int(x) for x in doc["witness"]]
    n = int(op["argv"][op["argv"].index("--n") + 1])
    if len(els) != n or gcd_closure(els) != els:
        return "witness is not a gcd-closed set of the requested size"
    if sign_counts(psi(els))[0] != doc["max_iplus"]:
        return "witness's positive count differs from max_iplus"
    return None


def check(op: dict, code, out: str, expected: dict) -> str | None:
    """None when the operation succeeded with a correct output, else why not."""
    if code != 0:
        return f"exit {code}"
    try:
        doc = json.loads(out)
        if op["kind"] == "analyze":
            bad = check_analyze(op, doc)
        elif op["kind"] == "mobius":
            bad = check_mobius(op, doc)
        else:
            bad = check_search(op, doc, expected)
        if bad is None and op["fixed"] and digest(op["kind"], doc) != expected[op["id"]]["digest"]:
            bad = "output digest differs from the seed commit's"
        return bad
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
