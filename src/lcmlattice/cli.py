"""Command line front end.

Subcommands: analyze (full report for a set), family (generate a named
family and report on it), mobius (table or single column), dot (Hasse
diagram), search (max positive eigenvalue count over universes), closure
(gcd closure of a set).

Exit codes: 0 success; 1 usage, parse, or parameter errors; 2 when the input
set is not gcd closed and --close was not given; 3 when two independent
routes to the same result disagreed (a fault in the program, not the input).

JSON output serializes every set element and every rational as a string
("30", "-4/15") so arbitrary precision survives; structural counts stay JSON
numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from functools import partial

from .doublechain import NotDoubleChainGeneratorError, decompose_chains, is_a_set, \
    is_meet_tree, is_r_fold_gcd_closed
from .families import DEFAULT_SEARCH_UNIVERSES, BadParamsError, classical_set, \
    cube_instances, grid_family, incomparable_tops_instance, is_cube_isomorphic, \
    search_max_iplus, squarefree_pairs_family, triple_prime_family, is_prime
from .lattice import DivisorPoset, _verify, build_poset, gcd_closure, to_dot
from .matrices import NotGcdClosedError, VerificationError, determinant_exact, \
    inertia_charpoly_oracle, lcm_matrix, psi, structural_inertia
from .moebius import mobius_closed_form, mobius_recursive, mobius_via_zeta_inverse

DEFAULT_VERIFY_CAP = 64


def _frac(f: Fraction) -> str:
    # Decimal prints an int of any length; str(int) stops at CPython's 4300-digit limit.
    return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def _read_elements(ns: argparse.Namespace) -> list[int]:
    text_parts: list[str] = []
    tokens = list(ns.elements)
    if tokens == ["-"]:
        text_parts.append(sys.stdin.read())
        tokens = []
    if ns.file:
        if ns.file == "-":
            text_parts.append(sys.stdin.read())
        else:
            with open(ns.file, "r", encoding="utf-8") as fh:
                text_parts.append(fh.read())
    for part in text_parts:
        tokens.extend(part.replace(",", " ").split())
    if not tokens:
        raise ValueError("no elements given (pass integers, --file, or '-')")
    values = []
    for t in tokens:
        try:
            values.append(int(t))
        except ValueError:
            raise ValueError(f"not an integer: {t!r}") from None
    return values


def _build_report(p: DivisorPoset, original: Sequence[int],
                  closure_applied: bool, verify: bool, cap: int) -> dict:
    psis = psi(p)
    per_element = []
    for i in range(p.n):
        try:
            dec = decompose_chains(p, i)
        except NotDoubleChainGeneratorError:
            dec = None
        rec: dict = {
            "value": str(p.elements[i]),
            "covers": [str(p.elements[j]) for j in p.covered(i)],
            "generates_double_chain": dec is not None,
        }
        if dec is not None:
            rec["chain_a"] = [str(p.elements[j]) for j in dec.chain_a]
            rec["chain_b"] = [str(p.elements[j]) for j in dec.chain_b]
            rec["eta"] = {str(p.elements[j]): dec.eta[j] for j in dec.core.members}
            rec["doubly_attached"] = (None if dec.doubly_attached is None
                                      else str(p.elements[dec.doubly_attached]))
            rec["mobius_source"] = "closed-form"
        else:
            rec["chain_a"] = rec["chain_b"] = rec["eta"] = None
            rec["doubly_attached"] = None
            rec["mobius_source"] = "recursive"
        v = psis[i]
        rec["psi"] = _frac(v)
        rec["psi_sign"] = "positive" if v > 0 else ("negative" if v < 0 else "zero")
        per_element.append(rec)

    det = psis.determinant()
    signs = psis.inertia()
    inertia = structural_inertia(p)
    method = "structural"
    if inertia is None:
        inertia, method = signs, "psi"
    _verify(inertia == signs, "structural inertia disagreed with sign counts")
    if verify or p.n <= cap:
        lcm = lcm_matrix(p)
        _verify(inertia_charpoly_oracle(lcm) == inertia,
                "inertia oracle disagreed with sign counts")
        _verify(determinant_exact(lcm) == det,
                "determinant oracle disagreed with the product formula")
        method = "oracle-verified"

    return {
        "input": [str(x) for x in sorted(set(original))],
        "gcd_closed_input": not closure_applied,
        "closure_applied": closure_applied,
        "elements": [str(x) for x in p.elements],
        "n": p.n,
        "per_element": per_element,
        "determinant": _frac(det),
        "inertia": {"plus": inertia.plus, "minus": inertia.minus,
                    "zero": inertia.zero, "method": method},
        "classification": {
            "a_set": is_a_set(p),
            "meet_tree": is_meet_tree(p),
            "r_fold": [r for r in range(p.n) if is_r_fold_gcd_closed(p, r)],
            "cube_isomorphic": is_cube_isomorphic(p),
        },
    }


def _render_text(rep: dict) -> str:
    lines = [f"elements ({rep['n']}): " + " ".join(rep["elements"])]
    if rep["closure_applied"]:
        lines.append("(gcd closure applied to input: " + " ".join(rep["input"]) + ")")
    for rec in rep["per_element"]:
        head = (f"  {rec['value']}: covers [" + " ".join(rec["covers"]) + "]"
                f"  double-chain {'yes' if rec['generates_double_chain'] else 'no'}"
                f"  mobius {rec['mobius_source']}"
                f"  psi {rec['psi']} ({rec['psi_sign']})")
        lines.append(head)
        if rec["generates_double_chain"] and rec["eta"] is not None and rec["eta"]:
            eta = " ".join(f"{k}:{v}" for k, v in rec["eta"].items())
            extra = (f"      chains A [{' '.join(rec['chain_a'])}]"
                     f" B [{' '.join(rec['chain_b'])}]  eta {{{eta}}}")
            if rec["doubly_attached"] is not None:
                extra += f"  doubly-attached {rec['doubly_attached']}"
            lines.append(extra)
    inertia = rep["inertia"]
    lines.append(f"determinant: {rep['determinant']}")
    lines.append(f"inertia: +{inertia['plus']} -{inertia['minus']} 0x{inertia['zero']}"
                 f" (method: {inertia['method']})")
    cls = rep["classification"]
    folds = " ".join(str(r) for r in cls["r_fold"])
    lines.append(f"classification: a-set {'yes' if cls['a_set'] else 'no'},"
                 f" meet-tree {'yes' if cls['meet_tree'] else 'no'},"
                 f" r-fold gcd closed for r in [{folds}],"
                 f" cube {'yes' if cls['cube_isomorphic'] else 'no'}")
    return "\n".join(lines)


def _emit_report(p: DivisorPoset, original: Sequence[int], closure_applied: bool,
                 ns: argparse.Namespace) -> int:
    rep = _build_report(p, original, closure_applied, verify=ns.verify, cap=ns.cap)
    if ns.json:
        print(json.dumps(rep, indent=2))
    else:
        print(_render_text(rep))
    return 0


def _read_closed_poset(ns: argparse.Namespace, use: str
                       ) -> tuple[DivisorPoset, list[int], bool]:
    """The input's poset, its elements, and whether the gcd closure was taken
    (only under --close; NotGcdClosedError for an unclosed set without it)."""
    xs = _read_elements(ns)
    p = build_poset(xs)
    if p.gcd_closed:
        return p, xs, False
    if not ns.close:
        raise NotGcdClosedError(
            f"set is not gcd closed; pass --close to {use} its closure")
    return build_poset(gcd_closure(xs)), xs, True


def _cmd_analyze(ns: argparse.Namespace) -> int:
    return _emit_report(*_read_closed_poset(ns, "analyze"), ns)


def _cmd_family(ns: argparse.Namespace) -> int:
    def need(*names: str) -> None:
        missing = [f"--{n}" for n in names if getattr(ns, n) is None]
        if missing:
            raise BadParamsError(f"family kind {ns.kind!r} needs " + ", ".join(missing))

    if ns.kind == "grid":
        need("p", "q", "m")
        p = grid_family(ns.p, ns.q, ns.m)
    elif ns.kind == "squarefree-pairs":
        need("primes")
        p = squarefree_pairs_family(ns.primes)
    elif ns.kind == "triple-prime":
        need("primes", "q", "r", "m")
        p = triple_prime_family(ns.primes, ns.q, ns.r, ns.m)
    elif ns.kind == "cube":
        need("index")
        if not 1 <= ns.index <= 3:
            raise BadParamsError("--index must be 1, 2, or 3")
        p = cube_instances()[ns.index - 1]
    elif ns.kind == "classical":
        need("n")
        p = classical_set(ns.n)
    else:  # incomparable-tops
        p = incomparable_tops_instance()
    return _emit_report(p, p.elements, False, ns)


def _cmd_mobius(ns: argparse.Namespace) -> int:
    p, _, _ = _read_closed_poset(ns, "use")
    i = None if ns.column is None else p.index(ns.column)
    # One column function per method, looked up at call time so that a
    # rebinding of these names (bench/tracing.py wraps them) is seen.
    if ns.method == "closed-form":
        column = partial(mobius_closed_form, p)
    elif ns.method == "zeta":
        column = mobius_via_zeta_inverse(p).column
    else:
        column = mobius_recursive(p).column
    if i is not None:
        col = column(i)
        if ns.json:
            print(json.dumps({"element": str(ns.column), "method": ns.method,
                              "column": {str(p.elements[j]): col[j]
                                         for j in range(p.n)}}, indent=2))
        else:
            for j in range(p.n):
                print(f"mu({p.elements[j]}, {ns.column}) = {col[j]}")
        return 0

    columns = [column(k) for k in range(p.n)]
    table = [[col[j] for col in columns] for j in range(p.n)]
    if ns.json:
        print(json.dumps({"elements": [str(x) for x in p.elements],
                          "method": ns.method, "table": table}, indent=2))
    else:
        w = max(len(str(x)) for x in p.elements) + 1
        w = max(w, max(len(str(v)) + 1 for row in table for v in row))
        print(" " * w + "".join(f"{x:>{w}}" for x in p.elements))
        for j in range(p.n):
            print(f"{p.elements[j]:>{w}}" + "".join(f"{v:>{w}}" for v in table[j]))
    return 0


def _cmd_dot(ns: argparse.Namespace) -> int:
    xs = _read_elements(ns)
    sys.stdout.write(to_dot(build_poset(xs)))
    return 0


def _cmd_closure(ns: argparse.Namespace) -> int:
    xs = _read_elements(ns)
    closed = gcd_closure(xs)
    if ns.json:
        print(json.dumps({"input": [str(x) for x in sorted(set(xs))],
                          "closure": [str(x) for x in closed]}, indent=2))
    else:
        print(" ".join(str(x) for x in closed))
    return 0


def _cmd_search(ns: argparse.Namespace) -> int:
    if ns.universe:
        universes: tuple[int, ...] = tuple(ns.universe)
    elif ns.max_prime is not None:
        universes = (math.prod(v for v in range(2, ns.max_prime + 1) if is_prime(v)),)
    else:
        universes = DEFAULT_SEARCH_UNIVERSES
    res = search_max_iplus(ns.n, universes)
    if ns.json:
        print(json.dumps({
            "n": res.n,
            "universes": [str(u) for u in res.universes],
            "max_iplus": res.max_iplus,
            "lower_bound": True,
            "witness": [str(x) for x in res.witness.elements],
        }, indent=2))
    else:
        print(f"size {res.n}: max positive eigenvalue count found = {res.max_iplus}"
              f" (lower bound); witness: {' '.join(str(x) for x in res.witness.elements)};"
              f" universes: {' '.join(str(u) for u in res.universes)}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_set_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("elements", nargs="*",
                     help="set elements (or a single '-' to read stdin)")
    sub.add_argument("--file", help="read elements from a file ('-' for stdin)")


def _add_report_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON")
    sub.add_argument("--verify", action="store_true",
                     help="force oracle verification regardless of size")
    sub.add_argument("--cap", type=int, default=DEFAULT_VERIFY_CAP,
                     help="auto-verify with the oracle up to this size (default 64)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcmlattice",
                     description="Exact divisibility-order analysis of integer sets "
                                 "and their GCD/LCM matrices.")
    subs = parser.add_subparsers(dest="command", required=True)

    an = subs.add_parser("analyze", help="full report for a set")
    _add_set_arguments(an)
    an.add_argument("--close", action="store_true",
                    help="analyze the gcd closure when the set is not closed")
    _add_report_arguments(an)
    an.set_defaults(func=_cmd_analyze)

    fam = subs.add_parser("family", help="generate a named family and report on it")
    fam.add_argument("kind",
                     choices=["grid", "squarefree-pairs", "triple-prime", "cube",
                              "classical", "incomparable-tops"])
    fam.add_argument("--p", type=int)
    fam.add_argument("--q", type=int)
    fam.add_argument("--r", type=int)
    fam.add_argument("--m", type=int)
    fam.add_argument("--n", type=int)
    fam.add_argument("--index", type=int, help="cube instance number (1-3)")
    fam.add_argument("--primes", type=int, nargs="+")
    _add_report_arguments(fam)
    fam.set_defaults(func=_cmd_family)

    mob = subs.add_parser("mobius", help="Mobius table or a single column")
    _add_set_arguments(mob)
    mob.add_argument("--column", type=int, help="element value for a single column")
    mob.add_argument("--method", choices=["recursive", "closed-form", "zeta"],
                     default="recursive")
    mob.add_argument("--close", action="store_true")
    mob.add_argument("--json", action="store_true", help="emit JSON")
    mob.set_defaults(func=_cmd_mobius)

    dot = subs.add_parser("dot", help="Hasse diagram as DOT")
    _add_set_arguments(dot)
    dot.set_defaults(func=_cmd_dot)

    clo = subs.add_parser("closure", help="gcd closure of a set")
    _add_set_arguments(clo)
    clo.add_argument("--json", action="store_true", help="emit JSON")
    clo.set_defaults(func=_cmd_closure)

    sea = subs.add_parser("search", help="max positive eigenvalue count at a size")
    sea.add_argument("--n", type=int, required=True, help="set size to search")
    sea.add_argument("--universe", type=int, action="append",
                     help="divisor universe (repeatable)")
    sea.add_argument("--max-prime", type=int,
                     help="use divisors of the product of all primes up to this bound")
    sea.add_argument("--json", action="store_true", help="emit JSON")
    sea.set_defaults(func=_cmd_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except NotGcdClosedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
