"""Command line front end.

Each subcommand is one entry of _COMMANDS: its help line, the function that
adds its arguments, its handler.  main builds only the parser of the command
it runs, and the full one for help, unknown commands and leftover arguments.

Exit codes: 0 success; 1 usage, parse, or parameter errors, or a stdout
closed before the output was written (no traceback); 2 when the input set is
not gcd closed and --close was not given; 3 when two independent routes to
the same result disagreed (a fault in the program, not the input).  A report
keeps each weight w_k = x_k * Psi_k an int and prints Psi_k with no Fraction.
Up to --cap elements, or with --verify, pivot k of one exact elimination of
the LCM matrix must be x_k * w_k; else psi's Mobius sum checks w_k.

JSON output has json.dumps(indent=2)'s layout, from one writer; elements and
rationals are strings ("30", "-4/15") for any precision, counts are numbers.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _quote  # C, where _json is built

from .doublechain import NotDoubleChainGeneratorError, decompose_chains, is_a_set, \
    is_meet_tree, is_r_fold_gcd_closed
from .families import _MAX_UNIVERSE_DIVISORS, DEFAULT_SEARCH_UNIVERSES, BadParamsError, \
    classical_set, cube_instances, grid_family, incomparable_tops_instance, is_cube_isomorphic, \
    search_max_iplus, squarefree_pairs_family, triple_prime_family, is_prime
from .lattice import DivisorPoset, _verify, build_poset, gcd_closure, to_dot
from .matrices import InertiaTriple, NotGcdClosedError, VerificationError, _weights, \
    lcm_congruence_oracle, psi
from .moebius import mobius_closed_form, mobius_recursive, mobius_via_zeta_inverse

DEFAULT_VERIFY_CAP = 64


def _frac(f: Fraction | int, den: int = 1) -> str:
    # f / den (den > 0) in lowest terms; Decimal prints any int, str stops at 4300 digits.
    g = math.gcd(f.numerator, den)  # f.denominator is coprime to f.numerator
    return f"{Decimal(f.numerator // g)}/{Decimal(f.denominator * den // g)}"


def _dumps(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) for str keys and exact str, int, bool, None,
    list and dict, strings escaped in C (any indent sends json.dumps to its
    Python encoder); TypeError for any other type, or a key that is not a str."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None or t is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = indent + "  "
    if t is list:  # str items are quoted here, with no call of _dumps
        items, ends = [_quote(v) if type(v) is str else _dumps(v, inner) for v in obj], "[]"
    elif t is dict:  # _quote raises the TypeError for a key
        items, ends = [_quote(k) + ": " + (_quote(v) if type(v) is str else _dumps(v, inner))
                       for k, v in obj.items()], "{}"
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


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
            try:
                with open(ns.file, "r", encoding="utf-8") as fh:
                    text_parts.append(fh.read())
            except OSError as exc:
                raise ValueError(f"cannot read {ns.file!r}: {exc.strerror}") from None
    for part in text_parts:
        tokens.extend(part.replace(",", " ").split())
    if not tokens:
        raise ValueError("no elements given (pass integers, --file, or '-')")
    values = []
    for t in tokens:
        try:
            values.append(int(t))
        except ValueError:
            shown = repr(t) if len(t) <= 20 else f"{t[:20]!r}... ({len(t)} characters)"
            raise ValueError(f"not an integer: {shown}") from None
    return values


def _build_report(p: DivisorPoset, original: Sequence[int],
                  closure_applied: bool, verify: bool, cap: int) -> dict:
    oracle = verify or p.n <= cap
    els = p.elements
    ws = _weights(p) if oracle else [int(x * v) for x, v in zip(els, psi(p))]
    strs = [str(x) for x in els]
    per_element = []
    for i, (x, w) in enumerate(zip(els, ws)):
        try:
            dec = decompose_chains(p, i)
        except NotDoubleChainGeneratorError:
            dec = None
        rec: dict = {
            "value": strs[i],
            "covers": [strs[j] for j in p.covered(i)],
            "generates_double_chain": dec is not None,
        }
        if dec is not None:
            rec["chain_a"] = [strs[j] for j in dec.chain_a]
            rec["chain_b"] = [strs[j] for j in dec.chain_b]
            rec["eta"] = {strs[j]: dec.eta[j] for j in dec.core.members}
            rec["doubly_attached"] = (None if dec.doubly_attached is None
                                      else strs[dec.doubly_attached])
            rec["mobius_source"] = "closed-form"
            _verify(w != 0 and (w < 0) == (len(rec["covers"]) == 1),
                    "the weight's sign disagreed with the double chain at %s", x)
        else:
            rec["chain_a"] = rec["chain_b"] = rec["eta"] = rec["doubly_attached"] = None
            rec["mobius_source"] = "recursive"
        rec["psi"] = _frac(w, x)
        rec["psi_sign"] = "positive" if w > 0 else ("negative" if w < 0 else "zero")
        per_element.append(rec)

    det = math.prod(ws) * math.prod(els)  # prod(Psi) * prod(x)^2, with w = x * Psi
    plus, minus = sum(w > 0 for w in ws), sum(w < 0 for w in ws)
    inertia = InertiaTriple(plus, minus, p.n - plus - minus)
    # With every element a generator, the sign checks made this the structural inertia.
    method = "structural" if all(r["generates_double_chain"] for r in per_element) else "psi"
    if oracle:
        oracle_inertia, oracle_det, pivots = lcm_congruence_oracle(p)
        _verify(oracle_inertia == inertia, "inertia oracle disagreed with sign counts")
        _verify(oracle_det == det, "determinant oracle disagreed with the product formula")
        for x, w, pivot in zip(els, ws, pivots):
            _verify(pivot == x * w, "an oracle pivot disagreed with the weight at %s", x)
        method = "oracle-verified"

    return {
        "input": [str(x) for x in sorted(set(original))],
        "gcd_closed_input": not closure_applied,
        "closure_applied": closure_applied,
        "elements": strs,
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
        print(_dumps(rep))
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
            print(_dumps({"element": str(ns.column), "method": ns.method,
                          "column": {str(p.elements[j]): col[j] for j in range(p.n)}}))
        else:
            for j in range(p.n):
                print(f"mu({p.elements[j]}, {ns.column}) = {col[j]}")
        return 0

    columns = [column(k) for k in range(p.n)]
    table = [[col[j] for col in columns] for j in range(p.n)]
    if ns.json:
        print(_dumps({"elements": [str(x) for x in p.elements],
                      "method": ns.method, "table": table}))
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
        print(_dumps({"input": [str(x) for x in sorted(set(xs))],
                      "closure": [str(x) for x in closed]}))
    else:
        print(" ".join(str(x) for x in closed))
    return 0


def _cmd_search(ns: argparse.Namespace) -> int:
    if ns.universe:
        universes: tuple[int, ...] = tuple(ns.universe)
    elif ns.max_prime is not None:
        # The product of k primes has 2^k divisors, so the count of primes
        # decides before anything is multiplied; it stops at the primes up
        # to 1000, past which the count given is a floor.
        p = ns.max_prime
        primes = [v for v in range(2, min(p, 1000) + 1) if is_prime(v)]
        if 1 << len(primes) > _MAX_UNIVERSE_DIVISORS:
            floor = "at least " if p > 1000 else ""
            raise BadParamsError(
                f"the product of the primes up to {p} has {floor}{1 << len(primes)} "
                f"divisors, more than the {_MAX_UNIVERSE_DIVISORS} allowed")
        universes = (math.prod(primes),)
    else:
        universes = DEFAULT_SEARCH_UNIVERSES
    res = search_max_iplus(ns.n, universes)
    if ns.json:
        print(_dumps({
            "n": res.n,
            "universes": [str(u) for u in res.universes],
            "max_iplus": res.max_iplus,
            "lower_bound": True,
            "witness": [str(x) for x in res.witness.elements],
        }))
    else:
        print(f"size {res.n}: max positive eigenvalue count found = {res.max_iplus}"
              f" (lower bound); witness: {' '.join(str(x) for x in res.witness.elements)};"
              f" universes: {' '.join(str(u) for u in res.universes)}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_set_arguments(sub: argparse.ArgumentParser, json: bool = False) -> None:
    sub.add_argument("elements", nargs="*",
                     help="set elements (or a single '-' to read stdin)")
    sub.add_argument("--file", help="read elements from a file ('-' for stdin)")
    if json:
        sub.add_argument("--json", action="store_true", help="emit JSON")


def _add_report_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON")
    sub.add_argument("--verify", action="store_true",
                     help="force oracle verification regardless of size")
    sub.add_argument("--cap", type=int, default=DEFAULT_VERIFY_CAP,
                     help="auto-verify with the oracle up to this size (default 64)")


def _analyze_arguments(sub: argparse.ArgumentParser) -> None:
    _add_set_arguments(sub)
    sub.add_argument("--close", action="store_true",
                     help="analyze the gcd closure when the set is not closed")
    _add_report_arguments(sub)


def _family_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("kind", choices=["grid", "squarefree-pairs", "triple-prime", "cube",
                                      "classical", "incomparable-tops"])
    for name in "pqrmn":
        sub.add_argument(f"--{name}", type=int)
    sub.add_argument("--index", type=int, help="cube instance number (1-3)")
    sub.add_argument("--primes", type=int, nargs="+")
    _add_report_arguments(sub)


def _mobius_arguments(sub: argparse.ArgumentParser) -> None:
    _add_set_arguments(sub)
    sub.add_argument("--column", type=int, help="element value for a single column")
    sub.add_argument("--method", choices=["recursive", "closed-form", "zeta"], default="recursive")
    sub.add_argument("--close", action="store_true")
    sub.add_argument("--json", action="store_true", help="emit JSON")


def _search_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="set size to search")
    where = sub.add_mutually_exclusive_group()
    where.add_argument("--universe", type=int, action="append",
                       help="divisor universe, with at most 4,096 divisors (repeatable)")
    where.add_argument("--max-prime", type=int,
                       help="use divisors of the product of all primes up to this bound "
                            "(at most 37: 4,096 divisors)")
    sub.add_argument("--json", action="store_true", help="emit JSON")


_COMMANDS = {
    "analyze": ("full report for a set", _analyze_arguments, _cmd_analyze),
    "family": ("generate a named family and report on it", _family_arguments, _cmd_family),
    "mobius": ("Mobius table or a single column", _mobius_arguments, _cmd_mobius),
    "dot": ("Hasse diagram as DOT", _add_set_arguments, _cmd_dot),
    "closure": ("gcd closure of a set", partial(_add_set_arguments, json=True), _cmd_closure),
    "search": ("max positive eigenvalue count at a size", _search_arguments, _cmd_search),
}


@cache  # each built on first use, once per process; parse_args keeps no state
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser main runs a command with; with none, the full one, for help and errors."""
    if command:
        parser = _Parser(prog=f"lcmlattice {command}")
    else:
        parser = _Parser(prog="lcmlattice", description="Exact divisibility-order analysis "
                         "of integer sets and their GCD/LCM matrices.")
        subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, handler) in _COMMANDS.items():
        if command in (None, name):
            sub = parser if command else subs.add_parser(name, help=help_line)
            add_arguments(sub)
            sub.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns, rest = (_build_parser(argv[0]).parse_known_args(argv[1:])
                if argv and argv[0] in _COMMANDS else (None, None))
    if ns is None or rest:  # the full parser words the help or the error
        ns = _build_parser().parse_args(argv)
    try:
        code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # cannot raise again (the recipe in the signal module's docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
