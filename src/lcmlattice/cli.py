"""Command line front end.

Each subcommand is one entry of _COMMANDS, its arguments kept as data.  main
reads a plain command line from that table with no parser built, and builds
the argparse parser from it only for help, a usage error or any other line.

Exit codes: 0 success; 1 usage, parse, or parameter errors, or a stdout
closed before the output was written (no traceback); 2 when the input set is
not gcd closed and --close was not given; 3 when two independent routes to
the same result disagreed (a fault in the program, not the input).  A report
keeps each weight w_k = x_k * Psi_k an int and prints Psi_k with no Fraction.
Up to --cap elements, or with --verify, pivot k of one exact elimination of
the LCM matrix must be x_k * w_k; else the Mobius sum checks w_k.

JSON output has json.dumps(indent=2)'s layout, from one writer; elements and
rationals are strings ("30", "-4/15") for any precision, counts are numbers.
"""

from __future__ import annotations

import math
import os
import sys
from _json import encode_basestring_ascii as _quote  # the C function json.encoder uses
from collections.abc import Sequence
from functools import cache
from types import SimpleNamespace

from .doublechain import NotDoubleChainGeneratorError, decompose_chains, is_a_set, \
    is_meet_tree, is_r_fold_gcd_closed
from .families import _MAX_UNIVERSE_DIVISORS, BadParamsError, classical_set, cube_instances, \
    grid_family, incomparable_tops_instance, is_cube_isomorphic, search_max_iplus, \
    squarefree_pairs_family, triple_prime_family, is_prime
from .lattice import DivisorPoset, _shown, _verify, build_poset, gcd_closure, to_dot
from .matrices import InertiaTriple, NotGcdClosedError, VerificationError, \
    _checked_by_mobius, _weights, lcm_congruence_oracle
from .moebius import mobius_closed_form, mobius_recursive, mobius_via_zeta_inverse

DEFAULT_VERIFY_CAP = 64


def _frac(f, den: int = 1) -> str:
    # f / den (f an int or Fraction, den > 0) in lowest terms; _shown prints any int.
    g = math.gcd(f.numerator, den)  # f.denominator is coprime to f.numerator
    return f"{_shown(f.numerator // g)}/{_shown(f.denominator * den // g)}"


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


def _read_elements(ns: SimpleNamespace) -> list[int]:
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
            body = t.strip()  # a signed digit string: int() refused it for its length
            if (body[1:] if body[:1] in ("+", "-") else body).isdecimal():
                raise ValueError(f"integer too long: {len(t)} characters, past this Python's "
                                 f"limit of {sys.get_int_max_str_digits()} digits") from None
            shown = repr(t) if len(t) <= 20 else f"{t[:20]!r}... ({len(t)} characters)"
            raise ValueError(f"not an integer: {shown}") from None
    return values


def _build_report(p: DivisorPoset, original: Sequence[int],
                  closure_applied: bool, verify: bool, cap: int) -> dict:
    oracle = verify or p.n <= cap
    els = p.elements
    ws = _weights(p) if oracle else _checked_by_mobius(p, _weights(p))
    strs = list(map(_shown, els))  # a family element may be past the digit limit
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
        "input": list(map(_shown, sorted(set(original)))),
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
        if rec["eta"]:
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
                 ns: SimpleNamespace) -> int:
    rep = _build_report(p, original, closure_applied, verify=ns.verify, cap=ns.cap)
    if ns.json:
        print(_dumps(rep))
    else:
        print(_render_text(rep))
    return 0


def _read_closed_poset(ns: SimpleNamespace, use: str
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


def _cmd_analyze(ns: SimpleNamespace) -> int:
    return _emit_report(*_read_closed_poset(ns, "analyze"), ns)


def _cmd_family(ns: SimpleNamespace) -> int:
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


def _cmd_mobius(ns: SimpleNamespace) -> int:
    p, _, _ = _read_closed_poset(ns, "use")
    els = p.elements
    i = None if ns.column is None else p.index(ns.column)
    # Each route is looked up at call time, so that a rebinding of these
    # names (bench/tracing.py wraps them) is seen.
    if ns.method == "closed-form":  # only the columns asked for, transposed once
        table = list(zip(*[mobius_closed_form(p, k).values()
                           for k in (range(p.n) if i is None else (i,))]))
    else:
        table = (mobius_via_zeta_inverse if ns.method == "zeta" else mobius_recursive)(p).values
    if i is not None:
        col = [row[0 if ns.method == "closed-form" else i] for row in table]
        if ns.json:
            print(_dumps({"element": str(ns.column), "method": ns.method,
                          "column": dict(zip(map(str, els), col))}))
        else:
            for x, v in zip(els, col):
                print(f"mu({x}, {ns.column}) = {v}")
        return 0

    if ns.json:
        print(_dumps({"elements": [str(x) for x in els],
                      "method": ns.method, "table": list(map(list, table))}))
    else:
        w = 1 + max(len(str(v)) for row in (els, *table) for v in row)
        for x, row in [("", els), *zip(els, table)]:  # the header, then mu(x_j, .) by row j
            print(f"{x:>{w}}" + "".join(f"{v:>{w}}" for v in row))
    return 0


def _cmd_dot(ns: SimpleNamespace) -> int:
    xs = _read_elements(ns)
    sys.stdout.write(to_dot(build_poset(xs)))
    return 0


def _cmd_closure(ns: SimpleNamespace) -> int:
    xs = _read_elements(ns)
    closed = gcd_closure(xs)
    if ns.json:
        print(_dumps({"input": [str(x) for x in sorted(set(xs))],
                      "closure": [str(x) for x in closed]}))
    else:
        print(" ".join(str(x) for x in closed))
    return 0


def _cmd_search(ns: SimpleNamespace) -> int:
    universes = ns.universe  # None: search_max_iplus takes its default universes
    if ns.max_prime is not None:
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


_JSON = ("--json", dict(action="store_true", help="emit JSON"))
_SET = (("elements", dict(nargs="*", help="set elements (or a single '-' to read stdin)")),
        ("--file", dict(help="read elements from a file ('-' for stdin)")))
_REPORT = (_JSON,
           ("--verify", dict(action="store_true",
                             help="force oracle verification regardless of size")),
           ("--cap", dict(type=int, default=DEFAULT_VERIFY_CAP,
                          help="auto-verify with the oracle up to this size (default 64)")))

#: Each command's help line, its arguments as add_argument's (name, keywords)
#: pairs (a tuple of pairs is a mutually exclusive group; nargs is "*" or "+"
#: only, for a list), and its handler.
_COMMANDS = {
    "analyze": ("full report for a set", (*_SET, ("--close", dict(
        action="store_true", help="analyze the gcd closure when the set is not closed")),
        *_REPORT), _cmd_analyze),
    "family": ("generate a named family and report on it", (
        ("kind", dict(choices=["grid", "squarefree-pairs", "triple-prime", "cube",
                               "classical", "incomparable-tops"])),
        *((f"--{name}", dict(type=int)) for name in "pqrmn"),
        ("--index", dict(type=int, help="cube instance number (1-3)")),
        ("--primes", dict(type=int, nargs="+")), *_REPORT), _cmd_family),
    "mobius": ("Mobius table or a single column", (
        *_SET, ("--column", dict(type=int, help="element value for a single column")),
        ("--method", dict(choices=["recursive", "closed-form", "zeta"], default="recursive")),
        ("--close", dict(action="store_true")), _JSON), _cmd_mobius),
    "dot": ("Hasse diagram as DOT", _SET, _cmd_dot),
    "closure": ("gcd closure of a set", (*_SET, _JSON), _cmd_closure),
    "search": ("max positive eigenvalue count at a size", (
        ("--n", dict(type=int, required=True, help="set size to search")),
        (("--universe", dict(type=int, action="append",
                             help="divisor universe, with at most 4,096 divisors (repeatable)")),
         ("--max-prime", dict(type=int,
                              help="use divisors of the product of all primes up to this bound "
                                   "(at most 37: 4,096 divisors)"))),
        _JSON), _cmd_search),
}


def _fast_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The full parser's namespace for a plain command line, with no parser
    built: a known command, options by their full names, each value its own
    token, the positionals in one run.  None for anything else (help, an
    abbreviation, --x=y, any other token that starts with '-', a bad, missing
    or conflicting value)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, arguments, handler = _COMMANDS[argv[0]]
    ns, spec, positional = {"command": argv[0], "func": handler}, {}, ("", {})
    for entry in arguments:
        for name, kw in entry if isinstance(entry[0], tuple) else (entry,):
            dest = name.lstrip("-").replace("-", "_")
            ns[dest] = kw.get("default", False if kw.get("action") == "store_true" else None)
            spec[name] = dest, kw
            if not name.startswith("-"):
                positional = dest, kw

    def value(kw: dict, token: str):
        v = kw.get("type", str)(token)
        if v not in kw.get("choices", [v]):
            raise ValueError(token)
        return v

    segments = [[]]  # the plain tokens after the command, then each option with those after it
    for token in argv[1:]:
        if token.startswith("-"):
            segments.append([])
        segments[-1].append(token)
    run, given = segments[0], set()  # run: the positionals
    try:
        for name, *plain in segments[1:]:
            if name not in spec:
                return None
            given.add(name)
            dest, kw = spec[name]
            if kw.get("action") == "store_true":
                ns[dest] = True
            elif not plain:
                return None
            else:  # one value, or with nargs every plain token that follows
                values = [value(kw, t) for t in (plain if "nargs" in kw else plain[:1])]
                plain = plain[len(values):]
                ns[dest] = (values if "nargs" in kw else (ns[dest] or []) + values
                            if kw.get("action") == "append" else values[0])
            if plain and run:  # positionals in two runs
                return None
            run = run or plain
        dest, kw = positional
        if len(run) != bool(dest) and "nargs" not in kw:
            return None  # not one token for a single positional, or any for none
        if dest:
            values = [value(kw, t) for t in run]
            ns[dest] = values if "nargs" in kw else values[0]
    except ValueError:  # a value of the wrong type or not among the choices
        return None
    if any(kw.get("required") and name not in given for name, (_, kw) in spec.items()) \
            or any(isinstance(e[0], tuple) and len(given & dict(e).keys()) > 1 for e in arguments):
        return None  # a required option missing, or two of a group given
    return SimpleNamespace(**ns)


@cache  # built on first use, once per process; parse_args keeps no state
def _build_parser():
    """The full parser from _COMMANDS: it alone prints help and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # usage problems exit 1, not argparse's 2
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="lcmlattice", description="Exact divisibility-order analysis "
                     "of integer sets and their GCD/LCM matrices.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, arguments, handler) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        for entry in arguments:
            group = sub.add_mutually_exclusive_group() if isinstance(entry[0], tuple) else None
            for arg, kw in entry if group else (entry,):
                (group or sub).add_argument(arg, **kw)
        sub.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _fast_parse(argv) or _build_parser().parse_args(argv, SimpleNamespace())
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
