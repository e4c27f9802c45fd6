"""Spans around the public functions of lcmlattice, recorded from outside.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the wrapper
under every name that binds the original in every loaded ``lcmlattice``
module: ``cli`` does ``from .matrices import psi``, while
``determinant_via_psi`` finds ``psi`` in the ``matrices`` globals, so
patching one namespace would miss calls.  ``DivisorPoset`` construction and
its ``gcd_closed`` property are patched on the class.  ``uninstall`` puts every
original back.

Per-element hot paths (``DivisorPoset.leq``, ``covered``, ``index``,
``lattice.meet``) are not wrapped: they run millions of times on the larger
sets, so a span each would swamp what it measures.  The generator function
``enumerate_gcd_closed`` is not wrapped either, since a span would close when
the generator is created; the enumerator behind the search is counted instead.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the operation id.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "lattice": ("build_poset", "gcd_closure", "meet_closure", "has_antichain_3",
                "width", "is_gcd_closed", "to_dot"),
    "doublechain": ("core_set", "generates_double_chain", "decompose_chains",
                    "is_a_set", "is_meet_tree", "is_r_fold_gcd_closed"),
    "moebius": ("mobius_recursive", "mobius_via_zeta_inverse", "mobius_closed_form"),
    "matrices": ("psi", "factorization", "determinant_exact", "determinant_via_psi",
                 "is_invertible", "inertia_from_psi", "structural_inertia",
                 "inertia_charpoly_oracle", "classify_psi_sign", "gcd_matrix",
                 "lcm_matrix", "reciprocal_gcd_matrix", "power_lcm_matrix"),
    "families": ("divisors", "grid_family", "squarefree_pairs_family",
                 "triple_prime_family", "cube_instances", "classical_set",
                 "incomparable_tops_instance", "search_max_iplus",
                 "is_cube_isomorphic"),
    "cli": ("main",),
}

#: The per-layer metrics, in the order BENCHMARK.json lists them.  Each
#: ``(layer, function)`` pair names spans; ``incl`` sums their durations,
#: ``self`` their self time, ``calls`` counts them.
METRICS = {
    "matrices.oracle_inertia_s": ("incl", [("matrices", "inertia_charpoly_oracle")]),
    "matrices.oracle_det_s": ("incl", [("matrices", "determinant_exact")]),
    "matrices.lcm_matrix_s": ("incl", [("matrices", "lcm_matrix")]),
    "matrices.oracle_n": ("oracle_n", None),
    "matrices.psi_s": ("self", [("matrices", "psi")]),
    "matrices.psi_calls": ("calls", [("matrices", "psi")]),
    "matrices.self_s": ("layer_self", "matrices"),
    "moebius.recursive_s": ("incl", [("moebius", "mobius_recursive")]),
    "moebius.recursive_calls": ("calls", [("moebius", "mobius_recursive")]),
    "moebius.zeta_s": ("incl", [("moebius", "mobius_via_zeta_inverse")]),
    "moebius.closed_form_s": ("incl", [("moebius", "mobius_closed_form")]),
    "moebius.self_s": ("layer_self", "moebius"),
    "lattice.build_s": ("incl", [("lattice", "DivisorPoset")]),
    "lattice.build_calls": ("calls", [("lattice", "DivisorPoset")]),
    "lattice.closure_s": ("incl", [("lattice", "gcd_closure"), ("lattice", "meet_closure")]),
    "lattice.antichain_s": ("incl", [("lattice", "has_antichain_3")]),
    "lattice.self_s": ("layer_self", "lattice"),
    "doublechain.generates_calls": ("calls", [("doublechain", "generates_double_chain")]),
    "doublechain.decompose_calls": ("calls", [("doublechain", "decompose_chains")]),
    "doublechain.classify_s": ("incl", [("doublechain", "is_a_set"),
                                        ("doublechain", "is_meet_tree"),
                                        ("doublechain", "is_r_fold_gcd_closed")]),
    "doublechain.r_fold_calls": ("calls", [("doublechain", "is_r_fold_gcd_closed")]),
    "doublechain.self_s": ("layer_self", "doublechain"),
    "families.subsets_scanned": ("subsets", None),
    "families.self_s": ("layer_self", "families"),
    "cli.self_s": ("self", [("cli", "main")]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.oracle_n = 0
        self.subsets = 0
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
        return traced

    def install(self) -> None:
        from lcmlattice import families, lattice, matrices

        modules = [m for k, m in sys.modules.items()
                   if k == "lcmlattice" or k.startswith("lcmlattice.")]
        replace = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"lcmlattice.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = self._wrap(f"{layer}.{name}", fn)

        oracle = matrices.inertia_charpoly_oracle
        traced_oracle = replace[id(oracle)]

        def oracle_counted(m):
            self.oracle_n += m.rows
            return traced_oracle(m)
        replace[id(oracle)] = oracle_counted

        enumerate_subsets = families._closed_index_subsets

        def subsets_counted(*args, **kwargs):
            for subset in enumerate_subsets(*args, **kwargs):
                self.subsets += 1
                yield subset
        replace[id(enumerate_subsets)] = subsets_counted

        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, replace[id(value)])

        cls = lattice.DivisorPoset
        init, closed = cls.__dict__["__init__"], cls.__dict__["gcd_closed"]
        self._restore += [(cls, "__init__", init), (cls, "gcd_closed", closed)]
        cls.__init__ = self._wrap("lattice.DivisorPoset", init)
        prop = functools.cached_property(self._wrap("lattice.gcd_closed", closed.func))
        prop.__set_name__(cls, "gcd_closed")
        cls.gcd_closed = prop

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_totals(self) -> dict[str, float | int]:
        """The per-layer metrics of everything traced so far."""
        return layer_totals(self.spans, self.oracle_n, self.subsets)


def layer_totals(spans, oracle_n: int = 0, subsets: int = 0) -> dict[str, float | int]:
    """Every metric in METRICS from a list of finished spans and the two counts."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for k, (name, start, end, _, _) in enumerate(spans):
        incl[name] += end - start
        own[name] += end - start - child[k]
        calls[name] += 1
    out: dict[str, float | int] = {}
    for metric, (how, arg) in METRICS.items():
        if how == "layer_self":
            out[metric] = sum((v for k, v in own.items() if k.startswith(arg + ".")), 0.0)
        elif how == "oracle_n":
            out[metric] = oracle_n
        elif how == "subsets":
            out[metric] = subsets
        else:
            table = {"incl": incl, "self": own, "calls": calls}[how]
            out[metric] = sum(table[f"{layer}.{fn}"] for layer, fn in arg)
    return out
