"""The five result records: constructors, fields, repr, equality, immutability.

InertiaTriple, SearchResult and ChainDecomposition are namedtuple subclasses;
PsiVector and MoebiusTable are slotted classes, since indexing, len and
iteration belong to them.  Each is built by position or by keyword, reads its
fields by name, and raises AttributeError on any assignment.
"""

from __future__ import annotations

import pickle
from fractions import Fraction as F

import pytest

from lcmlattice import (
    ChainDecomposition,
    ExactMatrix,
    InertiaTriple,
    MoebiusTable,
    PsiVector,
    SearchResult,
    SubPoset,
    build_poset,
    core_set,
    cube_instances,
    decompose_chains,
    inertia_from_psi,
    mobius_recursive,
    psi,
    search_max_iplus,
)

P = build_poset([1, 2])
P4 = build_poset([1, 2, 3, 6])

# (record class, fields in order, repr, a library call that makes the same
# value, hashable)
RECORDS = [
    (InertiaTriple, {"plus": 4, "minus": 4, "zero": 0},
     "InertiaTriple(plus=4, minus=4, zero=0)",
     lambda: inertia_from_psi(cube_instances()[0]), True),
    (SearchResult, {"n": 4, "universes": (30,), "max_iplus": 2, "witness": P4},
     "SearchResult(n=4, universes=(30,), max_iplus=2, witness=DivisorPoset([1, 2, 3, 6]))",
     lambda: search_max_iplus(4, [30]), True),
    (ChainDecomposition,
     {"poset": P4, "owner": 3, "core": SubPoset(P4, [0]), "chain_a": (0,), "chain_b": (),
      "attach": {0: (1, 2)}, "eta": {0: 2}, "top_a": 0, "top_b": 0, "doubly_attached": None},
     "ChainDecomposition(poset=DivisorPoset([1, 2, 3, 6]), owner=3, core=SubPoset(values=[1]), "
     "chain_a=(0,), chain_b=(), attach={0: (1, 2)}, eta={0: 2}, top_a=0, top_b=0, "
     "doubly_attached=None)",
     lambda: decompose_chains(P4, 3), False),
    (PsiVector, {"poset": P, "values": (F(1), F(-1, 2))},
     "PsiVector(poset=DivisorPoset([1, 2]), values=(Fraction(1, 1), Fraction(-1, 2)))",
     lambda: psi(P), True),
    (MoebiusTable, {"poset": P, "values": ((1, -1), (0, 1))},
     "MoebiusTable(poset=DivisorPoset([1, 2]), values=((1, -1), (0, 1)))",
     lambda: mobius_recursive(P), True),
]


@pytest.mark.parametrize("cls, fields, text, made, hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_api(cls, fields, text, made, hashable):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword
    assert repr(by_keyword) == text
    assert made() == by_keyword
    if hashable:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
    else:  # the dict fields attach and eta
        with pytest.raises(TypeError):
            hash(by_keyword)
    for name in [*fields, "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, None)
    assert by_keyword == by_position
    assert repr(pickle.loads(pickle.dumps(by_keyword))) == text


def test_poset_value_records_compare_by_class_and_fields():
    assert PsiVector(P, (1, 0)) != MoebiusTable(P, (1, 0))
    assert PsiVector(P, (1, 0)) != (P, (1, 0))
    assert PsiVector(P, (F(1), F(-1, 2))) != PsiVector(P, (F(1), F(1, 2)))
    assert PsiVector(P4, (1, 0)) != PsiVector(P, (1, 0))
    vec, table = psi(P), mobius_recursive(P)
    assert (vec[1], len(vec), list(vec)) == (F(-1, 2), 2, [F(1), F(-1, 2)])
    assert (table[0, 1], table.column(1)) == (-1, {0: -1, 1: 1})


def test_cores_are_values():
    a, b = core_set(P4, 3), core_set(P4, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != SubPoset(P4, [0, 1]) and a != SubPoset(build_poset([1, 2, 3, 6, 12]), [0])
    dec = decompose_chains(P4, 3)
    assert pickle.loads(pickle.dumps(dec)) == dec
    for name in ("parent", "members", "_mask", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, (1,))
    assert a.members == (0,) and a._mask == 1


def test_values_of_any_size_are_written_in_full():
    # Each int, and each part of a Fraction, past the 4,300 digits that the
    # interpreter's repr and str allow by default; the digits are spelled out.
    big, one, nines = 10 ** 5000, "1" + "0" * 5000, "9" * 5000
    poset = f"DivisorPoset([1, {one}])"
    assert repr(psi(build_poset([1, big]))) == (
        f"PsiVector(poset={poset}, values=(Fraction(1, 1), Fraction(-{nines}, {one})))")
    assert repr(MoebiusTable(build_poset([1, big]), ((1, -big), (0, 1)))) == (
        f"MoebiusTable(poset={poset}, values=((1, -{one}), (0, 1)))")
    assert repr(ExactMatrix([[big, F(1, big)], [F(-big, 3), F(4)]])) == (
        f"ExactMatrix([['{one}', '1/{one}'], ['-{one}/3', '4']])")
