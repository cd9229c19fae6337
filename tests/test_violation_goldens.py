"""The full violation lists of three corrupted documents, in order.

``validate_category`` and ``validate_2category`` report every violation
they find, in a fixed order.  The corruptions are a missing composition
entry, a broken associativity and a broken interchange law, each given
to the validator that reads it; ``golden/violations.json`` holds the
lists each report must equal, code, cells and detail, entry for entry.
"""

import json
import pathlib

import pytest

from sigmacat.fincat import FinCat, mk_fincat, product_category, validate_category
from sigmacat.fixtures import poset_category
from sigmacat.two_cat import (mk_fin2cat, two_cat_from_cat, two_cat_product,
                              validate_2category)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "violations.json"


def chain4() -> FinCat:
    objs = ["c0", "c1", "c2", "c3"]
    return poset_category(objs, [(objs[i], objs[i + 1]) for i in range(3)])


def r(i: int) -> str:
    """The element i of a cyclic group: ``e`` for 0, else ``a<i>``, so the
    identity sorts last."""
    return f"a{i}" if i else "e"


def cyclic_tables(n: int, broken: dict) -> dict:
    """r(i) ∘ r(j) = r(i + j mod n), but where ``broken`` says otherwise."""
    table = {(r(i), r(j)): r((i + j) % n) for i in range(n) for j in range(n)}
    table.update(broken)
    return table


def cyclic_category(n: int, broken: dict) -> FinCat:
    """The cyclic group of order n on one object, its table corrupted
    by ``broken``: every entry stays typed, so only the laws can fail."""
    return mk_fincat(("*",), {r(i): ("*", "*") for i in range(n)},
                     {"*": "e"}, cyclic_tables(n, broken))


def compose_missing():
    """Four composable pairs of the chain c0 < c1 < c2 < c3 dropped: from
    the category's table, and from the horizontal table of the chain as
    a locally discrete 2-category."""
    c = chain4()
    gone = {("c1<c2", "c0<c1"), ("c2<c3", "c0<c2"), ("c2<c3", "c1<c2"),
            ("c3<c3", "c1<c3")}
    a = two_cat_from_cat(c)
    return (mk_fincat(c.objects, c.arrows, c.identity,
                      {k: v for k, v in c.compose.items() if k not in gone}),
            mk_fin2cat(a.objects, a.hom, a.id1,
                       {k: v for k, v in a.hcomp1.items() if k not in gone},
                       a.hcomp2))


def arrow() -> FinCat:
    return poset_category(["c0", "c1"], [("c0", "c1")])


def arrow_2cat():
    """The walking arrow c0 < c1 as a locally discrete 2-category."""
    return two_cat_from_cat(arrow())


def broken_associativity():
    """Z/4 with a1 ∘ a1 = a3 times the walking arrow, as a category and as
    a locally discrete 2-category."""
    c = product_category(cyclic_category(4, {("a1", "a1"): "a3"}), arrow())
    return c, two_cat_from_cat(c)


def broken_interchange():
    """One object, one 1-cell i, the 2-cells Z/3 composed by the group law
    vertically and horizontally, but for a1 * a1 = e horizontally; times
    the walking arrow."""
    hom = cyclic_category(3, {})
    hom = mk_fincat(("i",), {a: ("i", "i") for a in hom.arrows}, {"i": "e"},
                    hom.compose)
    return two_cat_product(
        mk_fin2cat(("*",), {("*", "*"): hom}, {"*": "i"}, {("i", "i"): "i"},
                   cyclic_tables(3, {("a1", "a1"): "e"})),
        arrow_2cat())


def reports() -> dict:
    fincat_missing, fin2cat_missing = compose_missing()
    fincat_assoc, fin2cat_assoc = broken_associativity()
    found = {"compose_missing/category": validate_category(fincat_missing),
             "compose_missing/2-category": validate_2category(fin2cat_missing),
             "associativity/category": validate_category(fincat_assoc),
             "associativity/2-category": validate_2category(fin2cat_assoc),
             "interchange/2-category": validate_2category(broken_interchange())}
    return {name: [[v.code, list(v.cells), v.detail] for v in rep.violations]
            for name, rep in found.items()}


EXPECTED = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_the_full_violation_list_is_the_golden(name):
    assert reports()[name] == EXPECTED[name]


def test_each_corruption_shows_its_own_law():
    codes = {name: {v[0] for v in got} for name, got in reports().items()}
    assert codes["compose_missing/category"] == {"compose-missing"}
    assert codes["compose_missing/2-category"] == {"hcomp1-missing"}
    assert "associativity" in codes["associativity/category"]
    assert {"assoc1", "assoc2"} <= codes["associativity/2-category"]
    assert "interchange" in codes["interchange/2-category"]
