"""Finite 2-categories: validation, duals, components, markings."""

import pytest

from pi0_reference import pi0
from sigmacat.errors import ValidationError
from sigmacat.fincat import arrow_category, find_isomorphism, terminal_category
from sigmacat.fixtures import (arrow_2cat, diamond_2cat, iso_2cat,
                               parallel_2cat)
from sigmacat.two_cat import (Marked2Cat, WideSub, co_dual, free_2cell_2cat,
                              mk_fin2cat, op_dual, parallel_2cells_2cat,
                              terminal_2cat, two_cat_from_cat, two_cat_product,
                              validate_2category,
                              validate_wide_sub, wide_all, wide_from,
                              wide_identities)

FIXTURES = [
    ("terminal", terminal_2cat()),
    ("arrow", arrow_2cat()),
    ("iso", iso_2cat()),
    ("parallel", parallel_2cat()),
    ("free2cell", free_2cell_2cat()),
    ("two2cells", parallel_2cells_2cat(("th", "et"))),
    ("diamond", diamond_2cat()),
]


@pytest.mark.parametrize("name,a", FIXTURES)
def test_fixtures_validate(name, a):
    assert validate_2category(a).ok


def test_mistabulated_hcomp_cites_the_instance():
    a = free_2cell_2cat()
    bad = dict(a.hcomp2)
    bad[("th", "i2_id_a")] = "i2_u"  # whiskering th by the identity must be th
    broken = mk_fin2cat(a.objects, a.hom, a.id1, a.hcomp1, bad)
    rep = validate_2category(broken)
    assert not rep.ok
    assert any(v.code in ("unit2", "interchange", "hcomp2-typing", "assoc2")
               for v in rep.violations)


def test_interchange_violation_detected():
    # vertical composition lives in the homs, so retabulating one
    # horizontal composite of nonidentity cells breaks interchange or
    # functoriality of horizontal composition
    a = parallel_2cells_2cat(("th", "et"))
    bad = dict(a.hcomp2)
    bad[("th", "i2_id_a")] = "et"
    broken = mk_fin2cat(a.objects, a.hom, a.id1, a.hcomp1, bad)
    assert not validate_2category(broken).ok


@pytest.mark.parametrize("name,a", FIXTURES)
def test_op_and_co_are_involutions_and_commute(name, a):
    assert op_dual(op_dual(a)) == a
    assert co_dual(co_dual(a)) == a
    assert op_dual(co_dual(a)) == co_dual(op_dual(a))
    assert validate_2category(op_dual(a)).ok
    assert validate_2category(co_dual(a)).ok


def test_co_dual_reverses_the_free_2cell():
    a = free_2cell_2cat()
    c = co_dual(a)
    h = c.hom[("a", "b")]
    assert h.arrows["th"] == ("v", "u")  # reversed


def test_pi0_on_locally_discrete_recovers_the_category():
    a = arrow_2cat()
    p = pi0(a)
    assert find_isomorphism(p, arrow_category()) is not None


def test_pi0_merges_connected_one_cells():
    p = pi0(free_2cell_2cat())
    assert len(p.hom("a", "b")) == 1  # u and v merged by the 2-cell


def test_pi0_of_terminal():
    p = pi0(terminal_2cat())
    assert find_isomorphism(p, terminal_category()) is not None


@pytest.mark.parametrize("name,a", FIXTURES)
def test_pi0_preserves_identities_and_composition(name, a):
    # pi0 raises on ill-defined composition; validation double-checks
    from sigmacat.fincat import validate_category
    assert validate_category(pi0(a)).ok


def test_wide_sub_validation():
    a = free_2cell_2cat()
    assert validate_wide_sub(wide_all(a)).ok
    assert validate_wide_sub(wide_identities(a)).ok
    missing_identity = WideSub(a, frozenset({"u"}))
    assert not validate_wide_sub(missing_identity).ok
    d = diamond_2cat()
    # bot<a and a<top without the composite bot<top is not closed
    not_closed = WideSub(d, frozenset(set(d.id1.values()) | {"bot<a", "a<top"}))
    assert not validate_wide_sub(not_closed).ok
    with pytest.raises(ValidationError):
        wide_from(d, ["bot<a", "a<top"])  # composite bot<top not included

    closed = wide_from(d, ["bot<a", "a<top", "bot<top"])
    assert validate_wide_sub(closed).ok


def test_marked_2cat_requires_matching_parent():
    a, b = arrow_2cat(), iso_2cat()
    with pytest.raises(ValidationError):
        Marked2Cat(a, WideSub(b, frozenset(b.id1.values())))


def test_two_cat_product_validates():
    p = two_cat_product(arrow_2cat(), terminal_2cat())
    assert validate_2category(p).ok
    q = two_cat_product(op_dual(arrow_2cat()), arrow_2cat())
    assert validate_2category(q).ok
    assert len(q.objects) == 4
