"""The bilimit cone search against the reference search of
``bilimit_reference``: the same cones, in the same order, for the same
ticks, on chains, grids, the diamond, the free 2-cell, the walking arrow,
posets where some shape has no bilimit, bases with more than one bilimit
cone of a diagram, and generated posets.  On the same bases, each cone
category Cones_D(X) against the σ-cones from the point under a(X, D-),
and the bilimit test against preservation by every representable."""

import pytest
from hypothesis import given, settings

from bilimit_reference import reference_bilimit_cones
from helpers import chain_2cat, grid_2cat, posets
from sigmacat.colimits import (BaseConeCategories, check_base_cone,
                               point_cone_homs, preserves_bilimit)
from sigmacat.config import Meter
from sigmacat.fincat import group_z2_category
from sigmacat.fixtures import arrow_2cat, diamond_2cat, iso_2cat, poset_category
from sigmacat.flatness import generate_bilimit_cones, representable
from sigmacat.shapes import generating_diagrams
from sigmacat.transforms import compose_diagram
from sigmacat.two_cat import free_2cell_2cat, two_cat_from_cat


def poset_2cat(objs, rels):
    return two_cat_from_cat(poset_category(objs, rels))


BASES = {
    "chain1": lambda: chain_2cat(1),
    "chain2": lambda: chain_2cat(2),
    "chain4": lambda: chain_2cat(4),
    "chain8": lambda: chain_2cat(8),
    "grid2x2": lambda: grid_2cat(2, 2),
    "grid3x3": lambda: grid_2cat(3, 3),
    "diamond": diamond_2cat,
    "free2cell": free_2cell_2cat,
    "arrow": arrow_2cat,
    # s below l and r: every pair has a meet
    "span": lambda: poset_2cat(["l", "r", "s"], [("s", "l"), ("s", "r")]),
    # l and r below t: no meet of l and r
    "cospan": lambda: poset_2cat(["l", "r", "t"], [("l", "t"), ("r", "t")]),
    "discrete-pair": lambda: poset_2cat(["l", "r"], []),
    # l and r both below x and y: x and y have two maximal lower bounds
    "bowtie": lambda: poset_2cat(["l", "r", "x", "y"],
                                 [("l", "x"), ("l", "y"), ("r", "x"), ("r", "y")]),
    # two isomorphic objects, each a bilimit vertex of every diagram: the
    # first in sorted order must be found
    "iso": iso_2cat,
    # one object with 1-cells ℤ/2: two bilimit cones at one vertex
    "z2": lambda: two_cat_from_cat(group_z2_category()),
}

# Bases where some generating diagram has no bilimit cone.  In the free
# 2-cell, Cones(a) over the pair (a, b) holds the two cones (1, u) and
# (1, v) and a morphism between them, but hom(a, a) is a point; in ℤ/2,
# Cones(*) over the pair (*, *) has four objects and hom(*, *) two.  The
# span has no terminal object, so no biterminal one.
INCOMPLETE = {"cospan", "discrete-pair", "bowtie", "free2cell", "z2", "span"}


def rows(cones) -> list:
    return [(label, c.vertex, sorted(c.comp.items()), sorted(c.struct.items()),
             sorted(c.marked), sorted(c.diagram.obj_map.items()),
             sorted(c.diagram.map1.items()), sorted(c.diagram.map2.items()))
            for label, c in cones]


def searched(search, a) -> tuple:
    meter = Meter()
    return rows(search(a, meter)), meter.count


@pytest.mark.parametrize("name", sorted(BASES))
def test_bilimit_search_matches_the_reference(name):
    a = BASES[name]()
    got = searched(generate_bilimit_cones, a)
    assert got == searched(reference_bilimit_cones, a)
    missing = len(got[0]) < len(list(generating_diagrams(a)))
    assert got[0] and missing == (name in INCOMPLETE)


@pytest.mark.parametrize("name", sorted(BASES))
def test_searched_cones_are_lawful(name):
    """``check_left_exact`` does not check the cones of the search again,
    so here every one of them is checked, and each is marked ``searched``."""
    for _, cone in generate_bilimit_cones(BASES[name]()):
        assert cone.searched and check_base_cone(cone).ok


@settings(derandomize=True, max_examples=25, deadline=None)
@given(c=posets(5))
def test_bilimit_search_matches_the_reference_on_posets(c):
    a = two_cat_from_cat(c)
    assert searched(generate_bilimit_cones, a) == searched(reference_bilimit_cones, a)


def test_bilimit_search_keeps_nothing_between_calls():
    """The benchmark asks about one base object again and again, so a
    result kept on the base would be charged once: both calls must charge
    every build."""
    a = chain_2cat(8)
    first, second = searched(generate_bilimit_cones, a), searched(generate_bilimit_cones, a)
    assert first == second
    assert first[1] == 1716


# A cone over D with vertex L is a σ-cone from the point under the
# Cat-valued diagram a(X, D-) at every X, and a σ-bilimit exactly when
# every representable a(X, -) takes it to a σ-bilimit cone in Cat.


def each_cone_category(a):
    """(D, marked, shared cone categories) per generating diagram of a."""
    for _, D, marked in generating_diagrams(a):
        yield D, marked, BaseConeCategories(D, marked)


def assert_bilimit_is_preservation_by_representables(a) -> tuple:
    """Per cone of every Cones_D(L), the bilimit test against
    preservation by every representable; returns (cones, bilimits)."""
    reps = [representable(a, X) for X in sorted(a.objects)]
    cones = bilimits = 0
    for _, _, over in each_cone_category(a):
        for L in sorted(a.objects):
            for cone in over.cones(L):
                want = all(preserves_bilimit(R, cone) for R in reps)
                assert over.is_bilimit(cone) == want
                cones, bilimits = cones + 1, bilimits + want
    return cones, bilimits


@pytest.mark.parametrize("name", sorted(BASES))
def test_a_bilimit_is_a_cone_every_representable_preserves(name):
    cones, bilimits = assert_bilimit_is_preservation_by_representables(BASES[name]())
    assert cones and bilimits


@settings(derandomize=True, max_examples=15, deadline=None)
@given(c=posets(4))
def test_a_bilimit_is_a_cone_every_representable_preserves_on_posets(c):
    assert_bilimit_is_preservation_by_representables(two_cat_from_cat(c))


def assert_cone_categories_are_point_cones(a) -> int:
    """Per generating diagram and vertex X: Cones_D(X), built on a fresh
    meter, against the σ-cones from the point under a(X, D-) with every
    hom-set read, on another; the same cones in the same order, the same
    hom-sets and the same ticks.  Returns the number of pairs (D, X)."""
    seen = 0
    for D, marked, _ in each_cone_category(a):
        for X in sorted(a.objects):
            built = Meter()
            cones, _, homs = BaseConeCategories(D, marked, built).at(X)
            read = Meter()
            point, hom = point_cone_homs(compose_diagram(representable(a, X), D),
                                         marked, read)
            n = range(len(point))
            assert {(p, q): hom(p, q) for p in n for q in n} == homs
            assert (cones, built.count) == (point, read.count)
            seen += 1
    return seen


@pytest.mark.parametrize("name", sorted(BASES))
def test_cone_categories_are_the_point_cones_under_the_hom_diagram(name):
    assert assert_cone_categories_are_point_cones(BASES[name]())
