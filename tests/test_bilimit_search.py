"""The bilimit cone search against the reference search of
``bilimit_reference``: the same cones, in the same order, for the same
ticks, on chains, grids, the diamond, the free 2-cell, the walking arrow,
posets where some shape has no bilimit, bases with more than one bilimit
cone of a diagram, and generated posets."""

import pytest
from hypothesis import given, settings

from bilimit_reference import reference_bilimit_cones
from helpers import chain_2cat, grid_2cat, posets
from sigmacat.colimits import check_base_cone
from sigmacat.config import Meter
from sigmacat.fincat import group_z2_category
from sigmacat.fixtures import arrow_2cat, diamond_2cat, iso_2cat, poset_category
from sigmacat.flatness import generate_bilimit_cones
from sigmacat.shapes import generating_diagrams
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
# Cones(*) over the pair (*, *) has four objects and hom(*, *) two.
INCOMPLETE = {"cospan", "discrete-pair", "bowtie", "free2cell", "z2"}


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
    assert first[1] == 1692
