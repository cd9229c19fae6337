"""The oracle on hand-worked cases.  Run with: python3 -m pytest bench -q"""

from dataclasses import dataclass

import oracle as orc


@dataclass
class Cat:
    """Just the tables the oracle reads from a sigmacat FinCat."""
    objects: tuple
    arrows: dict
    identity: dict
    compose: dict


def category_of(p: tuple) -> Cat:
    """A preorder as a thin category with arrows named by their ends."""
    arrows = {f"{x}<{y}": (x, y) for (x, y) in p[1]}
    compose = {(f"{y}<{z}", f"{x}<{y}"): f"{x}<{z}"
               for (x, y) in p[1] for (y2, z) in p[1] if y == y2}
    return Cat(p[0], arrows, {x: f"{x}<{x}" for x in p[0]}, compose)


def reversed_order(p: tuple) -> tuple:
    return p[0], frozenset((y, x) for (x, y) in p[1])


def test_functor_category_of_chains_is_counted_by_binomials():
    assert orc.functor_poset_size(orc.chain(3), orc.chain(4)) == (20, 175)
    for m in range(1, 5):
        for n in range(1, 5):
            assert len(orc.monotone_maps(orc.chain(m), orc.chain(n))) == \
                orc.monotone_chain_maps(m, n)


def test_gluing_an_edge_counts_maps_of_the_shorter_chain():
    p = orc.chain(3)
    assert orc.functor_poset_size(p, orc.chain(4), glued=[("c0", "c1")]) == \
        orc.functor_poset_size(orc.chain(2), orc.chain(4))


def test_lax_colimit_of_a_constant_diagram_is_the_product():
    for n in (1, 2, 3, 4):
        base = orc.chain(n)
        for C in (orc.ONE, orc.ARROW, orc.PAIR):
            got = orc.grothendieck(base, {A: C for A in base[0]},
                                   orc.constant_action(base), set())
            assert orc.preorders_isomorphic(got, orc.product(C, base))


def test_pseudo_colimit_over_a_poset_with_top_has_the_value_as_skeleton():
    diamond = orc.closure(["bot", "a", "b", "top"],
                          [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    for base in (orc.chain(3), diamond):
        for C in (orc.ONE, orc.ARROW, orc.PAIR):
            got = orc.grothendieck(base, {A: C for A in base[0]},
                                   orc.constant_action(base), set(base[1]))
            assert orc.skeleton_isomorphic(category_of(got), C)
        for A in base[0]:
            values, action = orc.representable_data(base, A)
            got = orc.grothendieck(base, values, action, set(base[1]))
            assert orc.skeleton_isomorphic(category_of(got), orc.ONE)


def test_lax_colimit_of_a_representable_is_the_reversed_upset():
    base = orc.chain(4)
    values, action = orc.representable_data(base, "c1")
    got = orc.grothendieck(base, values, action, set())
    assert orc.preorders_isomorphic(got, reversed_order(orc.upset(base, "c1")))
    assert len(got[0]) == 3


def test_marking_one_edge_identifies_its_ends():
    base = orc.chain(3)
    got = orc.grothendieck(base, {A: orc.ONE for A in base[0]},
                           orc.constant_action(base), {("c0", "c1")})
    assert orc.skeleton_isomorphic(category_of(got), orc.chain(2))
    assert not orc.preorders_isomorphic(got, orc.chain(3))


def test_iso_classes_and_skeletons():
    codisc = category_of(orc.codiscrete(["p", "q", "r"]))
    assert orc.iso_classes(codisc) == [frozenset({"p", "q", "r"})]
    assert orc.skeleton_isomorphic(codisc, orc.ONE)
    grid = category_of(orc.grid(2, 2))
    assert len(orc.iso_classes(grid)) == 4
    assert orc.skeleton_isomorphic(grid, orc.grid(2, 2))


def test_thin_preorder_rejects_parallel_arrows():
    parallel = Cat(("a", "b"), {"ia": ("a", "a"), "ib": ("b", "b"),
                                "u": ("a", "b"), "v": ("a", "b")},
                   {"a": "ia", "b": "ib"}, {})
    assert orc.thin_preorder(parallel) is None
    assert not orc.skeleton_isomorphic(parallel, orc.ARROW)


def test_order_isomorphism():
    diamond = orc.closure(["bot", "a", "b", "top"],
                          [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    assert orc.preorders_isomorphic(diamond, orc.grid(2, 2))
    assert orc.preorders_isomorphic(orc.chain(3), reversed_order(orc.chain(3)))
    vee = orc.closure(["x", "y", "z"], [("x", "y"), ("x", "z")])
    assert not orc.preorders_isomorphic(vee, reversed_order(vee))
    assert not orc.preorders_isomorphic(vee, orc.chain(3))


def test_directedness():
    span = orc.closure(["c", "a", "b"], [("c", "a"), ("c", "b")])
    assert orc.directed_down(span) and not orc.directed_up(span)
    assert orc.directed_up(orc.grid(3, 3)) and orc.directed_down(orc.grid(3, 3))
    assert not orc.directed_up(orc.PAIR)
    assert not orc.directed_up(orc.closure([], []))
