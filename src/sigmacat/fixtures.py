"""Named fixtures shared by the test suite, the demos, and the CLI corpus.

Everything here is tiny on purpose: bases have at most four objects and
the categories at most a handful of arrows, so every enumeration in the
package stays well under the default budget.
"""

from __future__ import annotations

from .fincat import (FinCat, Functor, NatTransf, arrow_category,
                     discrete_category, group_z2_category, identity_functor,
                     idn, iso_pair_category, mk_fincat, parallel_pair_category,
                     terminal_category)
from .two_cat import (Fin2Cat, Marked2Cat, free_2cell_2cat, op_dual,
                      parallel_2cells_2cat, terminal_2cat, two_cat_from_cat,
                      wide_all, wide_from, wide_identities)
from .transforms import CatDiagram, constant_diagram


def arrow_2cat() -> Fin2Cat:
    return two_cat_from_cat(arrow_category())


def iso_2cat() -> Fin2Cat:
    return two_cat_from_cat(iso_pair_category())


def parallel_2cat() -> Fin2Cat:
    return parallel_2cells_2cat()


def poset_category(objs, le) -> FinCat:
    """A poset as a category; le lists the strict relations."""
    objs = tuple(objs)
    rel = {(x, x) for x in objs} | set(le)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(rel):
            for (y2, z) in list(rel):
                if y2 == y and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    arrows = {f"{x}<{y}": (x, y) for (x, y) in rel}
    identity = {x: f"{x}<{x}" for x in objs}
    compose = {}
    for n1, (x, y) in arrows.items():
        for n2, (y2, z) in arrows.items():
            if y2 == y:
                compose[(n2, n1)] = f"{x}<{z}"
    return mk_fincat(objs, arrows, identity, compose)


def diamond_poset() -> FinCat:
    return poset_category(["bot", "a", "b", "top"],
                          [("bot", "a"), ("bot", "b"),
                           ("a", "top"), ("b", "top")])


def diamond_2cat() -> Fin2Cat:
    return two_cat_from_cat(diamond_poset())


def cospan_missing_poset() -> FinCat:
    """A span a <- c -> b: the pair (a, b) has no cospan."""
    return poset_category(["a", "b", "c"], [("c", "a"), ("c", "b")])


def chain3_2cat() -> Fin2Cat:
    """The poset a < b < c as a 2-category; has a genuine composite."""
    return two_cat_from_cat(poset_category(["a", "b", "c"],
                                           [("a", "b"), ("b", "c")]))


def diagram_chain_to_pp() -> CatDiagram:
    """On the chain a<b<c: terminal at a and b, the parallel pair at c.

    The two parallel arrows at the top give the axiom checkers genuine
    room to catch incoherent structural choices.
    """
    base = chain3_2cat()
    one = terminal_category()
    pp = parallel_pair_category()
    pick_a = Functor(one, pp, {"*": "a"}, {"id_*": "id_a"})
    on_obj = {"a": one, "b": one, "c": pp}
    on_1 = {}
    on_2 = {}
    for f in base.all_one_cells():
        s, t = base.src1(f), base.tgt1(f)
        if t == "c" and s != "c":
            F = pick_a
        elif s == t == "c":
            F = identity_functor(pp)
        else:
            F = identity_functor(one)
        on_1[f] = F
        on_2[base.id2(f)] = idn(F)
    return CatDiagram(base, on_obj, on_1, on_2)


# ---------------------------------------------------------------------------
# Cat-valued diagrams on the walking-arrow base


def diagram_pick0() -> CatDiagram:
    """P(0) = terminal, P(1) = walking arrow, the map picks object 0."""
    base = arrow_2cat()
    one, two = terminal_category(), arrow_category()
    pick0 = Functor(one, two, {"*": "0"}, {"id_*": "id_0"})
    return CatDiagram(
        base, {"0": one, "1": two},
        {"id_0": identity_functor(one), "id_1": identity_functor(two), "f": pick0},
        {"i2_id_0": idn(identity_functor(one)),
         "i2_id_1": idn(identity_functor(two)), "i2_f": idn(pick0)})


def diagram_collapse() -> CatDiagram:
    """P(0) = walking arrow, P(1) = terminal, the map collapses."""
    base = arrow_2cat()
    one, two = terminal_category(), arrow_category()
    bang = Functor(two, one, {"0": "*", "1": "*"},
                   {a: "id_*" for a in two.arrows})
    return CatDiagram(
        base, {"0": two, "1": one},
        {"id_0": identity_functor(two), "id_1": identity_functor(one), "f": bang},
        {"i2_id_0": idn(identity_functor(two)),
         "i2_id_1": idn(identity_functor(one)), "i2_f": idn(bang)})


def weight_on_op_arrow() -> CatDiagram:
    """A weight on the dual of the walking arrow: 1 at 0, the arrow at 1."""
    base = op_dual(arrow_2cat())
    one, two = terminal_category(), arrow_category()
    bang = Functor(two, one, {"0": "*", "1": "*"},
                   {a: "id_*" for a in two.arrows})
    return CatDiagram(
        base, {"0": one, "1": two},
        {"id_0": identity_functor(one), "id_1": identity_functor(two), "f": bang},
        {"i2_id_0": idn(identity_functor(one)),
         "i2_id_1": idn(identity_functor(two)), "i2_f": idn(bang)})


def weight_constant_terminal_op() -> CatDiagram:
    return constant_diagram(op_dual(arrow_2cat()), terminal_category())


def diagram_on_free2cell() -> CatDiagram:
    """A diagram on the free-2-cell base with a nontrivial 2-cell action."""
    base = free_2cell_2cat()
    two = arrow_category()
    one = terminal_category()
    pick0 = Functor(one, two, {"*": "0"}, {"id_*": "id_0"})
    pick1 = Functor(one, two, {"*": "1"}, {"id_*": "id_1"})
    step = NatTransf(pick0, pick1, {"*": "f"})
    return CatDiagram(
        base, {"a": one, "b": two},
        {"id_a": identity_functor(one), "id_b": identity_functor(two),
         "u": pick0, "v": pick1},
        {"i2_id_a": idn(identity_functor(one)),
         "i2_id_b": idn(identity_functor(two)),
         "i2_u": idn(pick0), "i2_v": idn(pick1), "th": step})


# ---------------------------------------------------------------------------
# Pseudofunctor fixtures


def pseudo_z2() -> CatDiagram:
    """All values one-object with an involution; structure cells nontrivial."""
    base = arrow_2cat()
    z2 = group_z2_category()
    idf = identity_functor(z2)
    s = lambda: NatTransf(idf, idf, {"*": "s"})
    return CatDiagram(
        base, {"0": z2, "1": z2},
        {"id_0": idf, "id_1": idf, "f": idf},
        {"i2_id_0": idn(idf), "i2_id_1": idn(idf), "i2_f": idn(idf)},
        kind="pseudo",
        alpha_obj={"0": s(), "1": s()},
        alpha_comp={("id_0", "id_0"): s(), ("id_0", "f"): s(),
                    ("f", "id_1"): s(), ("id_1", "id_1"): s()})


def pseudo_swap() -> CatDiagram:
    """Values the walking isomorphism; the identity of 0 acts by the swap.

    The unit cell at 0 is the canonical isomorphism from the identity to
    the swap, which makes this a flat pseudofunctor whose structure
    cells are not identities.
    """
    base = arrow_2cat()
    I = iso_pair_category()
    idf = identity_functor(I)
    swap = Functor(I, I, {"0": "1", "1": "0"},
                   {"id_0": "id_1", "id_1": "id_0", "u": "u_inv", "u_inv": "u"})
    alpha0 = NatTransf(idf, swap, {"0": "u", "1": "u_inv"})
    a_id0_id0 = NatTransf(idf, swap, {"0": "u", "1": "u_inv"})
    a_id0_f = NatTransf(swap, idf, {"0": "u_inv", "1": "u"})
    return CatDiagram(
        base, {"0": I, "1": I},
        {"id_0": swap, "id_1": idf, "f": idf},
        {"i2_id_0": idn(swap), "i2_id_1": idn(idf), "i2_f": idn(idf)},
        kind="pseudo",
        alpha_obj={"0": alpha0, "1": idn(idf)},
        alpha_comp={("id_0", "id_0"): a_id0_id0,
                    ("id_0", "f"): a_id0_f,
                    ("f", "id_1"): idn(idf),
                    ("id_1", "id_1"): idn(idf)})


def pseudo_not_flat() -> CatDiagram:
    """A pseudofunctor with a disconnected pair of elements at the top."""
    base = arrow_2cat()
    z2 = group_z2_category()
    d2 = discrete_category(["x", "y"])
    idf = identity_functor(z2)
    idd = identity_functor(d2)
    to_x = Functor(z2, d2, {"*": "x"}, {"e": "id_x", "s": "id_x"})
    s = NatTransf(idf, idf, {"*": "s"})
    return CatDiagram(
        base, {"0": z2, "1": d2},
        {"id_0": idf, "id_1": idd, "f": to_x},
        {"i2_id_0": idn(idf), "i2_id_1": idn(idd), "i2_f": idn(to_x)},
        kind="pseudo",
        alpha_obj={"0": s, "1": idn(idd)},
        alpha_comp={("id_0", "id_0"): s, ("id_0", "f"): idn(to_x),
                    ("f", "id_1"): idn(to_x), ("id_1", "id_1"): idn(idd)})


# ---------------------------------------------------------------------------
# Marked 2-categories for the filteredness suite


def marked_fixtures() -> list[tuple[str, Marked2Cat, bool]]:
    """(label, marked 2-category, expected filteredness verdict)."""
    out = []
    t2 = terminal_2cat()
    out.append(("terminal/ids", Marked2Cat(t2, wide_identities(t2)), True))
    d2 = two_cat_from_cat(discrete_category(["x", "y"]))
    out.append(("discrete-pair/ids", Marked2Cat(d2, wide_identities(d2)), False))
    a2 = arrow_2cat()
    out.append(("arrow/all", Marked2Cat(a2, wide_all(a2)), True))
    out.append(("arrow/ids", Marked2Cat(a2, wide_identities(a2)), False))
    i2 = iso_2cat()
    out.append(("iso/all", Marked2Cat(i2, wide_all(i2)), True))
    p2 = parallel_2cat()
    out.append(("parallel/all", Marked2Cat(p2, wide_all(p2)), False))
    f2 = free_2cell_2cat()
    out.append(("free2cell/ids+v", Marked2Cat(f2, wide_from(f2, ["v"])), True))
    out.append(("free2cell/all", Marked2Cat(f2, wide_all(f2)), False))
    span = two_cat_from_cat(cospan_missing_poset())
    out.append(("span/all", Marked2Cat(span, wide_all(span)), False))
    dm = diamond_2cat()
    out.append(("diamond/all", Marked2Cat(dm, wide_all(dm)), True))
    return out
