"""Finite categories: validation, constructions, equivalence checking."""

import itertools

import pytest

from equivalence_reference import (categories_equivalent,
                                   quasi_inverse_search, skeleton)
from helpers import idempotent_category
from sigmacat.errors import PreconditionFailed
from sigmacat.fincat import (
    FinCat, Functor, arrow_category, connected_components, discrete_category, empty_category,
    enumerate_functors, find_isomorphism, functor_category,
    functor_category_full, group_z2_category, identity_functor,
    is_equivalence, is_equivalence_on_homs, iso_pair_category, mk_fincat,
    parallel_pair_category,
    product_category, product_projections, terminal_category, validate_category, validate_functor)
from sigmacat.two_cat import two_cat_from_cat, two_cat_product


FIXTURES = [
    ("empty", empty_category()),
    ("terminal", terminal_category()),
    ("arrow", arrow_category()),
    ("iso_pair", iso_pair_category()),
    ("parallel_pair", parallel_pair_category()),
    ("discrete2", discrete_category(["x", "y"])),
    ("z2", group_z2_category()),
]


def hom_matches_scan(c):
    """The indexed hom agrees with a sorted scan of the arrow table."""
    return all(
        c.hom(x, y) == sorted(a for a, st in c.arrows.items() if st == (x, y))
        for x in c.objects for y in c.objects)


@pytest.mark.parametrize("name,cat", FIXTURES)
def test_fixtures_validate(name, cat):
    assert validate_category(cat).ok
    assert hom_matches_scan(cat)


def test_validation_catches_identity_law_violation():
    c = arrow_category()
    bad = dict(c.compose)
    bad[("f", "id_0")] = "id_0"  # mistabulated: f∘id should be f
    broken = mk_fincat(c.objects, c.arrows, c.identity, bad)
    rep = validate_category(broken)
    assert not rep.ok
    assert any(v.code in ("identity-law", "compose-result-typing")
               for v in rep.violations)


def test_validation_catches_associativity_violation():
    # the two-element monoid on e with a deliberately wrong square:
    # s∘s = s breaks (s∘s)∘s = s∘(s∘s) when s∘s is retabulated to e
    arrows = {"e": ("*", "*"), "s": ("*", "*"), "t": ("*", "*")}
    compose = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
               ("e", "t"): "t", ("t", "e"): "t",
               ("s", "s"): "t", ("s", "t"): "e", ("t", "s"): "e",
               ("t", "t"): "t"}
    broken = mk_fincat(("*",), arrows, {"*": "e"}, compose)
    rep = validate_category(broken)
    assert not rep.ok
    assert any(v.code == "associativity" for v in rep.violations)


def brute_force_functors(c, d):
    """Independent oracle: raw product over all object and arrow maps."""
    out = []
    objs = sorted(c.objects)
    arrs = sorted(c.arrows)
    for combo in itertools.product(sorted(d.objects), repeat=len(objs)):
        om = dict(zip(objs, combo))
        pools = []
        for a in arrs:
            s, t = c.arrows[a]
            pools.append([b for b, (s2, t2) in d.arrows.items()
                          if (s2, t2) == (om[s], om[t])])
        for arr_combo in itertools.product(*pools):
            am = dict(zip(arrs, arr_combo))
            if any(am[c.identity[x]] != d.identity[om[x]] for x in objs):
                continue
            if any(d.compose[(am[g], am[f])] != am[h]
                   for (g, f), h in c.compose.items()):
                continue
            out.append((tuple(sorted(om.items())), tuple(sorted(am.items()))))
    return out


def test_functor_category_of_two_arrows_matches_brute_force():
    two = arrow_category()
    fc = functor_category_full(two, two)
    oracle = brute_force_functors(two, two)
    assert len(fc.cat.objects) == len(oracle) == 3
    # natural transformations between monotone maps of the poset 2: one per
    # pointwise-comparable pair, six in total
    assert len(fc.cat.arrows) == 6
    assert validate_category(fc.cat).ok


def test_functor_category_terminal_domain_recovers_target():
    d = iso_pair_category()
    fc = functor_category(terminal_category(), d)
    assert find_isomorphism(fc, d) is not None


def test_functor_category_empty_domain_is_terminal():
    fc = functor_category(empty_category(), iso_pair_category())
    assert len(fc.objects) == 1 and len(fc.arrows) == 1


def test_product_counts_and_projections():
    two = arrow_category()
    p = product_category(two, two)
    assert len(p.objects) == 4 and len(p.arrows) == 9
    assert validate_category(p).ok
    pr1, pr2 = product_projections(p, two, two)
    assert validate_functor(pr1).ok and validate_functor(pr2).ok


def test_product_refuses_pair_names_that_collide():
    # (a,b) with c and a with b,c would both be named (a,b,c)
    c, d = discrete_category(["a,b", "a"]), discrete_category(["c", "b,c"])
    with pytest.raises(PreconditionFailed, match=r"\(a,b,c\)"):
        product_category(c, d)
    with pytest.raises(PreconditionFailed, match=r"\(a,b,c\)"):
        two_cat_product(two_cat_from_cat(c), two_cat_from_cat(d))


def test_product_with_terminal_and_empty():
    d = parallel_pair_category()
    assert find_isomorphism(product_category(terminal_category(), d), d) is not None
    assert product_category(empty_category(), d).objects == ()


@pytest.mark.parametrize("name,cat", FIXTURES)
def test_functor_and_product_categories_validate(name, cat):
    other = arrow_category()
    fun, prod = functor_category(cat, other), product_category(cat, other)
    assert validate_category(fun).ok and hom_matches_scan(fun)
    assert validate_category(prod).ok and hom_matches_scan(prod)


def test_is_equivalence_identity_and_inclusions():
    two = arrow_category()
    assert is_equivalence(identity_functor(two)).verdict
    inc = Functor(terminal_category(), iso_pair_category(),
                  {"*": "0"}, {"id_*": "id_0"})
    assert is_equivalence(inc).verdict
    inc2 = Functor(terminal_category(), discrete_category(["x", "y"]),
                   {"*": "x"}, {"id_*": "id_x"})
    rep = is_equivalence(inc2)
    assert not rep.verdict
    assert "not isomorphic" in rep.witness


def test_is_equivalence_agrees_with_quasi_inverse_search():
    cats = [c for _, c in FIXTURES if c.objects and len(c.arrows) <= 12]
    for c in cats:
        for d in cats:
            if len(c.objects) > 2 or len(d.objects) > 2:
                continue
            for F in enumerate_functors(c, d):
                assert is_equivalence(F).verdict == \
                    (quasi_inverse_search(F) is not None)


def on_homs(F, d, objects):
    """``is_equivalence_on_homs`` of F, into the full subcategory of its
    target d on ``objects``, given by hom-sets."""
    def hom(i, j):
        return set(d.hom(objects[i], objects[j]))

    return is_equivalence_on_homs(F.source, {x: i for i, x in enumerate(objects)},
                                  F.obj_map.get, F.arr_map.get, hom, d.is_iso)


def test_equivalence_on_homs_agrees_with_is_equivalence():
    """Every functor between the fixtures and an idempotent monoid: the
    verdict on hom-sets is that of ``is_equivalence`` on the assembled
    functor.  A non-full functor (the discrete pair onto the walking
    arrow), a non-faithful one of the same hom-set sizes (ℤ/2 onto its
    unit) and one that misses an isomorphism class (a point of the
    discrete pair) are among them."""
    cats = [c for _, c in FIXTURES if c.objects] + [idempotent_category()]
    verdicts = set()
    for c in cats:
        for d in cats:
            for F in enumerate_functors(c, d):
                got = on_homs(F, d, sorted(d.objects))
                assert got == is_equivalence(F).verdict
                verdicts.add(got)
    assert verdicts == {True, False}


def test_equivalence_on_homs_refuses_an_object_outside_the_target():
    """Given into a full subcategory that misses part of its image, a
    functor is refused by the object lookup; into one that holds its
    image, the verdict is that of the corestriction."""
    two, pair = arrow_category(), discrete_category(["x", "y"])
    to_0 = Functor(terminal_category(), two, {"*": "0"}, {"id_*": "id_0"})
    assert not on_homs(to_0, two, ["1"])
    assert on_homs(to_0, two, ["0"])
    both = Functor(pair, two, {"x": "0", "y": "1"}, {"id_x": "id_0", "id_y": "id_1"})
    assert not on_homs(both, two, ["0"])
    assert not on_homs(both, two, ["0", "1"])


def test_connected_components():
    assert len(connected_components(arrow_category())) == 1
    assert len(connected_components(discrete_category(["x", "y"]))) == 2
    assert len(connected_components(parallel_pair_category())) == 1


def test_skeleton_and_equivalence():
    I = iso_pair_category()
    sk = skeleton(I)
    assert len(sk.objects) == 1
    assert categories_equivalent(I, terminal_category())
    assert not categories_equivalent(I, discrete_category(["x", "y"]))


def test_find_isomorphism_respects_structure():
    assert find_isomorphism(arrow_category(), iso_pair_category()) is None
    F = find_isomorphism(parallel_pair_category(), parallel_pair_category())
    assert F is not None and validate_functor(F).ok
