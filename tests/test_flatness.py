"""Flatness, left exactness, the canonical expression, strictification."""

import dataclasses
import re
from functools import partial

import pytest

from helpers import chain_2cat, discrete_diagram
from test_flat_reader import DIAGRAMS
from sigmacat import flatness
from sigmacat.colimits import (BaseCone, BaseConeCategories, ConeKernel,
                               check_base_cone, comparison_functor, preserves_bilimit)
from sigmacat.errors import Inconsistency, PreconditionFailed
from sigmacat.fincat import (Functor, arrow_category, compose_functors,
                             discrete_category, group_z2_category, is_equivalence,
                             iso_pair_category, mk_fincat, terminal_category)
from sigmacat.fixtures import (arrow_2cat, diagram_pick0, diamond_2cat, idn, iso_2cat,
                               marked_fixtures, poset_category, pseudo_not_flat,
                               pseudo_swap, pseudo_z2)
from sigmacat.two_cat import (Marked2Cat, WideSub, free_2cell_2cat, op_dual,
                              terminal_2cat, two_cat_from_cat, wide_all)
from sigmacat.transforms import (PSEUDO, CatDiagram, check_transformation,
                                 constant_diagram, identity_functor,
                                 reinterpret_as_pseudo, validate_diagram)
from sigmacat.elements import elements_of, elements_of_pseudo
from sigmacat.filteredness import check_sigma_filtered
from sigmacat.flatness import (canonical_expression, check_flat,
                               check_flat_pseudo, check_left_exact,
                               exact_implies_cofiltered_check,
                               generate_bilimit_cones, representable,
                               strictify, yoneda_check)
from sigmacat.shapes import generating_diagrams


BASES = [
    ("terminal", terminal_2cat()),
    ("arrow", arrow_2cat()),
    ("iso", iso_2cat()),
    ("free2cell", free_2cell_2cat()),
    ("diamond", diamond_2cat()),
]


# ---------------------------------------------------------------------------
# Representables


@pytest.mark.parametrize("label,base", BASES)
def test_representables_validate_and_are_flat(label, base):
    for A in base.objects:
        r = representable(base, A)
        assert validate_diagram(r).ok
        assert check_flat(r).verdict == "flat"


def test_representable_hom_values():
    base = arrow_2cat()
    r0 = representable(base, "0")
    assert len(r0.on_obj["0"].objects) == 1
    assert len(r0.on_obj["1"].objects) == 1
    r1 = representable(base, "1")
    assert len(r1.on_obj["0"].objects) == 0
    assert len(r1.on_obj["1"].objects) == 1


# ---------------------------------------------------------------------------
# Flatness verdicts


def test_discrete_pair_constant_is_not_flat():
    t2 = terminal_2cat()
    P = constant_diagram(t2, discrete_category(["x", "y"]))
    v = check_flat(P)
    assert v.verdict == "not-flat"
    assert v.evidence.counterexample.axiom == "sigma-F0"


def test_element_names_that_collide_are_refused():
    # the element a,b over c and the element a over b,c would both be
    # named (a,b,c); read as one element they made the verdict flat
    with pytest.raises(PreconditionFailed, match=r"\(a,b,c\)"):
        check_flat(discrete_diagram({"c": ["a,b"], "b,c": ["a"]}))
    assert check_flat(discrete_diagram({"c": ["a,b"], "d": ["a"]})).verdict == "not-flat"


def test_constant_terminal_is_flat_on_good_bases():
    for label, base in BASES:
        P = constant_diagram(base, terminal_category())
        dual = op_dual(base)
        expected = check_sigma_filtered(Marked2Cat(dual, wide_all(dual))).verdict
        assert (check_flat(P).verdict == "flat") == expected


def test_flat_verdicts_have_filtered_elements_and_equivalent_expression():
    # whenever the verdict is flat, the canonical rebuild is a pointwise
    # equivalence and the dual elements pair is filtered
    bases = [("terminal", terminal_2cat()), ("arrow", arrow_2cat())]
    for label, base in bases:
        for A in base.objects:
            P = representable(base, A)
            v = check_flat(P)
            assert v.verdict == "flat"
            ce = canonical_expression(P)
            assert ce.verdict == "equivalent"
            el = elements_of(P)
            dual = op_dual(el.cat)
            rep = check_sigma_filtered(
                Marked2Cat(dual, WideSub(dual, el.cart.arrows)))
            assert rep.verdict


def test_canonical_expression_of_constant_terminal():
    base = arrow_2cat()
    P = constant_diagram(base, terminal_category())
    ce = canonical_expression(P)
    assert ce.verdict == "equivalent"


def test_a_failed_comparison_wins_over_a_later_undecided_object(monkeypatch):
    """At cap 0 the canonical expression of pick0 decides its colimit at 0
    and not at 1.  With the comparison at 0 made to fail, the verdict is
    "failed", whatever order the objects come in."""
    def failing(F):
        return dataclasses.replace(is_equivalence(F), verdict=False)

    monkeypatch.setattr(flatness, "is_equivalence", failing)
    ce = canonical_expression(diagram_pick0(), cap=0)
    assert ce.per_object == [("0", "finite", False), ("1", "undecided", None)]
    assert ce.verdict == "failed"


def test_not_flat_is_reported_without_guessing():
    base = arrow_2cat()
    P = constant_diagram(base, arrow_category())
    v = check_flat(P)
    assert v.verdict in ("flat", "not-flat")
    assert v.route == "elements-cofiltered"


# ---------------------------------------------------------------------------
# Left exactness on the meet semilattice base


@pytest.fixture(scope="module")
def diamond():
    return diamond_2cat()


@pytest.fixture(scope="module")
def diamond_cones(diamond):
    return generate_bilimit_cones(diamond)


def _i_if_above_a(diamond):
    """A non-representable exact diagram: the walking iso above a."""
    I = iso_pair_category()
    one = terminal_category()
    up_a = {"a", "top"}
    inc = Functor(one, I, {"*": "0"}, {"id_*": "id_0"})
    on_obj = {x: (I if x in up_a else one) for x in diamond.objects}
    on_1, on_2 = {}, {}
    for f in diamond.all_one_cells():
        s, t = diamond.src1(f), diamond.tgt1(f)
        if s in up_a and t in up_a:
            F = identity_functor(I)
        elif t in up_a:
            F = inc
        else:
            F = identity_functor(one)
        on_1[f] = F
        on_2[diamond.id2(f)] = idn(F)
    return CatDiagram(diamond, on_obj, on_1, on_2)


def test_bilimit_search_builds_each_cone_category_once(diamond, monkeypatch):
    """The vertex filter and the bilimit test read the same cone
    categories: each Cones_D(X) where every pool of legs hom(X, D(i)) is
    inhabited is built exactly once for each (D, marked), which is what
    keeps the ticks those of the builds, and no other is built."""
    from sigmacat.colimits import BaseConeCategories
    build = BaseConeCategories.build
    built = []

    def counted(over, vertex):
        D = over.D
        built.append((tuple(sorted(D.obj_map.items())), tuple(sorted(D.map1.items())),
                      tuple(sorted(D.map2.items())), over.marked, vertex))
        return build(over, vertex)

    monkeypatch.setattr(BaseConeCategories, "build", counted)
    assert len(generate_bilimit_cones(diamond)) == 44
    legs = [(tuple(sorted(D.obj_map.items())), tuple(sorted(D.map1.items())),
             tuple(sorted(D.map2.items())), marked, X)
            for _, D, marked in generating_diagrams(diamond) for X in diamond.objects
            if all(diamond.one_cells(X, D.obj_map[i]) for i in D.source.objects)]
    assert len(set(built)) == len(built) == len(legs) < 4 * 44
    assert set(built) == set(legs)


def test_bilimit_search_enters_the_kernel_only_where_every_leg_pool_is_inhabited(
        diamond, monkeypatch):
    """A Cones_D(X) with no 1-cell X → D(i) for some i has no cone, and
    its build answers before the kernel: the kernel is entered once per
    (D, marked) and X where every pool of legs is inhabited, and at no
    other X."""
    cones = ConeKernel.cones
    entered = []

    def counted(kernel, cats, pools, meter):
        entered.append(tuple(map(len, pools)))
        return cones(kernel, cats, pools, meter)

    monkeypatch.setattr(ConeKernel, "cones", counted)
    assert len(generate_bilimit_cones(diamond)) == 44
    inhabited = [X for _, D, _ in generating_diagrams(diamond) for X in diamond.objects
                 if all(diamond.one_cells(X, D.obj_map[i]) for i in D.source.objects)]
    assert all(all(sizes) for sizes in entered)
    assert len(entered) == len(inhabited) < 4 * 44


def test_left_exactness_builds_no_composition_table(diamond, monkeypatch):
    """The bilimit search and the comparisons into the limits are decided
    on hom-sets, and each limit is read off P·D's tables: left exactness
    must be decided with the category assembler, the equivalence test and
    the enumerators of transformations and modifications made to fail."""
    from sigmacat import colimits, fincat, flatness, transforms

    def refuse(*args, **kwargs):
        raise AssertionError("a composition table or a transformation was built")

    for module in (fincat, colimits, transforms, flatness):
        for name in ("assemble_category", "is_equivalence",
                     "enumerate_transformations", "enumerate_modifications"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rep = check_left_exact(representable(diamond, "bot"),
                           generate_bilimit_cones(diamond))
    assert rep.verdict and len(rep.per_shape) == 44


def _z2_killed_along_bot_a(diamond):
    """P(bot) = P(a) = ℤ/2 and P(b) = P(top) = 1, with bot<a sent to the
    endofunctor of ℤ/2 that sends s to e."""
    z2, one = group_z2_category(), terminal_category()
    values = {"bot": z2, "a": z2, "b": one, "top": one}
    on_1, on_2 = {}, {}
    for f in diamond.all_one_cells():
        C, D = values[diamond.src1(f)], values[diamond.tgt1(f)]
        if D is one:
            F = Functor(C, one, {x: "*" for x in C.objects},
                        {a: "id_*" for a in C.arrows})
        elif f == "bot<a":
            F = Functor(z2, z2, {"*": "*"}, {"e": "e", "s": "e"})
        else:
            F = identity_functor(C)
        on_1[f] = F
        on_2[diamond.id2(f)] = idn(F)
    return CatDiagram(diamond, values, on_1, on_2)


@pytest.mark.parametrize("diagram,full,faithful,essentially_surjective", [
    # ℤ/2 → ℤ/2 × ℤ/2: hom-sets of size 2 against 4
    pytest.param(lambda a: constant_diagram(a, group_z2_category()),
                 False, True, True, id="const-z2"),
    # ℤ/2 → ℤ/2 × 1 sends s to e: hom-sets of equal size, not injectively
    pytest.param(_z2_killed_along_bot_a, False, False, True,
                 id="z2-killed-along-bot<a"),
    # {x, y} → {x, y}²: (x, y) is isomorphic to no image
    pytest.param(lambda a: constant_diagram(a, discrete_category(["x", "y"])),
                 True, True, False, id="const-pair"),
])
def test_a_comparison_failing_one_check_is_not_preserved(
        diamond, diamond_cones, diagram, full, faithful, essentially_surjective):
    """One comparison per check of ``is_equivalence_on_homs`` that fails it:
    not full, not faithful, not essentially surjective, each at the
    biproduct of a and b, whose bilimit cone has vertex bot."""
    cone = dict(diamond_cones)["biproduct(a,b)"]
    P = diagram(diamond)
    assert validate_diagram(P).ok
    rep = is_equivalence(comparison_functor(P, cone)[0])
    assert (rep.full, rep.faithful, rep.essentially_surjective) == \
        (full, faithful, essentially_surjective)
    assert preserves_bilimit(P, cone) is False
    assert ("biproduct(a,b)", False) in check_left_exact(P, diamond_cones).per_shape


def test_bilimit_test_refuses_a_cone_over_another_diagram(diamond_cones):
    (_, over_aa), (_, over_ab) = diamond_cones[:2]
    cats = BaseConeCategories(over_aa.diagram, over_aa.marked)
    assert cats.is_bilimit(over_aa)
    with pytest.raises(PreconditionFailed):
        cats.is_bilimit(over_ab)


def test_generated_cones_cover_the_shapes(diamond, diamond_cones):
    labels = [label for label, _ in diamond_cones]
    assert any(l.startswith("biproduct") for l in labels)
    assert any(l.startswith("biinserter") for l in labels)
    assert any(l.startswith("biequalizer") for l in labels)
    assert any(l.startswith("biequifier") for l in labels)


def test_exactness_agrees_with_flatness(diamond, diamond_cones):
    diagrams = [
        ("repr-a", representable(diamond, "a"), True),
        ("repr-top", representable(diamond, "top"), True),
        ("const-1", constant_diagram(diamond, terminal_category()), True),
        ("iso-above-a", _i_if_above_a(diamond), True),
        ("const-pair", constant_diagram(diamond, discrete_category(["x", "y"])),
         False),
    ]
    for label, P, expect in diagrams:
        assert validate_diagram(P).ok, label
        ex = check_left_exact(P, diamond_cones)
        fl = check_flat(P)
        assert ex.verdict == (fl.verdict == "flat") == expect, label


def test_empty_cone_list_is_flagged(diamond):
    rep = check_left_exact(representable(diamond, "a"), [])
    assert rep.verdict and rep.no_evidence


# Δ(∅), the constant diagram at the empty category, over bases with a
# terminal object: El is empty, so it is not flat, and P(top) = ∅ is not
# ≃ 1, so the biterminal cone is not preserved and it is not left exact.
EMPTY_VALUE_BASES = {"arrow": (arrow_2cat, "1"), "chain4": (lambda: chain_2cat(4), "c3"),
                     "diamond": (diamond_2cat, "top")}


@pytest.mark.parametrize("name", sorted(EMPTY_VALUE_BASES))
def test_the_empty_constant_is_neither_flat_nor_left_exact(name):
    base_of, top = EMPTY_VALUE_BASES[name]
    base = base_of()
    cones = generate_bilimit_cones(base)
    label, terminal = cones[0]
    assert (label, terminal.vertex, terminal.comp, terminal.struct) == \
        ("biterminal", top, {}, {})
    P = constant_diagram(base, discrete_category([]))
    rep = check_left_exact(P, cones)
    assert not rep.verdict and not rep.no_evidence
    assert [label for label, ok in rep.per_shape if not ok] == ["biterminal"]
    assert check_flat(P).verdict == "not-flat"
    # the bridge check refuses the input as not left exact; it used to
    # find it exact and raise Inconsistency
    with pytest.raises(PreconditionFailed, match="not left exact"):
        exact_implies_cofiltered_check(P, cones)


def test_the_biterminal_cone_is_absent_without_a_terminal_object():
    """The discrete pair has no terminal object; the point is biterminal
    and Δ1 preserves it."""
    pair = two_cat_from_cat(discrete_category(["x", "y"]))
    assert "biterminal" not in dict(generate_bilimit_cones(pair))
    point = terminal_2cat()
    rep = check_left_exact(constant_diagram(point, terminal_category()),
                           generate_bilimit_cones(point))
    assert rep.verdict and rep.per_shape[0] == ("biterminal", True)


def test_malformed_cones_passed_in_are_refused(diamond, diamond_cones):
    """The cones of the search are marked ``searched`` and not checked
    again; any other cone is, whether built by hand or derived from a
    searched one with ``dataclasses.replace``, and a malformed one is a
    precondition failure, also among searched cones."""
    P = representable(diamond, "a")
    # the first cone with a leg: the biterminal cone has none to get wrong
    label, cone = next((label, c) for label, c in diamond_cones if c.comp)
    i = sorted(cone.comp)[0]
    wrong = next(f for f in sorted(diamond.all_one_cells())
                 if diamond.hom_of_1cell(f) != (cone.vertex, cone.diagram.obj_map[i]))
    fields = {"shape": cone.shape, "diagram": cone.diagram, "marked": cone.marked,
              "vertex": cone.vertex, "struct": cone.struct}
    by_hand = BaseCone(comp=cone.comp, **fields)
    assert cone.searched and not by_hand.searched and by_hand == cone
    assert check_left_exact(P, [(label, by_hand)]) == check_left_exact(P, [(label, cone)])
    for bad in (BaseCone(comp={**cone.comp, i: wrong}, **fields),
                dataclasses.replace(cone, comp={**cone.comp, i: wrong})):
        assert not bad.searched
        for cones in ([(label, bad)], diamond_cones + [(label, bad)]):
            with pytest.raises(PreconditionFailed,
                               match=f"malformed cone {re.escape(label)}: component at"):
                check_left_exact(P, cones)


def markings_outside_the_shape():
    """The ``biproduct(0,0)`` cone of the walking arrow, its label, and the
    same cone marking an undeclared cell or the base's 1-cell f."""
    label, cone = next((label, c) for label, c in generate_bilimit_cones(arrow_2cat())
                       if label == "biproduct(0,0)")
    return label, cone, [(name, dataclasses.replace(cone, marked=cone.marked | {name}))
                         for name in ("zz", "f")]


def test_a_cone_marking_outside_its_shape_is_refused():
    """A marking names 1-cells of the cone's shape: one that names another
    cell is a ``marking`` violation, and ``check_left_exact`` refuses it."""
    label, cone, bad = markings_outside_the_shape()
    P = representable(arrow_2cat(), "0")
    assert check_left_exact(P, [(label, dataclasses.replace(cone))]).verdict
    for name, c in bad:
        assert [(v.code, v.cells) for v in check_base_cone(c).violations] == \
            [("marking", (name,))]
        with pytest.raises(PreconditionFailed, match=f"malformed cone {re.escape(label)}: "
                                                     f"marked {name} is not a 1-cell"):
            check_left_exact(P, [(label, c)])


def test_cone_categories_refuse_a_marking_outside_the_shape():
    _, cone, bad = markings_outside_the_shape()
    assert BaseConeCategories(cone.diagram, cone.marked).is_bilimit(cone)
    for _, c in bad:
        with pytest.raises(PreconditionFailed, match="marking is not of the diagram's shape"):
            BaseConeCategories(c.diagram, c.marked)


def test_cone_categories_refuse_a_vertex_outside_the_base(diamond):
    """Over the biterminal diagram every object of the base has its cone
    category, and a name that is no object must not get one: ``at`` used to
    answer ``zz`` with a cone, whose bilimit test raised ``KeyError``."""
    diagrams = {label: (D, marked) for label, D, marked in generating_diagrams(diamond)}
    for label in ("biterminal", "biproduct(a,b)"):
        D, marked = diagrams[label]
        over = BaseConeCategories(D, marked)
        for read in (over.at, over.cones):
            with pytest.raises(PreconditionFailed, match="zz is not an object of the base"):
                read("zz")
        cone = BaseCone(D.source, D, marked, "zz", {i: "id_a" for i in D.source.objects},
                        {u: "i2_id_a" for u in D.source.all_one_cells()})
        with pytest.raises(PreconditionFailed, match="zz is not an object of the base"):
            over.is_bilimit(cone)


@pytest.mark.parametrize("leg", ["zz", "bot<b"], ids=["no-1-cell", "into-b"])
def test_bilimit_test_refuses_a_malformed_cone(diamond, leg):
    """A cone that ``cones`` did not build is checked before it is read: at
    the biproduct of a and b, a leg at a that is no 1-cell used to raise
    ``KeyError``, and one into b instead of a was answered ``False``."""
    D, marked = next((D, marked) for label, D, marked in generating_diagrams(diamond)
                     if label == "biproduct(a,b)")
    over = BaseConeCategories(D, marked)
    (searched,) = over.cones("bot")
    assert over.is_bilimit(searched) and over.is_bilimit(dataclasses.replace(searched))
    cone = BaseCone(D.source, D, marked, "bot", {**searched.comp, "a": leg}, searched.struct)
    with pytest.raises(PreconditionFailed, match="malformed cone: component at a mistyped"):
        over.is_bilimit(cone)


def test_exact_implies_cofiltered(diamond, diamond_cones):
    for P in (representable(diamond, "a"),
              constant_diagram(diamond, terminal_category()),
              _i_if_above_a(diamond)):
        rep = exact_implies_cofiltered_check(P, diamond_cones)
        assert rep.verdict
    with pytest.raises(PreconditionFailed):
        exact_implies_cofiltered_check(
            constant_diagram(diamond, discrete_category(["x", "y"])),
            diamond_cones)


# Bases that lack some generating bilimit: Δ1 preserves every cone the
# search finds there, yet its elements are not cofiltered.  The theorem asks
# for every bilimit, so the bridge refuses the input and names the first
# generating diagram with no cone; it used to raise Inconsistency.
INCOMPLETE_BASES = {
    "discrete-pair": (["l", "r"], [], 8, 11, "biterminal"),
    "cospan": (["l", "r", "t"], [("l", "t"), ("r", "t")], 23, 25, "biproduct(l,r)"),
    "empty": ([], [], 0, 1, "biterminal"),
}


@pytest.mark.parametrize("name", sorted(INCOMPLETE_BASES))
def test_the_exactness_bridge_refuses_a_base_lacking_a_bilimit(name):
    objs, rels, found, diagrams, first = INCOMPLETE_BASES[name]
    base = two_cat_from_cat(poset_category(objs, rels))
    cones = generate_bilimit_cones(base)
    assert (len(cones), len(list(generating_diagrams(base)))) == (found, diagrams)
    P = constant_diagram(base, terminal_category())
    assert check_left_exact(P, cones).verdict
    assert check_flat(P).verdict == "not-flat"
    with pytest.raises(PreconditionFailed, match=re.escape(f"no bilimit cone for {first}")):
        exact_implies_cofiltered_check(P, cones)


# ---------------------------------------------------------------------------
# Yoneda


@pytest.mark.parametrize("label,base",
                         [(l, b) for l, b in BASES if len(b.objects) <= 3])
def test_yoneda_evaluation_is_an_equivalence(label, base):
    targets = [representable(base, A) for A in sorted(base.objects)]
    targets.append(constant_diagram(base, terminal_category()))
    targets.append(constant_diagram(base, arrow_category()))
    for A in base.objects:
        checked = 0
        for Q in targets:
            assert yoneda_check(Q, A).verdict
            checked += 1
        assert checked >= 2


# ---------------------------------------------------------------------------
# Strictification and pseudofunctors


PSEUDO_FIXTURES = [
    ("z2", pseudo_z2),
    ("swap", pseudo_swap),
    ("not-flat", pseudo_not_flat),
]


# the pseudo fixtures, then the flat reader's diagrams, which strictify
# reads as pseudofunctors
STRICTIFY_INPUTS = PSEUDO_FIXTURES + [
    pytest.param(name, partial(DIAGRAMS.get, name), id=name)
    for name in sorted(DIAGRAMS)]


@pytest.mark.parametrize("label,mk", STRICTIFY_INPUTS)
def test_strictify_output_is_strict_with_equivalence_unit(label, mk):
    P = mk()
    tilde, eta, eps = strictify(P)
    assert validate_diagram(tilde).ok
    assert tilde.kind == "strict"
    assert check_transformation(eta).ok
    assert check_transformation(eps).ok
    for A in P.source.objects:
        assert is_equivalence(eta.components[A]).verdict


def test_strictify_of_a_strict_diagram_is_not_the_identity():
    base = arrow_2cat()
    P = constant_diagram(base, arrow_category())
    tilde, eta, eps = strictify(P)
    assert validate_diagram(tilde).ok
    for A in base.objects:
        rep = is_equivalence(eta.components[A])
        assert rep.verdict
    # the rebuilt values collect pairs over every incoming 1-cell, so at
    # least one of them properly grows
    assert any(len(tilde.on_obj[A].objects) > len(P.on_obj[A].objects)
               for A in base.objects)


def test_strictify_refuses_object_names_that_collide():
    # id_b and "id_b,p" both run into b, so (id_b,p,q) would name both
    # the pair (id_b, p,q) and the pair (id_b,p, q)
    c = mk_fincat(("a", "b"),
                  {"id_a": ("a", "a"), "id_b": ("b", "b"), "id_b,p": ("a", "b")},
                  {"a": "id_a", "b": "id_b"},
                  {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
                   ("id_b,p", "id_a"): "id_b,p", ("id_b", "id_b,p"): "id_b,p"})
    base = two_cat_from_cat(c)
    Pa, Pb = discrete_category(["q"]), discrete_category(["p,q"])
    on_1 = {"id_a": identity_functor(Pa), "id_b": identity_functor(Pb),
            "id_b,p": Functor(Pa, Pb, {"q": "p,q"}, {"id_q": "id_p,q"})}
    P = CatDiagram(base, {"a": Pa, "b": Pb}, on_1,
                   {base.id2(f): idn(F) for f, F in on_1.items()})
    assert validate_diagram(P).ok
    with pytest.raises(PreconditionFailed, match=r"\(id_b,p,q\)"):
        strictify(P)


def test_unit_counit_composites_are_equivalences():
    for P in [mk() for _, mk in PSEUDO_FIXTURES] + list(DIAGRAMS.values()):
        tilde, eta, eps = strictify(P)
        for A in P.source.objects:
            round_trip = compose_functors(eps.components[A], eta.components[A])
            assert is_equivalence(round_trip).verdict


def test_flatness_survives_strictification_on_every_ladder_diagram():
    """P, its strictification and P read as a pseudofunctor are flat
    together, and the diagrams hold both verdicts."""
    verdicts = set()
    for name, P in DIAGRAMS.items():
        tilde, _, _ = strictify(P)
        got = {check_flat(P).verdict, check_flat(tilde).verdict,
               check_flat_pseudo(P).verdict}
        assert len(got) == 1, name
        verdicts |= got
    assert verdicts == {"flat", "not-flat"}


@pytest.mark.parametrize("label,mk", PSEUDO_FIXTURES)
def test_flat_pseudo_routes_agree(label, mk):
    # the checker itself raises on disagreement; the verdicts here pin the
    # expected outcomes of the fixtures
    v = check_flat_pseudo(mk())
    expected = {"z2": "not-flat", "swap": "flat", "not-flat": "not-flat"}
    assert v.verdict == expected[label]


def test_flat_pseudo_on_strict_reinterpretation_agrees():
    base = arrow_2cat()
    for P in (representable(base, "0"),
              constant_diagram(base, arrow_category())):
        assert check_flat_pseudo(reinterpret_as_pseudo(P)).verdict == \
            check_flat(P).verdict
