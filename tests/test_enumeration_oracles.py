"""The enumerators against brute-force references built on the validators.

Each reference takes the full product of every component and every
structural cell, with no pruning, and keeps what the functor-level
validator accepts: ``check_transformation`` for transformations,
``check_modification`` for modifications and ``check_sigma_cone`` for
cones.  Cone morphisms have no public validator, so their reference is
the morphism square written out with whiskered transformations.  The
enumerators decide the same axioms on component tables and must return
exactly these results, in the same order.

Cones inside a finite 2-category are checked the same way against the
cone kernel of ``colimits``: the full product of legs and of cells at
every shape 1-cell, filtered by ``check_base_cone`` for the cones of
``base_cone_category``, and by the cocone laws written out here for
``cocone_category``, whose cocones the kernel finds as cones in the
1-cell dual; their morphisms by the modification squares written out
here.  Both assembled categories are in ``cone_reference``.

The test-family certificate of ``certificate_reference``, which decides
precomposition with a cone on hom-sets against one test category, is
checked against the comparison functor between the assembled functor and
cone categories, validated by ``validate_functor``, on the universal cone
of each fixture colimit and on cones that are not universal.  Its
weighted form, which decides composition with the universal weighted
cocone on hom-sets, is checked the same way against the assembled
canonical comparison, and against the isomorphism search it replaced.
The classifier certificate of ``colimits`` must accept a cone exactly
when the references accept it against every test category, ℤ/2 and the
idempotent monoid, on the same cones and on diagrams whose values are
not thin.

The bilimit test, which decides precomposition with a cone on the
objects and hom-sets of the cone categories, is checked against the same
comparison assembled: ``base_cone_category`` at every object, the functor
validated by ``validate_functor`` and decided by ``is_equivalence``, on
every cone of every cone category of the generating diagrams, bilimit or
not.  The bilimit search of ``generate_bilimit_cones``, which tests
cones over shared cone categories, is checked against a per-candidate
loop: the candidates and laws of the former kernel in
``bilimit_reference``, then that assembled test on each, building every
cone category again.  Labels and cones must agree, in order.
``preserves_bilimit``, which decides the comparison into the
limit on hom-sets, is checked against ``comparison_functor`` and
``is_equivalence``, on every such cone and on the cones the search finds
in chains, grids and the diamond.  The σ-cones from the point that
``point_cone_homs`` reads off a diagram's tables, and their morphisms,
are checked against the σ-transformations out of Δ1 and their
modifications.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings

from bilimit_reference import cone_candidates, cone_laws
from certificate_reference import (certify_against, certify_weighted,
                                   default_test_family, hom_into_diagram)
from cone_reference import (ShapeDiagram, base_cone_category, cocone_category,
                            cone_category_names, cone_existence,
                            shape_diagram_1, shape_diagram_2, shape_diagram_3)
from helpers import chain_2cat, idempotent_category, posets
from sigmacat.colimits import (BaseCone, BaseConeCategories, SigmaCone,
                               _conical_classifier, _weighted_classifier,
                               check_base_cone, check_sigma_cone,
                               comparison_functor, cones_sigma,
                               conical_sigma_colimit, point_cone_homs,
                               preserves_bilimit, weighted_sigma_colimit)
from sigmacat.config import Meter
from sigmacat.errors import PreconditionFailed, SizeLimitExceeded
from sigmacat.elements import mor_name, obj_name
from sigmacat.fincat import (Functor, NatTransf, arrow_category,
                             assemble_category, compose_functors,
                             discrete_category, enumerate_functors, enumerate_nat_transfs,
                             find_isomorphism, functor_category_full,
                             functor_homs, group_z2_category, is_equivalence,
                             iso_pair_category, terminal_category,
                             validate_functor,
                             vcomp_nat, whisker_functor_nat,
                             whisker_nat_functor)
from sigmacat.fixtures import (arrow_2cat, chain3_2cat, diagram_collapse,
                               diagram_on_free2cell, diagram_pick0,
                               diamond_2cat, marked_fixtures, poset_category,
                               pseudo_swap, pseudo_z2, weight_constant_terminal_op,
                               weight_on_op_arrow)
from sigmacat.flatness import generate_bilimit_cones, representable
from sigmacat.presented import presents
from sigmacat.shapes import BITERMINAL, generating_diagrams
from sigmacat.transforms import (LAX, PSEUDO, STRICT, Modification,
                                 Transformation, check_modification,
                                 check_transformation, constant_diagram,
                                 enumerate_modifications,
                                 enumerate_transformations, hom_eps, identity_twofunctor, sigma_flavor,
                                 TwoFunctor, validate_twofunctor)
from sigmacat.two_cat import (Marked2Cat, free_2cell_2cat, mk_fin2cat,
                              op_dual, parallel_2cells_2cat, terminal_2cat,
                              two_cat_from_cat, wide_all, wide_from,
                              wide_identities)


def brute_transformations(P, Q, flavor) -> list:
    """Sorted keys of every transformation P ⇒ Q check_transformation accepts."""
    base = P.source
    objs = sorted(base.objects)
    cells = base.all_one_cells()
    keys = []
    for combo in itertools.product(
            *(enumerate_functors(P.on_obj[A], Q.on_obj[A]) for A in objs)):
        comps = dict(zip(objs, combo))
        pools = [enumerate_nat_transfs(
                     compose_functors(Q.on_1[f], comps[base.src1(f)]),
                     compose_functors(comps[base.tgt1(f)], P.on_1[f]))
                 for f in cells]
        for st in itertools.product(*pools):
            t = Transformation(P, Q, comps, dict(zip(cells, st)), flavor)
            if check_transformation(t).ok:
                keys.append(t.key())
    return sorted(keys)


def brute_modifications(t1, t2) -> list:
    """Sorted keys of every modification t1 ⇛ t2 check_modification accepts."""
    objs = sorted(t1.components)
    keys = []
    for combo in itertools.product(
            *(enumerate_nat_transfs(t1.components[A], t2.components[A])
              for A in objs)):
        m = Modification(t1, t2, dict(zip(objs, combo)))
        if check_modification(m).ok:
            keys.append(m.key())
    return sorted(keys)


def brute_cones(Q, marked, E) -> list:
    """Sorted keys of every cone under Q with vertex E check_sigma_cone accepts."""
    base = Q.source
    objs = sorted(base.objects)
    cells = base.all_one_cells()
    keys = []
    for combo in itertools.product(
            *(enumerate_functors(Q.on_obj[A], E) for A in objs)):
        comps = dict(zip(objs, combo))
        pools = [enumerate_nat_transfs(
                     compose_functors(comps[base.tgt1(f)], Q.on_1[f]),
                     comps[base.src1(f)])
                 for f in cells]
        for st in itertools.product(*pools):
            c = SigmaCone(Q, marked, E, comps, dict(zip(cells, st)))
            if check_sigma_cone(c).ok:
                keys.append(c.key())
    return sorted(keys)


def morphism_square_holds(c1, c2, rho) -> bool:
    """ρ_A ∘ σ1_f = σ2_f ∘ ρ_B Q(f) at every 1-cell f : A → B."""
    Q, base = c1.diagram, c1.diagram.source
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        lhs = vcomp_nat(rho[A], c1.structural[f])
        rhs = vcomp_nat(c2.structural[f], whisker_nat_functor(rho[B], Q.on_1[f]))
        if lhs.components != rhs.components:
            return False
    return True


def brute_cone_morphisms(c1, c2) -> list:
    objs = sorted(c1.components)
    keys = []
    for combo in itertools.product(
            *(enumerate_nat_transfs(c1.components[A], c2.components[A])
              for A in objs)):
        rho = dict(zip(objs, combo))
        if morphism_square_holds(c1, c2, rho):
            keys.append(tuple((A, rho[A].key()) for A in objs))
    return sorted(keys)


# ---------------------------------------------------------------------------
# Inputs: a strict diagram on the walking arrow, one on a base with a
# 2-cell, and pseudofunctors with nontrivial structure cells.

PAIRS = {
    "arrow": lambda: (diagram_pick0(),
                      constant_diagram(arrow_2cat(), arrow_category()), {"f"}),
    "free2cell": lambda: (diagram_on_free2cell(),
                          constant_diagram(free_2cell_2cat(), arrow_category()),
                          {"u"}),
    "pseudo-z2-swap": lambda: (pseudo_z2(), pseudo_swap(), {"f"}),
    "pseudo-swap-swap": lambda: (pseudo_swap(), pseudo_swap(), set()),
}


def flavor_of(kind, marked):
    return {"s": STRICT, "p": PSEUDO, "sigma": sigma_flavor(marked), "l": LAX}[kind]


@pytest.mark.parametrize("kind", ["s", "p", "sigma", "l"])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_hom_eps_matches_the_brute_force_reference(pair, kind):
    P, Q, marked = PAIRS[pair]()
    flavor = flavor_of(kind, marked)
    if kind == "s" and (P.is_pseudo or Q.is_pseudo):
        with pytest.raises(PreconditionFailed):
            hom_eps(P, Q, flavor)
        return
    h = hom_eps(P, Q, flavor)
    assert h.transfs
    assert [t.key() for t in h.transfs.values()] == brute_transformations(P, Q, flavor)
    by_pair = {}
    for name, m in h.mods.items():
        by_pair.setdefault(h.cat.arrows[name], []).append(m.key())
    for n1, t1 in h.transfs.items():
        for n2, t2 in h.transfs.items():
            assert by_pair.get((n1, n2), []) == brute_modifications(t1, t2)


CONES = {
    "pick0-arrow-ids": lambda: (diagram_pick0(), frozenset(), arrow_category()),
    "pick0-arrow-all": lambda: (diagram_pick0(), frozenset({"f"}), arrow_category()),
    "collapse-iso_pair-all": lambda: (diagram_collapse(), frozenset({"f"}),
                                      iso_pair_category()),
    "free2cell-arrow-ids": lambda: (diagram_on_free2cell(), frozenset(),
                                    arrow_category()),
    "free2cell-arrow-u": lambda: (diagram_on_free2cell(), frozenset({"u"}),
                                  arrow_category()),
}


@pytest.mark.parametrize("case", sorted(CONES))
def test_cones_sigma_matches_the_brute_force_reference(case):
    Q, marked, E = CONES[case]()
    cc = cones_sigma(Q, marked, E)
    assert [c.key() for c in cc.cones.values()] == brute_cones(Q, marked, E)
    assert cc.cones
    objs = sorted(Q.source.objects)
    by_pair = {}
    for name, rho in cc.morphisms.items():
        by_pair.setdefault(cc.cat.arrows[name], []).append(
            tuple((A, rho[A].key()) for A in objs))
    for n1, c1 in cc.cones.items():
        for n2, c2 in cc.cones.items():
            assert by_pair.get((n1, n2), []) == brute_cone_morphisms(c1, c2)


# ---------------------------------------------------------------------------
# The colimit certificate against the assembled comparison.  The reference
# assembles Fun(R, E) and the cone category with their composition tables,
# maps each functor H to the cone Hκ and each transformation μ to μκ, and
# asks validate_functor whether that is a functor; with both sides of the
# same size and both maps injective, it is then an isomorphism.  The
# certificate decides the same question on hom-sets alone.


def assembled_certificate(result, E) -> bool:
    Q, cone, base = result.diagram, result.cone, result.diagram.source
    fc = functor_category_full(result.category, E)
    cc = cones_sigma(Q, result.marked, E)
    cone_names, morphism_names = cone_category_names(cc)
    if len(fc.cat.objects) != len(cc.cat.objects) or \
            len(fc.cat.arrows) != len(cc.cat.arrows):
        return False
    obj_map, arr_map = {}, {}
    try:
        for name, H in fc.functors.items():
            obj_map[name] = cone_names[SigmaCone(
                Q, result.marked, E,
                {A: compose_functors(H, cone.components[A]) for A in base.objects},
                {f: whisker_functor_nat(H, cone.structural[f])
                 for f in base.all_one_cells()}).key()]
        for name, mu in fc.transfs.items():
            src, tgt = fc.cat.arrows[name]
            key = tuple((A, whisker_nat_functor(mu, cone.components[A]).key())
                        for A in sorted(base.objects))
            arr_map[name] = morphism_names[(obj_map[src], obj_map[tgt], key)]
    except KeyError:
        return False
    if len(set(obj_map.values())) != len(obj_map) or \
            len(set(arr_map.values())) != len(arr_map):
        return False
    return validate_functor(Functor(fc.cat, cc.cat, obj_map, arr_map)).ok


def conical_certificate(result, E) -> bool:
    return certify_against(result, E, functor_homs(result.category, E), Meter())


def classifier_verdict(result) -> bool:
    """Whether the functor Cl(Q, Σ) → V that the result's cone induces is an
    isomorphism onto the cone's vertex V: the classifier certificate, as a
    verdict, on any cone."""
    cl = _conical_classifier(result.diagram, result.marked, result.cone)
    return presents(cl.presentation(), cl.obj_image, cl.gen_image, result.cone.vertex)


def constant_cone(result):
    """The cone whose legs send everything to the least object of R, with
    identity cells: a cone, but not a universal one unless R has one arrow."""
    Q, base, R = result.diagram, result.diagram.source, result.category
    r = min(R.objects)
    comps = {A: Functor(Q.on_obj[A], R, {x: r for x in Q.on_obj[A].objects},
                        {a: R.identity[r] for a in Q.on_obj[A].arrows})
             for A in base.objects}
    structural = {f: NatTransf(compose_functors(comps[base.tgt1(f)], Q.on_1[f]),
                               comps[base.src1(f)],
                               {x: R.identity[r]
                                for x in Q.on_obj[base.src1(f)].objects})
                  for f in base.all_one_cells()}
    cone = SigmaCone(Q, result.marked, R, comps, structural)
    assert check_sigma_cone(cone).ok
    return cone


COLIMITS = {
    f"{name}-{mark}": (mk, marking)
    for name, mk in (("pick0", diagram_pick0), ("collapse", diagram_collapse),
                     ("weight_on_op_arrow", weight_on_op_arrow),
                     ("pair-over-point", lambda: constant_diagram(
                         terminal_2cat(), discrete_category(["x", "y"]))))
    for mark, marking in (("ids", wide_identities), ("all", wide_all))
}


# The test family, then two categories with non-identity endomorphisms.
# Against Z2 the constant cone of the pair over a point is bijective on
# objects, with hom-sets of equal sizes, but not injective on them.
TEST_CATEGORIES = [E for _, E in default_test_family()] + [
    group_z2_category(), idempotent_category()]


@pytest.mark.parametrize("case", sorted(COLIMITS))
def test_colimit_certificate_matches_the_assembled_comparison(case):
    mk, marking = COLIMITS[case]
    Q = mk()
    result = conical_sigma_colimit(Q, marking(Q.source))
    assert result.certificate == [("classifier", True)]
    assert classifier_verdict(result)
    for E in TEST_CATEGORIES:
        assert assembled_certificate(result, E)
        assert conical_certificate(result, E)
    other = dataclasses.replace(result, cone=constant_cone(result))
    verdicts = [assembled_certificate(other, E) for E in TEST_CATEGORIES]
    assert [conical_certificate(other, E) for E in TEST_CATEGORIES] == verdicts
    assert classifier_verdict(other) == all(verdicts)
    if case == "pick0-all":
        assert verdicts[:4] == [True, False, False, False]


@pytest.mark.parametrize("case", sorted(COLIMITS))
def test_colimit_certificate_matches_the_assembled_comparison_on_every_cone(case):
    """Every cone under Q with vertex 1 or the idempotent, put in place of
    the universal one: the two sides agree on each, and the classifier
    accepts the cone exactly when both accept it against every test
    category."""
    mk, marking = COLIMITS[case]
    Q = mk()
    result = conical_sigma_colimit(Q, marking(Q.source))
    verdicts = set()
    for V in (terminal_category(), idempotent_category()):
        for cone in cones_sigma(Q, result.marked, V).cones.values():
            other = dataclasses.replace(result, category=V, cone=cone)
            per_cone = []
            for E in TEST_CATEGORIES:
                verdict = assembled_certificate(other, E)
                assert conical_certificate(other, E) == verdict
                per_cone.append(verdict)
            assert classifier_verdict(other) == all(per_cone)
            verdicts.update(per_cone)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# The weighted certificate.  Both references assemble Fun(C, E) and
# σ-Nat(W, Cat(P-, E)) with their composition tables.  The first is the
# search the certificate replaced: sizes, then any isomorphism between the
# two.  The second is the canonical comparison between them, H ↦ H_*ω and
# μ ↦ μ_*ω built by whiskering with the legs and cells of κ, named by
# name_of_transf and checked by validate_functor.  The search does not read
# the cone, so only the second can judge a cone that is not universal.


def assembled_sides(out, sigma, E):
    fc = functor_category_full(out.category, E)
    target, fcats = hom_into_diagram(out.argument, E)
    h = hom_eps(out.weight, target, sigma_flavor(sigma.arrows))
    return fc, target, fcats, h


def search_certificate(fc, h) -> bool:
    if len(fc.cat.objects) != len(h.cat.objects) or \
            len(fc.cat.arrows) != len(h.cat.arrows):
        return False
    return find_isomorphism(fc.cat, h.cat) is not None


def assembled_weighted_certificate(out, fc, target, fcats, h) -> bool:
    W, kappa, wbase = out.weight, out.conical.cone, out.weight.source
    if len(fc.cat.objects) != len(h.cat.objects) or \
            len(fc.cat.arrows) != len(h.cat.arrows):
        return False

    def leg(A, x):
        return kappa.components[obj_name(x, A)]

    def cell(H, B, name):
        return fcats[B].name_of_transf(
            whisker_functor_nat(H, kappa.structural[name]))

    obj_map, arr_map = {}, {}
    for name, H in fc.functors.items():
        comps = {}
        for A in wbase.objects:
            WA = W.on_obj[A]
            comps[A] = Functor(
                WA, fcats[A].cat,
                {x: fcats[A].name_of_functor(compose_functors(H, leg(A, x)))
                 for x in WA.objects},
                {u: cell(H, A, mor_name(wbase.id1[A], u, x))
                 for u, (x, _) in WA.arrows.items()})
        structural = {}
        for f in wbase.all_one_cells():
            A, B = wbase.src1(f), wbase.tgt1(f)
            WB, Wf = W.on_obj[B], W.on_1[f]
            structural[f] = NatTransf(
                compose_functors(target.on_1[f], comps[A]),
                compose_functors(comps[B], Wf),
                {x: cell(H, B, mor_name(f, WB.identity[Wf.obj_map[x]], x))
                 for x in W.on_obj[A].objects})
        try:
            obj_map[name] = h.name_of_transf(
                Transformation(W, target, comps, structural, h.flavor))
        except KeyError:
            return False
    mod_names = {(h.cat.arrows[n], m.key()): n for n, m in h.mods.items()}
    for name, mu in fc.transfs.items():
        src, tgt = fc.cat.arrows[name]
        key = tuple((A, tuple(sorted(
            (x, fcats[A].name_of_transf(whisker_nat_functor(mu, leg(A, x))))
            for x in W.on_obj[A].objects))) for A in sorted(wbase.objects))
        arr_map[name] = mod_names.get(((obj_map[src], obj_map[tgt]), key))
        if arr_map[name] is None:
            return False
    if len(set(obj_map.values())) != len(obj_map) or \
            len(set(arr_map.values())) != len(arr_map):
        return False
    return validate_functor(Functor(fc.cat, h.cat, obj_map, arr_map)).ok


def weighted_certificate(out, sigma, E, budget=None) -> bool:
    meter = Meter(budget)
    return certify_weighted(out, sigma, E, functor_homs(out.category, E, meter), meter)


def weighted_classifier_verdict(out, sigma) -> bool:
    """Whether the functor Cl_W(W, P, Σ) → V that the conical cone under P·π
    induces is an isomorphism onto the cone's vertex V."""
    cone = out.conical.cone
    cl = _weighted_classifier(out.weight, out.argument, sigma.arrows, cone)
    return presents(cl.presentation(), cl.obj_image, cl.gen_image, cone.vertex)


OP_ARROW = weight_on_op_arrow().source
WEIGHTED = {
    f"{wname}-{pname}-{mark}": (mkW, mkP, marking)
    for wname, mkW in (("weight_on_op_arrow", weight_on_op_arrow),
                       ("repr0", lambda: representable(OP_ARROW, "0")),
                       ("repr1", lambda: representable(OP_ARROW, "1")),
                       ("terminal", weight_constant_terminal_op))
    for pname, mkP in (("pick0", diagram_pick0), ("collapse", diagram_collapse))
    for mark, marking in (("ids", wide_identities), ("all", wide_all))
}

# Out of the references' reach: Fun(C, idempotent) for this case has 2,240
# arrows, and assembling it alone takes 292,257 ticks, past the default
# budget.  There the certificate runs alone and must hold.
REFERENCE_OVER_BUDGET = {("weight_on_op_arrow-pick0-ids", 5)}


def weighted_colimit(case):
    mkW, mkP, marking = WEIGHTED[case]
    P = mkP()
    sigma = marking(P.source)
    return weighted_sigma_colimit(mkW(), P, sigma), sigma


@pytest.mark.parametrize("case", sorted(WEIGHTED))
def test_weighted_certificate_matches_the_search_it_replaced(case):
    """On the universal cocone all three hold: the search against the
    test family, the assembled canonical comparison against the test
    family, Z2 and the idempotent."""
    out, sigma = weighted_colimit(case)
    assert out.certificate == out.conical.certificate == [("classifier", True)]
    assert weighted_classifier_verdict(out, sigma)
    for k, E in enumerate(TEST_CATEGORIES):
        assert weighted_certificate(out, sigma, E)
        if (case, k) in REFERENCE_OVER_BUDGET:
            continue
        fc, target, fcats, h = assembled_sides(out, sigma, E)
        assert assembled_weighted_certificate(out, fc, target, fcats, h)
        if k < len(default_test_family()):
            assert search_certificate(fc, h)


def pair_over_point():
    """The terminal weight and the discrete pair over the point: C is the
    pair itself, with two components."""
    point = terminal_2cat()
    return (weighted_sigma_colimit(
        constant_diagram(op_dual(point), terminal_category()),
        constant_diagram(point, discrete_category(["x", "y"])),
        wide_all(point)), wide_all(point))


def constant_weighted_cone(out):
    """κ followed by the constant endofunctor of C at its least object."""
    C, kappa = out.category, out.conical.cone
    c = min(C.objects)
    K = Functor(C, C, {o: c for o in C.objects}, {a: C.identity[c] for a in C.arrows})
    cone = dataclasses.replace(
        kappa,
        components={A: compose_functors(K, k) for A, k in kappa.components.items()},
        structural={f: whisker_functor_nat(K, n) for f, n in kappa.structural.items()})
    assert check_sigma_cone(cone).ok
    return dataclasses.replace(out, conical=dataclasses.replace(out.conical, cone=cone))


@pytest.mark.parametrize("case", ["weight_on_op_arrow-pick0-all", "pair-over-point"])
def test_weighted_certificate_rejects_a_constant_cone(case):
    """With the legs sent to one object of C, which has at least two, the
    certificate agrees with the assembled canonical comparison against
    every test category.  Against iso_pair both reject: each functor
    C → iso_pair gives a cocone that only sees its value at one object, so
    composition is not injective on objects; the conical certificate of
    the same cone rejects too.  The search does not read the cone, so it
    still finds C to be the colimit.  Against Z2 the pair over the point is
    bijective on objects, with hom-sets of equal sizes, but not injective
    on them: C has two components and the cone sees one."""
    out, sigma = weighted_colimit(case) if case in WEIGHTED else pair_over_point()
    assert len(out.category.objects) >= 2
    other = constant_weighted_cone(out)
    verdicts = []
    for E in TEST_CATEGORIES:
        verdict = assembled_weighted_certificate(other, *assembled_sides(other, sigma, E))
        assert weighted_certificate(other, sigma, E) == verdict
        verdicts.append(verdict)
    assert not weighted_classifier_verdict(other, sigma)
    assert not classifier_verdict(other.conical)
    iso_pair = TEST_CATEGORIES[2]
    assert verdicts[2] is False
    assert not conical_certificate(other.conical, iso_pair)
    fc, _, _, h = assembled_sides(other, sigma, iso_pair)
    assert search_certificate(fc, h)
    if case == "pair-over-point":
        assert verdicts[4] is False  # Z2


@pytest.mark.parametrize("case", sorted(
    c for c in WEIGHTED if not c.startswith("weight_on_op_arrow")))
def test_weighted_certificate_matches_the_assembled_comparison_on_every_cone(case):
    """Every cone under P·π with vertex 1 or the idempotent, put in place of
    the universal one: the certificate agrees with the assembled canonical
    comparison on each, and the weighted classifier accepts the cone
    exactly when both accept it against every test category.  The
    weight_on_op_arrow cases are left to the tests above; their cones take
    seconds here."""
    out, sigma = weighted_colimit(case)
    Q, marked = out.conical.diagram, out.conical.marked
    verdicts = set()
    for V in (terminal_category(), idempotent_category()):
        for cone in cones_sigma(Q, marked, V).cones.values():
            other = dataclasses.replace(
                out, conical=dataclasses.replace(out.conical, category=V, cone=cone))
            per_cone = []
            for E in TEST_CATEGORIES:
                verdict = assembled_weighted_certificate(
                    other, *assembled_sides(other, sigma, E))
                assert weighted_certificate(other, sigma, E) == verdict
                per_cone.append(verdict)
            assert weighted_classifier_verdict(other, sigma) == all(per_cone)
            verdicts.update(per_cone)
    assert verdicts == {True, False}


# Diagrams whose values are not thin, so that the composition of each
# value, and not only the 1-cells of the base, shapes the classifier:
# constant diagrams at ℤ/2 and at the idempotent monoid, and weighted
# colimits with ℤ/2 as a weight or as a value, over bases with a composite
# 1-cell (the 3-chain) and with a 2-cell (two parallel 1-cells u ⇒ v).
NON_THIN_BASES = {"arrow": arrow_2cat, "chain3": lambda: chain_2cat(3),
                  "free2cell": free_2cell_2cat}
NON_THIN_VALUES = {"z2": group_z2_category, "idempotent": idempotent_category}
MARKINGS = {"ids": wide_identities, "all": wide_all}


@pytest.mark.parametrize("base", sorted(NON_THIN_BASES))
@pytest.mark.parametrize("value", sorted(NON_THIN_VALUES))
@pytest.mark.parametrize("mark", sorted(MARKINGS))
def test_classifier_on_non_thin_values_matches_the_reference(base, value, mark):
    a = NON_THIN_BASES[base]()
    result = conical_sigma_colimit(constant_diagram(a, NON_THIN_VALUES[value]()),
                                   MARKINGS[mark](a))
    assert result.certificate == [("classifier", True)]
    assert all(conical_certificate(result, E) for E in TEST_CATEGORIES)


@pytest.mark.parametrize("base", sorted(NON_THIN_BASES))
@pytest.mark.parametrize("which", ["weight", "value"])
@pytest.mark.parametrize("mark", sorted(MARKINGS))
def test_weighted_classifier_on_non_thin_values_matches_the_reference(base, which,
                                                                      mark):
    """ℤ/2 as the weight, with the arrow as the value, or the other way.
    The reference runs against each test category where it fits a small
    budget."""
    a = NON_THIN_BASES[base]()
    z2, arrow = group_z2_category(), arrow_category()
    W = constant_diagram(op_dual(a), z2 if which == "weight" else arrow)
    P = constant_diagram(a, arrow if which == "weight" else z2)
    sigma = MARKINGS[mark](a)
    out = weighted_sigma_colimit(W, P, sigma)
    assert out.certificate == out.conical.certificate == [("classifier", True)]
    checked = 0
    for E in TEST_CATEGORIES:
        try:
            assert weighted_certificate(out, sigma, E, budget=5_000)
        except SizeLimitExceeded:
            continue  # the reference does not fit a small budget here
        checked += 1
    assert checked >= 1


# ---------------------------------------------------------------------------
# Cones and cocones inside a finite 2-category


def cell_product(a, sh, pools, source_of):
    """Every choice of legs from ``pools`` with every choice of 2-cells
    source_of(u, legs) ⇒ (the leg at the far end of u) at every 1-cell u."""
    objs = sorted(sh.objects)
    cells = sh.all_one_cells()
    for combo in itertools.product(*pools):
        comp = dict(zip(objs, combo))
        for st in itertools.product(*(a.two_cells_between(*source_of(u, comp))
                                      for u in cells)):
            yield comp, dict(zip(cells, st))


def brute_base_cones(D, marked, vertex) -> list:
    """Every cone check_base_cone accepts, in the enumerator's order."""
    sh, a = D.source, D.target
    pools = [a.one_cells(vertex, D.obj_map[i]) for i in sorted(sh.objects)]
    found = [(comp, st) for comp, st in cell_product(
                 a, sh, pools, lambda u, comp: (a.hcomp1[(D.map1[u], comp[sh.src1(u)])],
                                                comp[sh.tgt1(u)]))
             if check_base_cone(BaseCone(sh, D, marked, vertex, comp, st)).ok]
    return sorted(found, key=lambda cs: (sorted(cs[0].items()), sorted(cs[1].items())))


def cocone_laws_hold(T, marked, comp, st) -> bool:
    """A cocone with legs D(i) → E and cells t_j∘D(u) ⇒ t_i: identities at
    identity 1-cells, invertible at marked ones, LN2 and LN1."""
    sh, a = T.source, T.target
    for i in sh.objects:
        if st[sh.id1[i]] != a.id2(comp[i]):
            return False
    for u in marked:
        if not a.is_invertible_2cell(st[u]):
            return False
    for x in sh.all_two_cells():
        u, v = sh.src2(x), sh.tgt2(x)
        j = sh.tgt1(u)
        if st[u] != a.vcomp(st[v], a.hcomp2[(a.id2(comp[j]), T.map2[x])]):
            return False
    for (v, u), vu in sh.hcomp1.items():
        if st[vu] != a.vcomp(st[u], a.hcomp2[(st[v], a.id2(T.map1[u]))]):
            return False
    return True


def brute_cocones(sd, E, legs=None) -> list:
    """Every cocone under sd with vertex E, legs drawn from ``legs`` if
    given, in the enumerator's order."""
    T = sd.diagram
    sh, a = T.source, T.target
    pools = [[t for t in a.one_cells(T.obj_map[i], E) if legs is None or t in legs]
             for i in sorted(sh.objects)]
    found = [(comp, st) for comp, st in cell_product(
                 a, sh, pools, lambda u, comp: (a.hcomp1[(comp[sh.tgt1(u)], T.map1[u])],
                                                comp[sh.src1(u)]))
             if cocone_laws_hold(T, sd.marked, comp, st)]
    return sorted(found, key=lambda cs: (sorted(cs[0].items()), sorted(cs[1].items())))


def base_square(D, s1, s2, rho) -> bool:
    """ρ_j ∘ σ1_u = σ2_u ∘ (D(u)*ρ_i) at every 1-cell u : i → j."""
    sh, a = D.source, D.target
    return all(a.vcomp(rho[sh.tgt1(u)], s1[u]) ==
               a.vcomp(s2[u], a.hcomp2[(a.id2(D.map1[u]), rho[sh.src1(u)])])
               for u in sh.all_one_cells())


def cocone_square(T, s1, s2, rho) -> bool:
    """ρ_i ∘ σ1_u = σ2_u ∘ (ρ_j*T(u)) at every 1-cell u : i → j."""
    sh, a = T.source, T.target
    return all(a.vcomp(rho[sh.src1(u)], s1[u]) ==
               a.vcomp(s2[u], a.hcomp2[(rho[sh.tgt1(u)], a.id2(T.map1[u]))])
               for u in sh.all_one_cells())


def brute_morphisms(a, objs, c1, c2, square) -> list:
    """Every family of 2-cells between the legs of c1 and c2, in product
    order, that ``square`` accepts, as sorted (object, 2-cell) pairs."""
    out = []
    for combo in itertools.product(*(a.two_cells_between(c1[0][o], c2[0][o])
                                     for o in objs)):
        rho = dict(zip(objs, combo))
        if square(c1[1], c2[1], rho):
            out.append(sorted(rho.items()))
    return out


def assert_cone_category(cat, cones, a, objs, brute, square, prefixes):
    """The cones equal ``brute``, in order, and the category equals the
    one assembled from them and their brute-force morphisms, composed
    componentwise.  Returns the reference's morphism of each arrow."""
    assert list(cones.values()) == brute
    homs = {(i, j): brute_morphisms(a, objs, c1, c2, square)
            for i, c1 in enumerate(brute) for j, c2 in enumerate(brute)}
    ref, ref_data = assemble_category(
        len(brute), prefixes, homs,
        lambda rho: all(a.is_identity_2cell(x) for _, x in rho), tuple,
        lambda r2, r1: tuple((o, a.vcomp(dict(r2)[o], x)) for o, x in r1))
    assert cat == ref
    return ref_data


def suspension(M):
    """One object X and one 1-cell, whose 2-cells are the arrows of the
    commutative one-object category M under both compositions, so that
    every hom of cells is non-thin."""
    return mk_fin2cat(("X",), {("X", "X"): M}, {"X": "*"}, {("*", "*"): "*"},
                      dict(M.compose))


def collapse(shape, M, cells=(), to="e"):
    """The 2-functor collapsing ``shape`` onto the suspension of M, sending
    the 2-cells in ``cells`` to ``to`` and every other 2-cell to e."""
    D = TwoFunctor(shape, suspension(M), {A: "X" for A in shape.objects},
                   {u: "*" for u in shape.all_one_cells()},
                   {x: to if x in cells else "e" for x in shape.all_two_cells()})
    assert validate_twofunctor(D).ok
    return D


def free2cell_marked():
    return dict((l, mm) for l, mm, _ in marked_fixtures())["free2cell/ids+v"]


def two_cells_marked():
    a = parallel_2cells_2cat(("th", "et"))
    return Marked2Cat(a, wide_from(a, ["v"]))


BASE_DIAGRAMS = {
    "diamond-biproduct-a-b": lambda: (
        shape_diagram_1(Marked2Cat(diamond_2cat(), wide_all(diamond_2cat())),
                        "a", "b").diagram, frozenset()),
    "diamond-biequalizer": lambda: (
        shape_diagram_2(Marked2Cat(diamond_2cat(), wide_all(diamond_2cat())),
                        "bot<a", "bot<a").diagram, frozenset({"u", "v"})),
    "free2cell-inserter-v": lambda: (
        shape_diagram_2(free2cell_marked(), "u", "v").diagram, frozenset({"v"})),
    "free2cell-identity-lax": lambda: (
        identity_twofunctor(free_2cell_2cat()), frozenset()),
    "free2cell-identity-v": lambda: (
        identity_twofunctor(free_2cell_2cat()), frozenset({"v"})),
    "two-cells-th-th": lambda: (
        shape_diagram_3(two_cells_marked(), "u", "v", "th", "th").diagram,
        frozenset({"v"})),
    "z2-free2cell": lambda: (
        collapse(free_2cell_2cat(), group_z2_category(), {"th"}, "s"), frozenset()),
    "z2-chain3": lambda: (
        collapse(chain3_2cat(), group_z2_category()), frozenset({"a<b"})),
    "idempotent-free2cell-v": lambda: (
        collapse(free_2cell_2cat(), idempotent_category(), {"th"}, "z"),
        frozenset({"v"})),
}


@pytest.mark.parametrize("case", sorted(BASE_DIAGRAMS))
def test_base_cone_category_matches_the_brute_force_reference(case):
    D, marked = BASE_DIAGRAMS[case]()
    a = D.target
    objs = sorted(D.source.objects)
    seen = 0
    for X in sorted(a.objects):
        cat, cones, data = base_cone_category(D, marked, X)
        seen += len(cat.arrows)
        ref_data = assert_cone_category(
            cat, {n: (c.comp, c.struct) for n, c in cones.items()}, a, objs,
            brute_base_cones(D, marked, X),
            lambda s1, s2, rho: base_square(D, s1, s2, rho), ("k", "q"))
        assert {n: sorted(rho.items()) for n, rho in data.items()} == ref_data
    assert seen


def fully_marked(sd):
    a = sd.diagram.target
    return Marked2Cat(a, wide_all(a)), sd


SHAPES = {
    "free2cell-pair": lambda: (free2cell_marked(),
                               shape_diagram_1(free2cell_marked(), "a", "b")),
    "free2cell-parallel": lambda: (free2cell_marked(),
                                   shape_diagram_2(free2cell_marked(), "u", "v")),
    "free2cell-two-cells": lambda: (free2cell_marked(), shape_diagram_3(
        free2cell_marked(), "u", "v", "th", "th")),
    "free2cell-identity": lambda: (free2cell_marked(), ShapeDiagram(
        free_2cell_2cat(), identity_twofunctor(free_2cell_2cat()), frozenset({"v"}))),
    "two-cells-th-th": lambda: (two_cells_marked(), shape_diagram_3(
        two_cells_marked(), "u", "v", "th", "th")),
    "z2-free2cell": lambda: fully_marked(ShapeDiagram(
        free_2cell_2cat(), collapse(free_2cell_2cat(), group_z2_category(), {"th"}, "s"),
        frozenset())),
    "z2-chain3": lambda: fully_marked(ShapeDiagram(
        chain3_2cat(), collapse(chain3_2cat(), group_z2_category()),
        frozenset({"b<c"}))),
    "idempotent-free2cell-v": lambda: fully_marked(ShapeDiagram(
        free_2cell_2cat(), collapse(free_2cell_2cat(), idempotent_category(), {"th"}, "z"),
        frozenset({"v"}))),
}


@pytest.mark.parametrize("case", sorted(SHAPES))
def test_cocone_category_matches_the_brute_force_reference(case):
    m, sd = SHAPES[case]()
    a = sd.diagram.target
    seen = 0
    for E in sorted(a.objects):
        cat, cones = cocone_category(sd, E)
        seen += len(cat.arrows)
        assert_cone_category(cat, cones, a, sorted(sd.shape.objects),
                             brute_cocones(sd, E),
                             lambda s1, s2, rho: cocone_square(sd.diagram, s1, s2, rho),
                             ("k", "q"))
    assert seen


@pytest.mark.parametrize("case", sorted(SHAPES))
def test_cone_existence_is_the_first_brute_force_cocone(case):
    m, sd = SHAPES[case]()
    first = None
    for E in sorted(sd.diagram.target.objects):
        found = brute_cocones(sd, E, legs=m.sigma.arrows)
        if found:
            first = (E, *found[0])
            break
    assert cone_existence(sd, m.sigma) == first


# ---------------------------------------------------------------------------
# The bilimit test and search against assembled categories


def assembled_is_bilimit(c: BaseCone, cats=None) -> bool:
    """The cone's laws, then at every object X precomposition with the
    cone, hom(X, vertex) → Cones_D(X), as a functor into
    ``base_cone_category``: it must be a functor (``validate_functor``)
    and an equivalence (``is_equivalence``).  ``cats`` keeps the cone
    categories by X between calls over one diagram."""
    if not check_base_cone(c).ok:
        return False
    sh, amb = c.shape, c.diagram.target
    cats = {} if cats is None else cats
    for X in amb.objects:
        if X not in cats:
            cats[X] = base_cone_category(c.diagram, c.marked, X)
        cat, cones, data = cats[X]
        objects = {(tuple(sorted(k.comp.items())), tuple(sorted(k.struct.items()))): n
                   for n, k in cones.items()}
        arrows = {(*cat.arrows[n], tuple(sorted(rho.items()))): n
                  for n, rho in data.items()}
        hom_cat = amb.hom[(X, c.vertex)]
        obj_map = {}
        for t in hom_cat.objects:
            key = (tuple(sorted((i, amb.hcomp1[(c.comp[i], t)]) for i in sh.objects)),
                   tuple(sorted((u, amb.hcomp2[(c.struct[u], amb.id2(t))])
                                for u in sh.all_one_cells())))
            if key not in objects:
                return False
            obj_map[t] = objects[key]
        arr_map = {}
        for a, (s, t) in hom_cat.arrows.items():
            key = (obj_map[s], obj_map[t],
                   tuple(sorted((i, amb.hcomp2[(amb.id2(c.comp[i]), a)])
                                for i in sh.objects)))
            if key not in arrows:
                return False
            arr_map[a] = arrows[key]
        F = Functor(hom_cat, cat, obj_map, arr_map)
        if not validate_functor(F).ok or not is_equivalence(F).verdict:
            return False
    return True


def z2_2cat():
    """One object whose 1-cells form ℤ/2: both cones over the biequalizer
    of a 1-cell with itself, with legs e and s, are bilimits, so the
    search must return the first one the kernel generates."""
    return two_cat_from_cat(group_z2_category())


BILIMIT_BASES = [diamond_2cat, free_2cell_2cat, arrow_2cat, z2_2cat]


def every_cone(a):
    """Every cone of every Cones_D(L) of every generating diagram in a, in
    the search's order, with its diagram's shared cone categories and the
    dict ``assembled_is_bilimit`` keeps its assembled ones in."""
    for _, D, marked in generating_diagrams(a):
        over, cats = BaseConeCategories(D, marked), {}
        for L in sorted(a.objects):
            for cone in over.cones(L):
                yield over, cats, cone


def every_cone_verdict(a) -> list:
    """Per cone of ``every_cone(a)``: the bilimit test on hom-sets over the
    shared cone categories, the same after ``check_base_cone`` over cone
    categories built afresh, and the assembled test."""
    return [(over.is_bilimit(cone),
             check_base_cone(cone).ok and
             BaseConeCategories(cone.diagram, cone.marked).is_bilimit(cone),
             assembled_is_bilimit(cone, cats)) for over, cats, cone in every_cone(a)]


def assert_verdicts_agree(rows) -> None:
    assert [(shared, fresh) for shared, fresh, _ in rows] == \
        [(want, want) for *_, want in rows]


def grid_2cat(m, n):
    objs = [f"g{i}_{j}" for i in range(m) for j in range(n)]
    rels = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(m - 1) for j in range(n)]
    rels += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(m) for j in range(n - 1)]
    return two_cat_from_cat(poset_category(objs, rels))


# The bases whose left exactness the benchmark decides.
EXACT_BASES = {"chain2": lambda: chain_2cat(2), "chain4": lambda: chain_2cat(4),
               "chain8": lambda: chain_2cat(8), "grid2x2": lambda: grid_2cat(2, 2),
               "grid3x3": lambda: grid_2cat(3, 3), "diamond": diamond_2cat}


@pytest.mark.parametrize("name", sorted(EXACT_BASES))
def test_every_cone_the_bilimit_search_walks_passes_check_base_cone(name):
    """``generate_bilimit_cones`` tests the cones of ``BaseConeCategories``
    without ``check_base_cone``, since the kernel has decided their laws:
    every cone it can walk must pass the reference validator."""
    cones = [cone for _, _, cone in every_cone(EXACT_BASES[name]())]
    assert cones
    assert all(check_base_cone(cone).ok for cone in cones)


@pytest.mark.parametrize("base", BILIMIT_BASES)
def test_bilimit_test_matches_the_assembled_one_on_every_cone(base):
    rows = every_cone_verdict(base())
    assert_verdicts_agree(rows)
    assert {want for *_, want in rows} == {True, False}


@settings(derandomize=True, max_examples=20, deadline=None)
@given(c=posets(5))
def test_bilimit_test_matches_the_assembled_one_on_posets(c):
    assert_verdicts_agree(every_cone_verdict(two_cat_from_cat(c)))


def preservation_diagrams(a) -> list:
    """Every representable of a, then Δ of the terminal category, the
    discrete pair, the walking arrow, ℤ/2 and the idempotent monoid."""
    return [representable(a, X) for X in sorted(a.objects)] + \
        [constant_diagram(a, c) for c in (
            terminal_category(), discrete_category(["x", "y"]), arrow_category(),
            group_z2_category(), idempotent_category())]


def assert_preservation_agrees(P, cone) -> bool:
    got = preserves_bilimit(P, cone)
    assert got == is_equivalence(comparison_functor(P, cone)[0]).verdict
    return got


@pytest.mark.parametrize("base", BILIMIT_BASES)
def test_preservation_matches_the_assembled_comparison(base):
    """``preservation_diagrams`` against every cone of every Cones_D(L) of
    the generating diagrams.  The representable a(X, -) preserves a cone
    exactly when precomposition hom(X, L) → Cones_D(X) is an equivalence,
    so the cones that every representable preserves are the bilimit
    cones."""
    a = base()
    objs = sorted(a.objects)
    diagrams = preservation_diagrams(a)
    verdicts = set()
    for over, _, cone in every_cone(a):
        got = [assert_preservation_agrees(P, cone) for P in diagrams]
        assert all(got[:len(objs)]) == over.is_bilimit(cone)
        verdicts.update(got)
    assert verdicts == {True, False}


def poset_2cat(objs, covers):
    return two_cat_from_cat(poset_category(objs, covers))


def chain_2cat(n):
    objs = [f"c{i}" for i in range(n)]
    return poset_2cat(objs, list(zip(objs, objs[1:])))


def grid_2cat(m, n):
    objs = [f"g{i}_{j}" for i in range(m) for j in range(n)]
    covers = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(m - 1) for j in range(n)]
    covers += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(m) for j in range(n - 1)]
    return poset_2cat(objs, covers)


@pytest.mark.parametrize("base", [
    lambda: chain_2cat(2), lambda: chain_2cat(4), lambda: chain_2cat(8),
    lambda: grid_2cat(2, 2), lambda: grid_2cat(3, 3), diamond_2cat],
    ids=["chain2", "chain4", "chain8", "grid2x2", "grid3x3", "diamond"])
def test_preservation_of_the_generated_cones_matches_the_assembled_comparison(base):
    """``preservation_diagrams`` against the bilimit cones
    ``generate_bilimit_cones`` finds in chains, grids and the diamond."""
    a = base()
    diagrams = preservation_diagrams(a)
    verdicts = {assert_preservation_agrees(P, cone)
                for _, cone in generate_bilimit_cones(a) for P in diagrams}
    assert verdicts == {True, False}


def point_cone_rows(Q, marked) -> tuple:
    """``point_cone_homs`` as sorted cones and, per pair of them, the
    sorted morphisms."""
    cones, hom = point_cone_homs(Q, marked)
    order = sorted(range(len(cones)), key=lambda p: cones[p])
    return ([cones[p] for p in order],
            [[sorted(hom(p, q)) for q in order] for p in order])


def transformation_rows(Q, marked) -> tuple:
    """The σ-transformations Δ1 ⇒ Q and their modifications, the same way,
    each read as the tuples of names ``point_cone_homs`` gives."""
    sh = Q.source
    objs, cells = sorted(sh.objects), sorted(sh.all_one_cells())
    ts = enumerate_transformations(constant_diagram(sh, terminal_category()), Q,
                                   sigma_flavor(marked))
    keys = [(tuple(t.components[i].obj_map["*"] for i in objs),
             tuple(t.structural[u].components["*"] for u in cells)) for t in ts]
    order = sorted(range(len(ts)), key=lambda p: keys[p])
    return ([keys[p] for p in order],
            [[sorted(tuple(m.components[i].components["*"] for i in objs)
                     for m in enumerate_modifications(ts[p], ts[q]))
              for q in order] for p in order])


def z2_constant(value):
    return lambda: constant_diagram(z2_2cat(), value)


POINT_CONE_CASES = {
    # LN1 along c0 < c1 < c2, and invertibility where marked
    "chain3/arrow/none": (lambda: constant_diagram(chain_2cat(3), arrow_category()),
                          frozenset()),
    "chain3/arrow/all": (lambda: constant_diagram(chain_2cat(3), arrow_category()),
                         frozenset({"c0<c1", "c1<c2", "c0<c2"})),
    "chain3/iso_pair/c0<c1": (lambda: constant_diagram(chain_2cat(3),
                                                       iso_pair_category()),
                              frozenset({"c0<c1"})),
    "diamond/arrow/none": (lambda: constant_diagram(diamond_2cat(), arrow_category()),
                           frozenset()),
    "diamond/reprbot/none": (lambda: representable(diamond_2cat(), "bot"), frozenset()),
    # LN1 at s∘s = e: σ_s must square to the identity
    "z2/idempotent/none": (z2_constant(idempotent_category()), frozenset()),
    "z2/z2/all": (z2_constant(group_z2_category()), frozenset({"e", "s"})),
    # LN2 at a 2-cell acting nontrivially
    "free2cell/arrow/none": (lambda: constant_diagram(free_2cell_2cat(),
                                                      arrow_category()), frozenset()),
    "free2cell/iso_pair/u": (lambda: constant_diagram(free_2cell_2cat(),
                                                      iso_pair_category()),
                             frozenset({"u"})),
    "free2cell/diagram/none": (diagram_on_free2cell, frozenset()),
    "free2cell/reprA/none": (lambda: representable(free_2cell_2cat(), "a"),
                             frozenset()),
    "arrow/pick0/all": (diagram_pick0, frozenset({"f"})),
    "arrow/collapse/none": (diagram_collapse, frozenset()),
}


@pytest.mark.parametrize("case", sorted(POINT_CONE_CASES))
def test_point_cones_match_the_transformations_out_of_the_point(case):
    """The σ-cones from the point and their morphisms, read off Q's tables,
    are the σ-transformations Δ1 ⇒ Q and their modifications."""
    diagram, marked = POINT_CONE_CASES[case]
    Q = diagram()
    got = point_cone_rows(Q, marked)
    assert got == transformation_rows(Q, marked)
    assert got[0]


def reference_bilimit_cones(a) -> list:
    """The generating shapes in ``generate_bilimit_cones``' order, each
    searched candidate by candidate: the legs, cells and laws of
    ``bilimit_reference``, then ``assembled_is_bilimit`` on the cone, with
    nothing shared between candidates."""
    full = Marked2Cat(a, wide_all(a))

    def search(D, marked):
        for L in sorted(a.objects):
            for comp, structs in cone_candidates(D, marked, L, Meter()):
                hold = cone_laws(D, comp)
                for struct in structs:
                    if hold(struct):
                        cone = BaseCone(D.source, D, marked, L, comp, struct)
                        if assembled_is_bilimit(cone):
                            return cone
        return None

    searches = [("biterminal", TwoFunctor(BITERMINAL, a, {}, {}, {}), frozenset())]
    searches += [(f"biproduct({C},{D})", shape_diagram_1(full, C, D).diagram,
                  frozenset())
                 for C in sorted(a.objects) for D in sorted(a.objects)]
    for A in sorted(a.objects):
        for B in sorted(a.objects):
            for f in a.one_cells(A, B):
                for g in a.one_cells(A, B):
                    D = shape_diagram_2(full, f, g).diagram
                    searches.append((f"biequalizer({f},{g})", D, frozenset({"u", "v"})))
                    searches.append((f"biinserter({f},{g})", D, frozenset({"v"})))
                    for al in a.two_cells_between(f, g):
                        for be in a.two_cells_between(f, g):
                            searches.append((
                                f"biequifier({al},{be})",
                                shape_diagram_3(full, f, g, al, be).diagram,
                                frozenset({"u", "v"})))
    out = []
    for label, D, marked in searches:
        got = search(D, marked)
        if got is not None:
            out.append((label, got))
    return out


def cone_rows(cones) -> list:
    return [(label, c.vertex, sorted(c.comp.items()), sorted(c.struct.items()),
             sorted(c.marked), sorted(c.diagram.obj_map.items()),
             sorted(c.diagram.map1.items()), sorted(c.diagram.map2.items()))
            for label, c in cones]


@pytest.mark.parametrize("base", BILIMIT_BASES)
def test_bilimit_search_matches_the_per_candidate_loop(base):
    a = base()
    got = cone_rows(generate_bilimit_cones(a))
    assert got
    assert got == cone_rows(reference_bilimit_cones(a))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(c=posets(5))
def test_bilimit_search_matches_the_per_candidate_loop_on_posets(c):
    a = two_cat_from_cat(c)
    assert cone_rows(generate_bilimit_cones(a)) == \
        cone_rows(reference_bilimit_cones(a))
