"""Constructions that nothing in the package calls, kept for the tests.

The tests build with them what they check the package against: the
projections out of a product category, the identity transformation of a
diagram and the composite of two transformations, whose induced
2-functors between 2-categories of elements are compared, and the
canonical functor from a category to its localization.
"""

from sigmacat.errors import ValidationError
from sigmacat.fincat import (FinCat, Functor, compose_functors, idn,
                             identity_functor, pair_table, vcomp_nat,
                             whisker_functor_nat, whisker_nat_functor)
from sigmacat.presented import PresentedCategory
from sigmacat.transforms import STRICT, CatDiagram, Flavor, Transformation

FLAVOR_ORDER = {"s": 0, "p": 1, "sigma": 2, "l": 3}


def product_projections(p: FinCat, c: FinCat, d: FinCat) -> tuple[Functor, Functor]:
    """Projections out of product_category(c, d), read off c's and d's cells."""
    objects = pair_table(c.objects, d.objects)
    arrows = pair_table(c.arrows, d.arrows)
    return (Functor(p, c, {o: x for o, (x, _) in objects.items()},
                    {a: f for a, (f, _) in arrows.items()}),
            Functor(p, d, {o: y for o, (_, y) in objects.items()},
                    {a: g for a, (_, g) in arrows.items()}))


def identity_transformation(P: CatDiagram, flavor: Flavor | None = None) -> Transformation:
    base = P.source
    comps = {A: identity_functor(P.on_obj[A]) for A in base.objects}
    structural = {}
    for f in base.all_one_cells():
        F = P.on_1[f]
        structural[f] = idn(F)
    return Transformation(P, P, comps, structural, flavor or STRICT)


def compose_transformations(t2: Transformation, t1: Transformation) -> Transformation:
    """t2 after t1; structural cells paste in the usual way."""
    base = t1.source.source
    comps = {A: compose_functors(t2.components[A], t1.components[A])
             for A in base.objects}
    structural = {}
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        first = whisker_nat_functor(t2.structural[f], t1.components[A])
        second = whisker_functor_nat(t2.components[B], t1.structural[f])
        structural[f] = vcomp_nat(second, first)
    kind = max(t1.flavor.kind, t2.flavor.kind, key=lambda k: FLAVOR_ORDER[k])
    marked = t1.flavor.marked & t2.flavor.marked if kind == "sigma" else frozenset()
    return Transformation(t1.source, t2.target, comps, structural, Flavor(kind, marked))


def localization_functor(c: FinCat, loc: PresentedCategory) -> tuple[dict, dict]:
    """The canonical functor c -> realization, as object/arrow maps."""
    if not loc.finite:
        raise ValidationError("localization is undecided-at-cap")
    obj_map = {x: x for x in c.objects}
    arr_map = {}
    for a in c.arrows:
        if c.is_identity(a):
            arr_map[a] = f"id_{c.src(a)}"
        else:
            arr_map[a] = loc.normalize(c.src(a), (a,))
    return obj_map, arr_map
