"""Constructions that nothing in the package calls, kept for the tests.

The tests build with them what they check the package against: the
projections out of a product category, the identity transformation of a
diagram and the composite of two transformations, whose induced
2-functors between 2-categories of elements are compared, the canonical
functor from a category to its localization, a 2-functor between 1-cell
duals, and the chain of inclusions of the four flavours' hom categories.

``assembled_canonical_expression`` and ``assembled_weighted_sigma_colimit``
are the two colimit routes as they ran on an assembled 2-category of
elements: El_P by ``elements_of``, its projection's 1-cell dual
(``dual_twofunctor``), and the diagram composed along it
(``compose_diagram``), the representable A(−, B) taken as
``representable(op_dual(base), B)``.  The package reads the same
colimits off El_P's reader; the tests hold the two to the same
categories, cones and ticks.
"""

from dataclasses import dataclass
from types import SimpleNamespace

from sigmacat.colimits import (WeightedColimitResult, _weighted_classifier,
                               conical_sigma_colimit, induced_from_colimit)
from sigmacat.config import DEFAULT_CAP, Meter
from sigmacat.elements import cart_sigma, elements_of
from sigmacat.errors import ValidationError
from sigmacat.fincat import (FinCat, Functor, ValidationReport, compose_functors, idn,
                             identity_functor, is_equivalence, pair_table, vcomp_nat,
                             whisker_functor_nat, whisker_nat_functor)
from sigmacat.flatness import CanonicalExpression, _comparison_cone, representable
from sigmacat.presented import PresentedCategory
from sigmacat.transforms import (LAX, PSEUDO, STRICT, CatDiagram, Flavor, Transformation,
                                 TwoFunctor, compose_diagram, hom_eps, sigma_flavor)
from sigmacat.two_cat import WideSub, op_dual

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


def dual_twofunctor(T: TwoFunctor) -> TwoFunctor:
    """T between the 1-cell duals of its source and target, same maps; a
    cocone under T is a cone over it."""
    return TwoFunctor(op_dual(T.source), op_dual(T.target), T.obj_map, T.map1, T.map2)


def assembled_canonical_expression(P: CatDiagram, cap: int = DEFAULT_CAP,
                                   meter: Meter | None = None) -> tuple:
    """``flatness.canonical_expression`` on the assembled El_P, with the
    colimit it computed per base object: (the expression, [colimit]).  A
    failed comparison wins over an undecided localization, as there."""
    meter = meter or Meter()
    el = elements_of(P, meter)
    pi = dual_twofunctor(el.projection)
    marked = WideSub(pi.source, el.cart.arrows)
    # what the comparison cone reads of the reader, off the assembled El_P
    read = SimpleNamespace(points=el.points, pairs1=el.pairs1, cart=el.cart.arrows,
                           ends1={m: el.cat.hom_of_1cell(m) for m in el.pairs1})
    per_object, colimits = [], []
    for B in sorted(P.source.objects):
        QB = compose_diagram(representable(pi.target, B), pi)
        colim = conical_sigma_colimit(QB, marked, cap, meter)
        colimits.append(colim)
        if not colim.finite:
            per_object.append((B, "undecided", None))
            continue
        F = induced_from_colimit(colim, _comparison_cone(P, read, QB, B))
        per_object.append((B, "finite", is_equivalence(F).verdict))
    oks = [ok for _, _, ok in per_object]
    verdict = "failed" if False in oks else "undecided" if None in oks else "equivalent"
    return CanonicalExpression(verdict, per_object), colimits


def assembled_weighted_sigma_colimit(W: CatDiagram, P: CatDiagram, sigma: WideSub,
                                     cap: int = DEFAULT_CAP,
                                     meter: Meter | None = None) -> WeightedColimitResult:
    """``colimits.weighted_sigma_colimit`` on the assembled El W: P composed
    along the dual of El W's projection, marked by ``cart_sigma``.  The
    inputs are taken as valid."""
    meter = meter or Meter()
    el_w = elements_of(W, meter)
    marked = cart_sigma(el_w, WideSub(op_dual(P.source), sigma.arrows))
    Q2 = compose_diagram(P, dual_twofunctor(el_w.projection))
    conical = conical_sigma_colimit(Q2, WideSub(Q2.source, marked.arrows), cap, meter)
    out = WeightedColimitResult(conical, W, P, [])
    if conical.finite:
        cl = _weighted_classifier(W, P, sigma.arrows, conical.cone)
        out.certificate = cl.certify(conical.category, cap, meter)
    return out


@dataclass
class InclusionChain:
    homs: dict  # 's'|'p'|'sigma'|'l' -> HomCategory
    functors: dict  # ('s','p') etc -> Functor
    report: ValidationReport


def flavor_inclusions(P: CatDiagram, Q: CatDiagram, sigma: WideSub,
                      meter: Meter | None = None) -> InclusionChain:
    """The chain of full and faithful inclusions s ⊆ p ⊆ sigma ⊆ l.

    Each inclusion is verified object-by-object on the enumerations and
    returned as an injective-on-objects functor.
    """
    meter = meter or Meter()
    rep = ValidationReport("flavor-inclusions")
    flavors = {"s": STRICT, "p": PSEUDO, "sigma": sigma_flavor(sigma), "l": LAX}
    homs = {k: hom_eps(P, Q, fl, meter) for k, fl in flavors.items()}
    keysets = {k: {t.key(): name for name, t in homs[k].transfs.items()}
               for k in flavors}

    functors = {}
    for a, b in (("s", "p"), ("p", "sigma"), ("sigma", "l")):
        obj_map, arr_map = {}, {}
        for name, t in homs[a].transfs.items():
            k = t.key()
            if k not in keysets[b]:
                rep.add("inclusion", (a, b, name),
                        f"{a}-transformation {name} missing from {b}-enumeration")
                continue
            obj_map[name] = keysets[b][k]
        if not rep.ok:
            continue
        ca, cb = homs[a].cat, homs[b].cat
        mods_b = {(cb.src(n), cb.tgt(n), homs[b].mods[n].key()): n
                  for n in homs[b].mods}
        for n in ca.arrow_names():
            m = homs[a].mods[n]
            tgt_key = (obj_map[ca.src(n)], obj_map[ca.tgt(n)], m.key())
            if tgt_key not in mods_b:
                rep.add("inclusion-arrow", (a, b, n),
                        f"{a}-modification {n} missing from {b}-enumeration")
                continue
            arr_map[n] = mods_b[tgt_key]
        if rep.ok:
            F = Functor(ca, cb, obj_map, arr_map)
            functors[(a, b)] = F
            if len(set(obj_map.values())) != len(obj_map):
                rep.add("inclusion-injective", (a, b), "inclusion not injective")
            # local fullness and faithfulness
            for x in ca.objects:
                for y in ca.objects:
                    image = {arr_map[v] for v in ca.hom(x, y)}
                    target = set(cb.hom(obj_map[x], obj_map[y]))
                    if len(image) != len(ca.hom(x, y)) or image != target:
                        rep.add("inclusion-ff", (a, b, x, y),
                                "inclusion not locally full and faithful")
    return InclusionChain(homs, functors, rep)
