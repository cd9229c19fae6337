"""Weighted limits in Cat, conical colimits via localization, bilimits.

Weighted limits of Cat-valued diagrams are Hom categories, so they are
computed by enumeration.  Conical colimits relative to a marking are
computed by the classical recipe: take the dual elements construction of
the diagram, reverse its 1-cells, collapse each hom to connected
components, and invert the marked cartesian arrows in the category of
fractions.  Whenever the localization stabilizes, a certificate is run:
for every test category E in the configured family, precomposition with
the universal cone must be an isomorphism between functors out of the
realized category and the enumerated cone category.  A certificate
failure is a bug and raises; an unstable localization propagates as an
undecided status, never as a guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .config import DEFAULT_CAP, Meter
from .errors import (CertificateFailure, PreconditionFailed, UndecidedAtCap,
                     ValidationError)
from .fincat import (FinCat, Functor, NatTransf, ValidationReport,
                     arrow_category, compose_functors, enumerate_functors,
                     enumerate_nat_transfs, find_isomorphism,
                     functor_category_full, identity_functor,
                     iso_pair_category, is_equivalence, mk_fincat,
                     nat_is_identity, nat_is_invertible, parallel_pair_category,
                     terminal_category, validate_functor, vcomp_nat,
                     whisker_functor_nat, whisker_nat_functor)
from .two_cat import (Fin2Cat, WideSub, op_dual, pair_name, pi0,
                      pi0_class_map, split_pair_name, two_cat_product)
from .transforms import (CatDiagram, HomCategory, Modification, Transformation,
                         TwoFunctor, Flavor, PSEUDO, STRICT, LAX,
                         check_transformation, compose_diagram,
                         constant_diagram, hom_eps, sigma_flavor)
from .presented import (Presentation, PresentedCategory, base_of_inv, is_inv,
                        localize)
from . import elements as el_mod


def default_test_family() -> list[tuple[str, FinCat]]:
    return [
        ("terminal", terminal_category()),
        ("arrow", arrow_category()),
        ("iso_pair", iso_pair_category()),
        ("parallel_pair", parallel_pair_category()),
    ]


# ---------------------------------------------------------------------------
# Cone categories for Cat-valued diagrams


@dataclass(frozen=True)
class SigmaCone:
    """A cone under a Cat-valued diagram, relative to a marking.

    Components are functors into the vertex; the structural cell at a
    base 1-cell f : A -> B points ``kappa_B ∘ Q(f) ⇒ kappa_A`` and is
    invertible at marked arrows.
    """

    diagram: CatDiagram
    marked: frozenset
    vertex: FinCat
    components: dict  # object -> Functor Q(A) -> vertex
    structural: dict  # 1-cell -> NatTransf

    def key(self) -> tuple:
        return (tuple((A, self.components[A].key()) for A in sorted(self.components)),
                tuple((f, self.structural[f].key()) for f in sorted(self.structural)))


def check_sigma_cone(c: SigmaCone) -> ValidationReport:
    rep = ValidationReport("SigmaCone")
    Q = c.diagram
    base = Q.source
    for A in base.objects:
        k = c.components.get(A)
        if k is None or k.source != Q.on_obj[A] or k.target != c.vertex:
            rep.add("component-typing", (A,), f"component at {A} mistyped")
        elif not validate_functor(k).ok:
            rep.add("component-functor", (A,), f"component at {A} is not a functor")
    if not rep.ok:
        return rep
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        n = c.structural.get(f)
        src = compose_functors(c.components[B], Q.on_1[f])
        tgt = c.components[A]
        if n is None or n.source.key() != src.key() or n.target.key() != tgt.key():
            rep.add("structural-typing", (f,), f"structural cell at {f} mistyped")
        elif not validate_nat_transf_ok(n):
            rep.add("structural-natural", (f,), f"cell at {f} not natural")
    if not rep.ok:
        return rep
    for f in base.all_one_cells():
        if f in c.marked and not nat_is_invertible(c.structural[f]):
            rep.add("invertibility", (f,), f"cell at marked {f} must be invertible")
    for A in base.objects:
        if not nat_is_identity(c.structural[base.id1[A]]):
            rep.add("LN0", (A,), f"identity cell at {A} is not the identity")
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        B = base.tgt1(f)
        lhs = c.structural[f]
        rhs = vcomp_nat(c.structural[g],
                        whisker_functor_nat(c.components[B], Q.on_2[x]))
        if lhs.components != rhs.components:
            rep.add("LN2", (x,), f"2-cell compatibility fails at {x}")
    for (g, f), gf in base.hcomp1.items():
        lhs = c.structural[gf]
        rhs = vcomp_nat(c.structural[f],
                        whisker_nat_functor(c.structural[g], Q.on_1[f]))
        if lhs.components != rhs.components:
            rep.add("LN1", (gf,), f"composition coherence fails at ({g},{f})")
    return rep


def validate_nat_transf_ok(n: NatTransf) -> bool:
    from .fincat import validate_nat_transf
    return validate_nat_transf(n).ok


@dataclass
class ConeCategory:
    cat: FinCat
    cones: dict  # object name -> SigmaCone
    morphisms: dict  # arrow name -> dict of components

    @cached_property
    def _cone_names(self) -> dict:
        out = {}
        for name, d in self.cones.items():
            out.setdefault(d.key(), name)
        return out

    @cached_property
    def _morphism_names(self) -> dict:
        out = {}
        for name, comps in self.morphisms.items():
            src, tgt = self.cat.arrows[name]
            out.setdefault(
                (src, tgt, tuple((A, comps[A].key()) for A in sorted(comps))), name)
        return out

    def name_of_cone(self, c: SigmaCone) -> str:
        try:
            return self._cone_names[c.key()]
        except KeyError:
            raise KeyError("cone is not an object of this cone category") from None

    def name_of_morphism(self, src: str, tgt: str, comps_key) -> str:
        try:
            return self._morphism_names[(src, tgt, comps_key)]
        except KeyError:
            raise KeyError("morphism is not an arrow of this cone category") from None


def cones_sigma(Q: CatDiagram, marked: frozenset, E: FinCat,
                meter: Meter | None = None) -> ConeCategory:
    """The category of marked-relative cones under Q with vertex E."""
    meter = meter or Meter()
    base = Q.source
    objs = sorted(base.objects)
    comp_pools = [enumerate_functors(Q.on_obj[A], E, meter) for A in objs]
    non_id = [f for f in base.all_one_cells() if f not in set(base.id1.values())]
    found = []
    if not any(not p for p in comp_pools):
        for combo in itertools.product(*comp_pools):
            meter.tick()
            comps = dict(zip(objs, combo))
            structural = {}
            for A in objs:
                idA = base.id1[A]
                src = compose_functors(comps[A], Q.on_1[idA])
                structural[idA] = NatTransf(src, comps[A], {
                    x: E.identity[comps[A].obj_map[x]]
                    for x in Q.on_obj[A].objects})
            pools = []
            ok = True
            for f in non_id:
                A, B = base.src1(f), base.tgt1(f)
                src = compose_functors(comps[B], Q.on_1[f])
                pool = enumerate_nat_transfs(src, comps[A], meter)
                if f in marked:
                    pool = [n for n in pool if nat_is_invertible(n)]
                if not pool:
                    ok = False
                    break
                pools.append(pool)
            if not ok:
                continue
            for cells in itertools.product(*pools):
                meter.tick()
                st = dict(structural)
                st.update(dict(zip(non_id, cells)))
                cone = SigmaCone(Q, marked, E, comps, st)
                if _cone_axioms_hold(cone):
                    found.append(cone)
    found.sort(key=lambda c: c.key())
    cname = {i: f"c{i}" for i in range(len(found))}
    arrows, identity, compose = {}, {}, {}
    morphisms = {}
    labels = {}
    counter = 0
    for i, c1 in enumerate(found):
        for j, c2 in enumerate(found):
            for combo in itertools.product(
                    *[enumerate_nat_transfs(c1.components[A], c2.components[A], meter)
                      for A in objs]):
                meter.tick()
                rho = dict(zip(objs, combo))
                if not _cone_morphism_ok(c1, c2, rho):
                    continue
                if i == j and all(nat_is_identity(n) for n in rho.values()):
                    name = f"1_{cname[i]}"
                    identity[cname[i]] = name
                else:
                    name = f"r{counter}"
                    counter += 1
                arrows[name] = (cname[i], cname[j])
                morphisms[name] = rho
                labels[(cname[i], cname[j],
                        tuple((A, rho[A].key()) for A in objs))] = name
    out_of = {}  # cone name -> [(morphism name, its target, components)]
    for n2, rho2 in morphisms.items():
        j, k = arrows[n2]
        out_of.setdefault(j, []).append((n2, k, rho2))
    for n1, rho1 in morphisms.items():
        i, j = arrows[n1]
        for n2, k, rho2 in out_of.get(j, ()):
            comp = {A: vcomp_nat(rho2[A], rho1[A]) for A in objs}
            compose[(n2, n1)] = labels[(i, k, tuple((A, comp[A].key()) for A in objs))]
    cat = mk_fincat([cname[i] for i in range(len(found))], arrows, identity, compose)
    return ConeCategory(cat, {cname[i]: found[i] for i in range(len(found))}, morphisms)


def _cone_axioms_hold(c: SigmaCone) -> bool:
    Q, base = c.diagram, c.diagram.source
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        B = base.tgt1(f)
        rhs = vcomp_nat(c.structural[g],
                        whisker_functor_nat(c.components[B], Q.on_2[x]))
        if c.structural[f].components != rhs.components:
            return False
    for (g, f), gf in base.hcomp1.items():
        rhs = vcomp_nat(c.structural[f],
                        whisker_nat_functor(c.structural[g], Q.on_1[f]))
        if c.structural[gf].components != rhs.components:
            return False
    return True


def _cone_morphism_ok(c1: SigmaCone, c2: SigmaCone, rho: dict) -> bool:
    Q, base = c1.diagram, c1.diagram.source
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        lhs = vcomp_nat(rho[A], c1.structural[f])
        rhs = vcomp_nat(c2.structural[f],
                        whisker_nat_functor(rho[B], Q.on_1[f]))
        if lhs.components != rhs.components:
            return False
    return True


# ---------------------------------------------------------------------------
# Conical colimits via the fractions construction


@dataclass
class ColimitResult:
    diagram: CatDiagram
    marked: frozenset
    presented: PresentedCategory
    category: FinCat | None
    cone: SigmaCone | None
    certificate: list  # (label, bool)

    @property
    def status(self) -> str:
        return self.presented.status

    @property
    def finite(self) -> bool:
        return self.presented.finite


def conical_sigma_colimit(Q: CatDiagram, sigma: WideSub, cap: int = DEFAULT_CAP,
                          meter: Meter | None = None,
                          test_family=None) -> ColimitResult:
    """Conical colimit of a Cat-valued diagram relative to a marking.

    Built from the reversed dual elements construction, components
    collapsed, marked cartesian arrows inverted.  The universal cone
    sends an element x over A to the class of the pair (x, A).
    """
    meter = meter or Meter()
    if Q.is_pseudo:
        raise PreconditionFailed("conical colimits expect a strict diagram")
    test_family = default_test_family() if test_family is None else test_family
    gamma = el_mod.gamma_dual(Q, meter)
    marked_pairs = el_mod.cart_sigma(gamma, sigma)
    gop = op_dual(gamma.cat)
    base_cat = pi0(gop)
    cls = pi0_class_map(gop)
    inverted = {cls[m] for m in marked_pairs.arrows}
    loc = localize(base_cat, inverted, cap, meter)
    result = ColimitResult(Q, frozenset(sigma.arrows), loc, None, None, [])
    if not loc.finite:
        return result
    R = loc.realization
    result.category = R

    def loc_arrow(c_name: str) -> str:
        if base_cat.is_identity(c_name):
            return R.identity[base_cat.src(c_name)]
        return loc.normalize(base_cat.src(c_name), (c_name,))

    base = Q.source
    comps = {}
    structural = {}
    for A in base.objects:
        QA = Q.on_obj[A]
        om = {x: el_mod.obj_name(x, A) for x in QA.objects}
        am = {}
        for arr, (x, y) in QA.arrows.items():
            # the pair (id_A, arr) runs (y,A) -> (x,A) in the dual
            # construction, i.e. (x,A) -> (y,A) after reversal
            nm = el_mod.mor_name(base.id1[A], arr, y)
            am[arr] = loc_arrow(cls[nm])
        comps[A] = Functor(QA, R, om, am)
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        QA, QB = Q.on_obj[A], Q.on_obj[B]
        Qf = Q.on_1[f]
        comp = {}
        for x in QA.objects:
            nm = el_mod.mor_name(f, QB.identity[Qf.obj_map[x]], x)
            comp[x] = loc_arrow(cls[nm])
        src = compose_functors(comps[B], Qf)
        structural[f] = NatTransf(src, comps[A], comp)
    cone = SigmaCone(Q, frozenset(sigma.arrows), R, comps, structural)
    rep = check_sigma_cone(cone)
    if not rep.ok:
        raise CertificateFailure(f"universal cone fails its own laws: "
                                 f"{rep.violations[0].detail}")
    result.cone = cone
    for label, E in test_family:
        ok = _certify_against(result, E, meter)
        result.certificate.append((label, ok))
        if not ok:
            raise CertificateFailure(
                f"colimit universal property fails against test category {label}")
    return result


def _certify_against(result: ColimitResult, E: FinCat, meter: Meter) -> bool:
    """Precomposition with the cone must be an isomorphism of categories."""
    R = result.category
    cone = result.cone
    Q = result.diagram
    base = Q.source
    fc = functor_category_full(R, E, meter)
    cc = cones_sigma(Q, result.marked, E, meter)
    if len(fc.cat.objects) != len(cc.cat.objects) or \
            len(fc.cat.arrows) != len(cc.cat.arrows):
        return False
    obj_map, arr_map = {}, {}
    for name, H in fc.functors.items():
        image = SigmaCone(
            Q, result.marked, E,
            {A: compose_functors(H, cone.components[A]) for A in base.objects},
            {f: whisker_functor_nat(H, cone.structural[f])
             for f in base.all_one_cells()})
        try:
            obj_map[name] = cc.name_of_cone(image)
        except KeyError:
            return False
    if len(set(obj_map.values())) != len(obj_map):
        return False
    for name, mu in fc.transfs.items():
        src, tgt = fc.cat.arrows[name]
        comps = {A: whisker_nat_functor(mu, cone.components[A])
                 for A in base.objects}
        key = tuple((A, comps[A].key()) for A in sorted(comps))
        try:
            arr_map[name] = cc.name_of_morphism(obj_map[src], obj_map[tgt], key)
        except KeyError:
            return False
    if len(set(arr_map.values())) != len(arr_map):
        return False
    F = Functor(fc.cat, cc.cat, obj_map, arr_map)
    return validate_functor(F).ok


def induced_from_colimit(result: ColimitResult, target: SigmaCone,
                         gamma=None, meter: Meter | None = None) -> Functor:
    """The functor out of a realized colimit determined by another cone.

    Marked generators must land on isomorphisms in the target vertex;
    failure to do so, or failure of functoriality on the realization, is
    a certificate failure.
    """
    meter = meter or Meter()
    if not result.finite:
        raise UndecidedAtCap("colimit has no finite realization")
    Q = result.diagram
    base = Q.source
    R = result.category
    E = target.vertex
    gamma = gamma if gamma is not None else el_mod.gamma_dual(Q, meter)
    gop = op_dual(gamma.cat)
    base_cat = pi0(gop)
    cls = pi0_class_map(gop)
    # one representative element pair per component class
    rep_pair = {}
    for nm, (f, phi) in sorted(gamma.pairs1.items()):
        rep_pair.setdefault(cls[nm], (nm, f, phi))

    def image_of_class(c_name: str) -> str:
        nm, f, phi = rep_pair[c_name]
        oa, ob = gamma.cat.hom_of_1cell(nm)
        x, A = el_mod._split_obj(oa)
        y, B = el_mod._split_obj(ob)
        # (f, phi) : (x,A) -> (y,B) in the dual construction reads
        # backwards in the colimit; its image is kappa_f,x ∘ kappa_B(phi)
        k_phi = target.components[B].arr_map[phi]
        k_f = target.structural[f].components[x]
        return E.compose[(k_f, k_phi)]

    obj_map = {}
    for o in R.objects:
        x, A = el_mod._split_obj(o)
        obj_map[o] = target.components[A].obj_map[x]
    arr_map = {}
    for name, (src_obj, word) in result.presented.rep_of_arrow.items():
        cur = E.identity[obj_map[src_obj]]
        for g in word:
            if is_inv(g):
                base_g = base_of_inv(g)
                step = E.inverse(image_of_class(base_g))
                if step is None:
                    raise CertificateFailure(
                        f"marked class {base_g} does not invert in the target")
            else:
                step = image_of_class(g)
            cur = E.compose[(step, cur)]
        arr_map[name] = cur
    F = Functor(R, E, obj_map, arr_map)
    rep = validate_functor(F)
    if not rep.ok:
        raise CertificateFailure(
            f"induced functor is not functorial: {rep.violations[0].detail}")
    return F


# ---------------------------------------------------------------------------
# Weighted colimits via the elements reduction


@dataclass
class WeightedColimitResult:
    conical: ColimitResult
    weight: CatDiagram
    argument: CatDiagram
    certificate: list  # (label, bool)

    @property
    def status(self) -> str:
        return self.conical.status

    @property
    def category(self) -> FinCat | None:
        return self.conical.category


def weighted_sigma_colimit(W: CatDiagram, P: CatDiagram, sigma: WideSub,
                           cap: int = DEFAULT_CAP, meter: Meter | None = None,
                           test_family=None) -> WeightedColimitResult:
    """Weighted colimit reduced to a conical one over the weight's elements.

    The weight lives on the 1-cell dual of the argument's base.  The
    certificate checks the weighted universal property directly: maps
    out of the result correspond to weight-shaped families valued in
    hom categories into each test vertex.
    """
    meter = meter or Meter()
    base = P.source
    opbase = op_dual(base)
    if W.source != opbase:
        raise PreconditionFailed("weight must live on the dual of the base")
    test_family = default_test_family() if test_family is None else test_family
    el_w = el_mod.elements_of(W, meter)
    sigma_op = WideSub(opbase, sigma.arrows)
    marked_el = el_mod.cart_sigma(el_w, sigma_op)
    el_op = op_dual(el_w.cat)
    on_obj, on_1, on_2 = {}, {}, {}
    for o in el_op.objects:
        x, A = el_mod._split_obj(o)
        on_obj[o] = P.on_obj[A]
    for nm, (f, phi) in el_w.pairs1.items():
        on_1[nm] = P.on_1[f]
    for nm, th in el_w.pairs2.items():
        on_2[nm] = P.on_2[th]
    Q2 = CatDiagram(el_op, on_obj, on_1, on_2)
    marked_op = WideSub(el_op, marked_el.arrows)
    # the inner conical certificate runs too: it checks the canonical
    # precomposition map, which is sharper than the search-based weighted
    # certificate below
    conical = conical_sigma_colimit(Q2, marked_op, cap, meter,
                                    test_family=test_family)
    out = WeightedColimitResult(conical, W, P, [])
    if not conical.finite:
        return out
    for label, E in test_family:
        ok = _certify_weighted(out, sigma, E, meter)
        out.certificate.append((label, ok))
        if not ok:
            raise CertificateFailure(
                f"weighted universal property fails against {label}")
    return out


def hom_into_diagram(P: CatDiagram, E: FinCat,
                     meter: Meter | None = None) -> CatDiagram:
    """The diagram Cat(P-, E) on the dual base."""
    meter = meter or Meter()
    base = P.source
    opbase = op_dual(base)
    fcats = {A: functor_category_full(P.on_obj[A], E, meter) for A in base.objects}
    on_obj = {A: fcats[A].cat for A in base.objects}
    on_1 = {}
    for f in base.all_one_cells():
        # f : A -> B in the base is a 1-cell B -> A in the dual
        A, B = base.src1(f), base.tgt1(f)
        om, am = {}, {}
        for hname, h in fcats[B].functors.items():
            om[hname] = fcats[A].name_of_functor(compose_functors(h, P.on_1[f]))
        for nname, n in fcats[B].transfs.items():
            am[nname] = fcats[A].name_of_transf(whisker_nat_functor(n, P.on_1[f]))
        on_1[f] = Functor(fcats[B].cat, fcats[A].cat, om, am)
    on_2 = {}
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        A, B = base.src1(f), base.tgt1(f)
        comps = {}
        for hname, h in fcats[B].functors.items():
            comps[hname] = fcats[A].name_of_transf(
                whisker_functor_nat(h, P.on_2[x]))
        # contravariance flips the direction: x : f => g acts g* => f*
        on_2[x] = NatTransf(on_1[g], on_1[f], comps)
    # in the dual base, 2-cells keep their boundaries, so rebuild typing
    fixed_on_2 = {}
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        fixed_on_2[x] = NatTransf(on_1[f], on_1[g], on_2[x].components)
    return CatDiagram(opbase, on_obj, on_1, fixed_on_2)


def _certify_weighted(out: WeightedColimitResult, sigma: WideSub, E: FinCat,
                      meter: Meter) -> bool:
    C = out.category
    fc = functor_category_full(C, E, meter)
    target = hom_into_diagram(out.argument, E, meter)
    h = hom_eps(out.weight, target, sigma_flavor(sigma.arrows), meter)
    if len(fc.cat.objects) != len(h.cat.objects) or \
            len(fc.cat.arrows) != len(h.cat.arrows):
        return False
    return find_isomorphism(fc.cat, h.cat, meter) is not None


# ---------------------------------------------------------------------------
# Cones and bilimits inside a finite 2-category


@dataclass(frozen=True)
class BaseCone:
    """A marked-relative cone over a diagram in a finite 2-category.

    Components are 1-cells from the vertex to the diagram values and the
    structural cells point ``D(u) ∘ t_i ⇒ t_j``; cells at marked shape
    arrows must be invertible.
    """

    shape: Fin2Cat
    diagram: TwoFunctor  # shape -> ambient
    marked: frozenset  # shape 1-cells
    vertex: str  # object of the ambient
    comp: dict  # shape object -> ambient 1-cell
    struct: dict  # shape 1-cell -> ambient 2-cell


def check_base_cone(c: BaseCone) -> ValidationReport:
    rep = ValidationReport("BaseCone")
    sh, D = c.shape, c.diagram
    amb = D.target
    for i in sh.objects:
        t = c.comp.get(i)
        if t is None or t not in amb._cell1_home or \
                amb.hom_of_1cell(t) != (c.vertex, D.obj_map[i]):
            rep.add("component-typing", (i,), f"component at {i} mistyped")
    if not rep.ok:
        return rep
    for u in sh.all_one_cells():
        i, j = sh.src1(u), sh.tgt1(u)
        cell = c.struct.get(u)
        want_src = amb.hcomp1[(D.map1[u], c.comp[i])]
        if cell is None or cell not in amb._cell2_home or \
                amb.src2(cell) != want_src or amb.tgt2(cell) != c.comp[j]:
            rep.add("structural-typing", (u,), f"cell at {u} mistyped")
    if not rep.ok:
        return rep
    for u in sh.all_one_cells():
        if u in c.marked and not amb.is_invertible_2cell(c.struct[u]):
            rep.add("invertibility", (u,), f"cell at marked {u} must be invertible")
    for i in sh.objects:
        if c.struct[sh.id1[i]] != amb.id2(c.comp[i]):
            rep.add("LN0", (i,), f"identity cell at {i} is not the identity")
    for x in sh.all_two_cells():
        u, v = sh.src2(x), sh.tgt2(x)
        i = sh.src1(u)
        lhs = c.struct[u]
        rhs = amb.vcomp(c.struct[v],
                        amb.hcomp2[(D.map2[x], amb.id2(c.comp[i]))])
        if lhs != rhs:
            rep.add("LN2", (x,), f"2-cell compatibility fails at {x}")
    for (v, u), vu in sh.hcomp1.items():
        i = sh.src1(u)
        j = sh.tgt1(u)
        inner = amb.hcomp2[(amb.id2(D.map1[v]), c.struct[u])]
        lhs = c.struct[vu]
        rhs = amb.vcomp(c.struct[v], inner)
        if lhs != rhs:
            rep.add("LN1", (vu,), f"composition coherence fails at ({v},{u})")
    return rep


def base_cone_category(D: TwoFunctor, marked: frozenset, vertex: str,
                       meter: Meter | None = None):
    """All marked-relative cones over D with the given vertex, as a FinCat.

    Arrows are families of 2-cells between components satisfying the
    modification square.  Returns (category, cones by name).
    """
    meter = meter or Meter()
    sh, amb = D.source, D.target
    objs = sorted(sh.objects)
    non_id = [u for u in sh.all_one_cells() if u not in set(sh.id1.values())]
    pools = [amb.one_cells(vertex, D.obj_map[i]) for i in objs]
    found = []
    if not any(not p for p in pools):
        for combo in itertools.product(*pools):
            meter.tick()
            comp = dict(zip(objs, combo))
            cell_pools = []
            ok = True
            for u in non_id:
                i, j = sh.src1(u), sh.tgt1(u)
                src = amb.hcomp1[(D.map1[u], comp[i])]
                pool = amb.two_cells_between(src, comp[j])
                if u in marked:
                    pool = [x for x in pool if amb.is_invertible_2cell(x)]
                if not pool:
                    ok = False
                    break
                cell_pools.append(pool)
            if not ok:
                continue
            for cells in itertools.product(*cell_pools):
                meter.tick()
                struct = {sh.id1[i]: amb.id2(comp[i]) for i in objs}
                struct.update(dict(zip(non_id, cells)))
                cone = BaseCone(sh, D, marked, vertex, comp, struct)
                if check_base_cone(cone).ok:
                    found.append(cone)
    found.sort(key=lambda c: (tuple(sorted(c.comp.items())),
                              tuple(sorted(c.struct.items()))))
    cname = {i: f"k{i}" for i in range(len(found))}
    arrows, identity, compose = {}, {}, {}
    data = {}
    labels = {}
    counter = 0
    for i, c1 in enumerate(found):
        for j, c2 in enumerate(found):
            pools = [amb.two_cells_between(c1.comp[o], c2.comp[o]) for o in objs]
            for combo in itertools.product(*pools):
                meter.tick()
                rho = dict(zip(objs, combo))
                if not _base_cone_morphism_ok(c1, c2, rho):
                    continue
                if i == j and all(amb.is_identity_2cell(x) for x in rho.values()):
                    name = f"1_{cname[i]}"
                    identity[cname[i]] = name
                else:
                    name = f"q{counter}"
                    counter += 1
                arrows[name] = (cname[i], cname[j])
                data[name] = rho
                labels[(cname[i], cname[j], tuple(sorted(rho.items())))] = name
    for n1, rho1 in data.items():
        i, j = arrows[n1]
        for n2, rho2 in data.items():
            j2, k = arrows[n2]
            if j2 != j:
                continue
            comp = {o: amb.vcomp(rho2[o], rho1[o]) for o in objs}
            compose[(n2, n1)] = labels[(i, k, tuple(sorted(comp.items())))]
    cat = mk_fincat([cname[i] for i in range(len(found))], arrows, identity, compose)
    return cat, {cname[i]: found[i] for i in range(len(found))}, data


def _base_cone_morphism_ok(c1: BaseCone, c2: BaseCone, rho: dict) -> bool:
    sh, D = c1.shape, c1.diagram
    amb = D.target
    for u in sh.all_one_cells():
        i, j = sh.src1(u), sh.tgt1(u)
        lhs = amb.vcomp(rho[j], c1.struct[u])
        rhs = amb.vcomp(c2.struct[u], amb.hcomp2[(amb.id2(D.map1[u]), rho[i])])
        if lhs != rhs:
            return False
    return True


def is_bilimit_cone(c: BaseCone, meter: Meter | None = None) -> bool:
    """Bilimit test: precomposition is an equivalence at every vertex.

    The comparison from the ambient hom category at each object into the
    cone category must be an equivalence, never an isomorphism;
    equivalent bilimits need not be isomorphic.
    """
    meter = meter or Meter()
    sh, D = c.shape, c.diagram
    amb = D.target
    if not check_base_cone(c).ok:
        return False
    for X in amb.objects:
        cc_cat, cones, data = base_cone_category(D, c.marked, X, meter)
        hom_cat = amb.hom[(X, c.vertex)]
        lookup = {}
        for name, cone in cones.items():
            lookup[(tuple(sorted(cone.comp.items())),
                    tuple(sorted(cone.struct.items())))] = name
        obj_map = {}
        for t in hom_cat.objects:
            comp = {i: amb.hcomp1[(c.comp[i], t)] for i in sh.objects}
            struct = {u: amb.hcomp2[(c.struct[u], amb.id2(t))]
                      for u in sh.all_one_cells()}
            key = (tuple(sorted(comp.items())), tuple(sorted(struct.items())))
            if key not in lookup:
                return False
            obj_map[t] = lookup[key]
        rev = {}
        for name, rho in data.items():
            rev[(cc_cat.arrows[name][0], cc_cat.arrows[name][1],
                 tuple(sorted(rho.items())))] = name
        arr_map = {}
        for a in hom_cat.arrows:
            s, t2 = hom_cat.arrows[a]
            rho = {i: amb.hcomp2[(amb.id2(c.comp[i]), a)] for i in sh.objects}
            key = (obj_map[s], obj_map[t2], tuple(sorted(rho.items())))
            if key not in rev:
                return False
            arr_map[a] = rev[key]
        F = Functor(hom_cat, cc_cat, obj_map, arr_map)
        if not validate_functor(F).ok:
            return False
        if not is_equivalence(F).verdict:
            return False
    return True


# ---------------------------------------------------------------------------
# Weighted limits and bilimits of Cat-valued diagrams


def weighted_limit_cat(W: CatDiagram, P: CatDiagram, flavor: Flavor,
                       meter: Meter | None = None) -> HomCategory:
    """The weighted limit in Cat is the Hom category of transformations."""
    return hom_eps(W, P, flavor, meter)


def bilimit_cat(W: CatDiagram, F: CatDiagram,
                meter: Meter | None = None) -> HomCategory:
    """A finite bilimit computed as the pseudolimit."""
    return hom_eps(W, F, PSEUDO, meter)


def comparison_functor(P: CatDiagram, cone: BaseCone,
                       meter: Meter | None = None):
    """The canonical functor P(vertex) -> limit of P over the cone's shape.

    The limit category is realized as the Hom category of cone-shaped
    families valued in P; the comparison sends c to the family of images
    of c under the cone's components.
    """
    meter = meter or Meter()
    sh = cone.shape
    D = cone.diagram
    if D.target != P.source:
        raise PreconditionFailed("cone and diagram live over different bases")
    PD = compose_diagram(P, D)
    k1 = constant_diagram(sh, terminal_category())
    h = hom_eps(k1, PD, sigma_flavor(cone.marked), meter)
    PL = P.on_obj[cone.vertex]
    obj_map = {}
    for c in PL.objects:
        comps = {}
        structural = {}
        for i in sh.objects:
            val = P.on_1[cone.comp[i]].obj_map[c]
            tcat = PD.on_obj[i]
            comps[i] = Functor(k1.on_obj[i], tcat, {"*": val},
                               {"id_*": tcat.identity[val]})
        for u in sh.all_one_cells():
            i, j = sh.src1(u), sh.tgt1(u)
            cellval = P.on_2[cone.struct[u]].components[c]
            src = compose_functors(PD.on_1[u], comps[i])
            tgt = compose_functors(comps[j], k1.on_1[u])
            structural[u] = NatTransf(src, tgt, {"*": cellval})
        t = Transformation(k1, PD, comps, structural, sigma_flavor(cone.marked))
        obj_map[c] = h.name_of_transf(t)
    rev = {}
    for name, m in h.mods.items():
        rev[(h.cat.arrows[name][0], h.cat.arrows[name][1], m.key())] = name
    arr_map = {}
    for a, (c, c2) in PL.arrows.items():
        comps = {}
        for i in sh.objects:
            tcat = PD.on_obj[i]
            val = P.on_1[cone.comp[i]].arr_map[a]
            src = Functor(k1.on_obj[i], tcat,
                          {"*": P.on_1[cone.comp[i]].obj_map[c]},
                          {"id_*": tcat.identity[P.on_1[cone.comp[i]].obj_map[c]]})
            tgt = Functor(k1.on_obj[i], tcat,
                          {"*": P.on_1[cone.comp[i]].obj_map[c2]},
                          {"id_*": tcat.identity[P.on_1[cone.comp[i]].obj_map[c2]]})
            comps[i] = NatTransf(src, tgt, {"*": val})
        key = tuple((i, comps[i].key()) for i in sorted(comps))
        arr_map[a] = rev[(obj_map[c], obj_map[c2], key)]
    F = Functor(PL, h.cat, obj_map, arr_map)
    if not validate_functor(F).ok:
        raise CertificateFailure("comparison functor is not functorial")
    return F, h


def preserves_bilimit(P: CatDiagram, cone: BaseCone,
                      meter: Meter | None = None) -> bool:
    F, _ = comparison_functor(P, cone, meter)
    return is_equivalence(F).verdict


# ---------------------------------------------------------------------------
# Pointwise computation and interchange


def swap_product_diagram(T: CatDiagram, left: Fin2Cat, right: Fin2Cat) -> CatDiagram:
    """Reindex a diagram on left x right as one on right x left."""
    prod = two_cat_product(right, left)

    def sw(name: str) -> str:
        x, y = split_pair_name(name)
        return pair_name(y, x)

    on_obj = {sw(o): T.on_obj[o] for o in T.source.objects}
    on_1 = {sw(f): T.on_1[f] for f in T.source.all_one_cells()}
    on_2 = {sw(x): T.on_2[x] for x in T.source.all_two_cells()}
    return CatDiagram(prod, on_obj, on_1, on_2)


def restrict_right(T: CatDiagram, left: Fin2Cat, right: Fin2Cat,
                   B: str) -> CatDiagram:
    """Fix the right coordinate of a product diagram."""
    idB = right.id1[B]
    id2B = right.id2(idB)
    on_obj = {A: T.on_obj[pair_name(A, B)] for A in left.objects}
    on_1 = {f: T.on_1[pair_name(f, idB)] for f in left.all_one_cells()}
    on_2 = {x: T.on_2[pair_name(x, id2B)] for x in left.all_two_cells()}
    return CatDiagram(left, on_obj, on_1, on_2)


def pointwise_limit_diagram(T: CatDiagram, left: Fin2Cat, right: Fin2Cat,
                            W: CatDiagram, flavor: Flavor,
                            meter: Meter | None = None):
    """Assemble B ↦ {W, T(-,B)} into a diagram on the right base.

    Returns the diagram together with the per-object Hom categories.
    """
    meter = meter or Meter()
    homs = {B: hom_eps(W, restrict_right(T, left, right, B), flavor, meter)
            for B in right.objects}
    on_obj = {B: homs[B].cat for B in right.objects}
    on_1 = {}
    for b in right.all_one_cells():
        B, B2 = right.src1(b), right.tgt1(b)
        om, am = {}, {}
        for name, t in homs[B].transfs.items():
            om[name] = homs[B2].name_of_transf(_push_transf(T, left, right, b, t))
        rev = {}
        for name, m in homs[B2].mods.items():
            rev[(homs[B2].cat.arrows[name][0], homs[B2].cat.arrows[name][1],
                 m.key())] = name
        for name, m in homs[B].mods.items():
            src, tgt = homs[B].cat.arrows[name]
            comps = {A: whisker_functor_nat(T.on_1[pair_name(left.id1[A], b)],
                                            m.components[A])
                     for A in left.objects}
            key = tuple((A, comps[A].key()) for A in sorted(comps))
            am[name] = rev[(om[src], om[tgt], key)]
        on_1[b] = Functor(homs[B].cat, homs[B2].cat, om, am)
    on_2 = {}
    for x in right.all_two_cells():
        b, b2 = right.src2(x), right.tgt2(x)
        B = right.src1(b)
        B2 = right.tgt1(b)
        comps = {}
        rev = {}
        for name, m in homs[B2].mods.items():
            rev[(homs[B2].cat.arrows[name][0], homs[B2].cat.arrows[name][1],
                 m.key())] = name
        for name, t in homs[B].transfs.items():
            mods = {A: whisker_nat_functor(
                T.on_2[pair_name(left.id2(left.id1[A]), x)], t.components[A])
                for A in left.objects}
            key = tuple((A, mods[A].key()) for A in sorted(mods))
            src_name = on_1[b].obj_map[name]
            tgt_name = on_1[b2].obj_map[name]
            comps[name] = rev[(src_name, tgt_name, key)]
        on_2[x] = NatTransf(on_1[b], on_1[b2], comps)
    return CatDiagram(right, on_obj, on_1, on_2), homs


def _push_transf(T, left, right, b, t: Transformation) -> Transformation:
    B, B2 = right.src1(b), right.tgt1(b)
    comps = {A: compose_functors(T.on_1[pair_name(left.id1[A], b)],
                                 t.components[A])
             for A in left.objects}
    structural = {}
    for f in left.all_one_cells():
        A, A2 = left.src1(f), left.tgt1(f)
        pushed = whisker_functor_nat(T.on_1[pair_name(left.id1[A2], b)],
                                     t.structural[f])
        src = compose_functors(T.on_1[pair_name(f, right.id1[B2])], comps[A])
        tgt = compose_functors(comps[A2], t.source.on_1[f])
        structural[f] = NatTransf(src, tgt, pushed.components)
    target = restrict_right(T, left, right, B2)
    return Transformation(t.source, target, comps, structural, t.flavor)


def pointwise_limit_check(T: CatDiagram, left: Fin2Cat, right: Fin2Cat,
                          W: CatDiagram, flavor: Flavor, tests=None,
                          meter: Meter | None = None) -> list:
    """Verify the defining property of the pointwise-assembled limit.

    For each supplied test diagram H on the right base, strict maps from
    H into the assembled limit must biject with weight-shaped families
    into the pointwise hom categories; the isomorphism of categories is
    found by search and reported per test.

    Excluded case, deliberately not asserted: strict-flavor limits are
    not computed pointwise in categories of pseudonatural
    transformations, so no strict-in-pseudo claim is made or tested.
    """
    meter = meter or Meter()
    L, homs = pointwise_limit_diagram(T, left, right, W, flavor, meter)
    if tests is None:
        tests = [("constant-terminal", constant_diagram(right, terminal_category())),
                 ("constant-arrow", constant_diagram(right, arrow_category()))]
    results = []
    for label, H in tests:
        lhs = hom_eps(H, L, STRICT, meter).cat
        # the comparison target: weight-shaped families into Hom_s(H, T(A,-))
        inner = {A: hom_eps(H, restrict_left_diagram(T, left, right, A),
                            STRICT, meter)
                 for A in left.objects}
        target = _assemble_left_diagram(T, left, right, inner, meter)
        rhs = hom_eps(W, target, flavor, meter).cat
        ok = len(lhs.objects) == len(rhs.objects) and \
            len(lhs.arrows) == len(rhs.arrows) and \
            find_isomorphism(lhs, rhs, meter) is not None
        results.append((label, ok))
    return results


def _assemble_left_diagram(T, left, right, inner, meter) -> CatDiagram:
    """The diagram A ↦ Hom_s(H, T(A,-)) on the left base."""
    on_obj = {A: inner[A].cat for A in left.objects}
    on_1 = {}
    for f in left.all_one_cells():
        A, A2 = left.src1(f), left.tgt1(f)
        om, am = {}, {}
        rev = {}
        for name, m in inner[A2].mods.items():
            rev[(inner[A2].cat.arrows[name][0], inner[A2].cat.arrows[name][1],
                 m.key())] = name
        tgt_diag = restrict_left_diagram(T, left, right, A2)
        for name, t in inner[A].transfs.items():
            comps = {B: compose_functors(T.on_1[pair_name(f, right.id1[B])],
                                         t.components[B])
                     for B in right.objects}
            structural = {}
            for b in right.all_one_cells():
                B, B2 = right.src1(b), right.tgt1(b)
                pushed = whisker_functor_nat(T.on_1[pair_name(f, right.id1[B2])],
                                             t.structural[b])
                src = compose_functors(tgt_diag.on_1[b], comps[B])
                tgt = compose_functors(comps[B2], t.source.on_1[b])
                structural[b] = NatTransf(src, tgt, pushed.components)
            t2 = Transformation(t.source, tgt_diag, comps, structural, t.flavor)
            om[name] = inner[A2].name_of_transf(t2)
        for name, m in inner[A].mods.items():
            src, tgt = inner[A].cat.arrows[name]
            comps = {B: whisker_functor_nat(T.on_1[pair_name(f, right.id1[B])],
                                            m.components[B])
                     for B in right.objects}
            key = tuple((B, comps[B].key()) for B in sorted(comps))
            am[name] = rev[(om[src], om[tgt], key)]
        on_1[f] = Functor(inner[A].cat, inner[A2].cat, om, am)
    on_2 = {}
    for x in left.all_two_cells():
        f, g = left.src2(x), left.tgt2(x)
        A2 = left.tgt1(f)
        rev = {}
        for name, m in inner[A2].mods.items():
            rev[(inner[A2].cat.arrows[name][0], inner[A2].cat.arrows[name][1],
                 m.key())] = name
        comps = {}
        A = left.src1(f)
        for name, t in inner[A].transfs.items():
            mods = {B: whisker_nat_functor(
                T.on_2[pair_name(x, right.id2(right.id1[B]))], t.components[B])
                for B in right.objects}
            key = tuple((B, mods[B].key()) for B in sorted(mods))
            comps[name] = rev[(on_1[f].obj_map[name], on_1[g].obj_map[name], key)]
        on_2[x] = NatTransf(on_1[f], on_1[g], comps)
    return CatDiagram(left, on_obj, on_1, on_2)


def restrict_left_diagram(T: CatDiagram, left: Fin2Cat, right: Fin2Cat,
                          A: str) -> CatDiagram:
    idA = left.id1[A]
    id2A = left.id2(idA)
    return CatDiagram(right,
                      {B: T.on_obj[pair_name(A, B)] for B in right.objects},
                      {b: T.on_1[pair_name(idA, b)] for b in right.all_one_cells()},
                      {x: T.on_2[pair_name(id2A, x)] for x in right.all_two_cells()})


def interchange_check(W_l: CatDiagram, W_r: CatDiagram, T: CatDiagram,
                      left: Fin2Cat, right: Fin2Cat,
                      alpha: Flavor, beta: Flavor,
                      meter: Meter | None = None) -> tuple[bool, int, int]:
    """Double limits in either order must agree up to isomorphism.

    Returns (found, size_left, size_right); a counterexample is a bug in
    the caller's sense, reported as found = False.
    """
    meter = meter or Meter()
    M, _ = pointwise_limit_diagram(T, left, right, W_l, alpha, meter)
    lhs = hom_eps(W_r, M, beta, meter).cat
    Ts = swap_product_diagram(T, left, right)
    N, _ = pointwise_limit_diagram(Ts, right, left, W_r, beta, meter)
    rhs = hom_eps(W_l, N, alpha, meter).cat
    ok = len(lhs.objects) == len(rhs.objects) and \
        len(lhs.arrows) == len(rhs.arrows) and \
        find_isomorphism(lhs, rhs, meter) is not None
    return ok, len(lhs.objects), len(rhs.objects)


# ---------------------------------------------------------------------------
# Coends


def coend_eps(T: CatDiagram, base: Fin2Cat, flavor: Flavor,
              cap: int = DEFAULT_CAP, meter: Meter | None = None,
              test_family=None) -> tuple[PresentedCategory, list]:
    """The flavor-constrained coend of a two-sided strict diagram.

    Presented by one object per diagonal element, the diagonal arrows,
    and one connecting generator per (1-cell, off-diagonal element)
    pair; the dinaturality equations become relations and the flavor
    dictates which connecting generators are inverted.  The certificate
    compares functors out of the realization with the corresponding end
    of hom categories for each test vertex.
    """
    from .transforms import end_eps
    from .presented import saturate_presentation
    meter = meter or Meter()
    if T.is_pseudo:
        raise PreconditionFailed("coends are implemented for strict diagrams")
    test_family = default_test_family() if test_family is None else test_family
    idof = {A: base.id1[A] for A in base.objects}

    def tcell(l, r):
        return T.on_1[pair_name(l, r)]

    def t2cell(l, r):
        return T.on_2[pair_name(l, r)]

    objects = []
    obj_of = {}
    for A in sorted(base.objects):
        for x in sorted(T.on_obj[pair_name(A, A)].objects):
            name = el_mod.obj_name(x, A)
            objects.append(name)
            obj_of[(A, x)] = name

    generators = {}
    hints = {}
    relations = []
    strict_object_merges = []

    def diag_gen(A, arr):
        return f"{A}:{arr}"

    for A in sorted(base.objects):
        TA = T.on_obj[pair_name(A, A)]
        for arr, (x, y) in sorted(TA.arrows.items()):
            if TA.is_identity(arr):
                continue
            generators[diag_gen(A, arr)] = (obj_of[(A, x)], obj_of[(A, y)])
        for (g, f), h in TA.compose.items():
            if TA.is_identity(g) or TA.is_identity(f):
                continue
            hints[(diag_gen(A, f), diag_gen(A, g))] = \
                None if TA.is_identity(h) else diag_gen(A, h)

    non_id1 = [f for f in base.all_one_cells() if f not in set(base.id1.values())]

    def e_gen(f, z):
        return f"e[{f};{z}]"

    strict = flavor.requires_identity()
    for f in non_id1:
        A, B = base.src1(f), base.tgt1(f)
        TBA = T.on_obj[pair_name(B, A)]
        for z in sorted(TBA.objects):
            left = tcell(idof[B], f).obj_map[z]   # in T(B,B)
            right = tcell(f, idof[A]).obj_map[z]  # in T(A,A)
            if strict:
                strict_object_merges.append((obj_of[(B, left)], obj_of[(A, right)]))
            else:
                generators[e_gen(f, z)] = (obj_of[(B, left)], obj_of[(A, right)])
        # naturality of the connecting cells in the off-diagonal variable
        for w, (z, z2) in sorted(TBA.arrows.items()):
            if TBA.is_identity(w):
                continue
            lft = tcell(idof[B], f).arr_map[w]
            rgt = tcell(f, idof[A]).arr_map[w]
            lw = () if T.on_obj[pair_name(B, B)].is_identity(lft) \
                else (diag_gen(B, lft),)
            rw = () if T.on_obj[pair_name(A, A)].is_identity(rgt) \
                else (diag_gen(A, rgt),)
            if strict:
                lhs = lw
                rhs = rw
                src_obj = obj_of[(B, tcell(idof[B], f).obj_map[z])]
            else:
                lhs = lw + (e_gen(f, z2),)
                rhs = (e_gen(f, z),) + rw
                src_obj = obj_of[(B, tcell(idof[B], f).obj_map[z])]
            relations.append((tuple(lhs), tuple(rhs), src_obj))
    # composition of connecting cells along composable base 1-cells
    for (g, f), gf in base.hcomp1.items():
        if f in set(base.id1.values()) or g in set(base.id1.values()):
            continue
        A = base.src1(f)
        B = base.tgt1(f)
        C = base.tgt1(g)
        TCA = T.on_obj[pair_name(C, A)]
        for z in sorted(TCA.objects):
            z_right = tcell(idof[C], f).obj_map[z]  # in T(C,B)
            z_left = tcell(g, idof[A]).obj_map[z]   # in T(B,A)
            if strict:
                continue
            first = e_gen(g, z_right)
            second = e_gen(f, z_left)
            hints[(first, second)] = \
                None if gf in set(base.id1.values()) else e_gen(gf, z)
    # 2-cells relate the connecting generators of their boundaries
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        if base.is_identity_2cell(x):
            continue
        A, B = base.src1(f), base.tgt1(f)
        TBA = T.on_obj[pair_name(B, A)]
        for z in sorted(TBA.objects):
            lcell = t2cell(x, base.id2(idof[B])).components[z]  # T(B,B)
            rcell = t2cell(base.id2(idof[A]), x).components[z]  # T(A,A)
            lw = () if T.on_obj[pair_name(B, B)].is_identity(lcell) \
                else (diag_gen(B, lcell),)
            rw = () if T.on_obj[pair_name(A, A)].is_identity(rcell) \
                else (diag_gen(A, rcell),)
            if strict:
                relations.append((rw, lw,
                                  obj_of[(A, T.on_obj[pair_name(A, A)].src(rcell))]
                                  if rw else obj_of[(B, tcell(idof[B], f).obj_map[z])]))
            else:
                # e_f then the right cell equals the left cell then e_g
                lhs = (e_gen(f, z),) + rw
                rhs = lw + (e_gen(g, z),)
                relations.append((lhs, rhs,
                                  obj_of[(B, tcell(idof[B], f).obj_map[z])]))
    inverted = []
    if not strict:
        for f in non_id1:
            if flavor.requires_invertible(f):
                A, B = base.src1(f), base.tgt1(f)
                TBA = T.on_obj[pair_name(B, A)]
                inverted.extend(e_gen(f, z) for z in sorted(TBA.objects))
    # strict flavor merges objects outright
    merged = {o: o for o in objects}
    if strict_object_merges:
        def find(o):
            while merged[o] != o:
                merged[o] = merged[merged[o]]
                o = merged[o]
            return o
        for a, b in strict_object_merges:
            ra, rb = find(a), find(b)
            if ra != rb:
                merged[max(ra, rb)] = min(ra, rb)
        objects2 = sorted({find(o) for o in objects})
        generators = {g: (find(s), find(t)) for g, (s, t) in generators.items()}
        relations = [(l, r, find(s)) for (l, r, s) in relations]
        objects = objects2
    pres = Presentation(tuple(objects), generators, hints,
                        tuple(relations), tuple(sorted(inverted)))
    out = saturate_presentation(pres, cap, meter)
    certificate = []
    if out.finite and test_family:
        from .transforms import internal_hom_diagram
        for label, E in test_family:
            fc = functor_category_full(out.realization, E, meter)
            # the end of Cat(T(-,-), E) over the swapped-variance diagram
            target = _hom_out_diagram(T, base, E, meter)
            e = end_eps(target, base, flavor, meter)
            ok = len(fc.cat.objects) == len(e.cat.objects) and \
                len(fc.cat.arrows) == len(e.cat.arrows) and \
                find_isomorphism(fc.cat, e.cat, meter) is not None
            certificate.append((label, ok))
            if not ok:
                raise CertificateFailure(
                    f"coend universal property fails against {label}")
    return out, certificate


def _hom_out_diagram(T: CatDiagram, base: Fin2Cat, E: FinCat,
                     meter: Meter) -> CatDiagram:
    """The two-sided diagram (A,B) ↦ Cat(T(B,A), E)."""
    prod = T.source
    fcats = {}
    for A in base.objects:
        for B in base.objects:
            fcats[(A, B)] = functor_category_full(
                T.on_obj[pair_name(B, A)], E, meter)
    on_obj = {pair_name(A, B): fcats[(A, B)].cat
              for A in base.objects for B in base.objects}
    on_1 = {}
    for f in base.all_one_cells():
        A2, A = base.src1(f), base.tgt1(f)
        for g in base.all_one_cells():
            B, B2 = base.src1(g), base.tgt1(g)
            src_fc = fcats[(A, B)]
            tgt_fc = fcats[(A2, B2)]
            inner = T.on_1[pair_name(g, f)]  # T(B2,A2) -> T(B,A)
            om, am = {}, {}
            for name, h in src_fc.functors.items():
                om[name] = tgt_fc.name_of_functor(compose_functors(h, inner))
            for name, n in src_fc.transfs.items():
                am[name] = tgt_fc.name_of_transf(whisker_nat_functor(n, inner))
            on_1[pair_name(f, g)] = Functor(src_fc.cat, tgt_fc.cat, om, am)
    on_2 = {}
    for x in base.all_two_cells():
        f, f2 = base.src2(x), base.tgt2(x)
        A2, A = base.src1(f), base.tgt1(f)
        for y in base.all_two_cells():
            g, g2 = base.src2(y), base.tgt2(y)
            B, B2 = base.src1(g), base.tgt1(g)
            src_fc = fcats[(A, B)]
            tgt_fc = fcats[(A2, B2)]
            comps = {}
            for name, h in src_fc.functors.items():
                comps[name] = tgt_fc.name_of_transf(
                    whisker_functor_nat(h, T.on_2[pair_name(y, x)]))
            on_2[pair_name(x, y)] = NatTransf(
                on_1[pair_name(f, g)], on_1[pair_name(f2, g2)], comps)
    return CatDiagram(prod, on_obj, on_1, on_2)
