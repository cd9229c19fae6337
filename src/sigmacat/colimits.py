"""Weighted limits in Cat, conical colimits via localization, bilimits,
the commutation of σ-filtered σ-colimits with finite bilimits, coends.

A weighted σ-limit {W, P}_σ, in every flavour, is the conical σ-limit of
P·π over the elements of W (``weighted_sigma_limit``), read off P's
tables by ``point_cone_homs`` on the rows of El W's reader, with neither
El W nor P·π built; the strict flavour forces identity cells where the
others mark invertible ones.  A pseudo W brings its structure cells in
through El W's identities and composites, a pseudo P through the
binding, and the strict flavour refuses both.  Only the callers that
need ``Transformation`` objects stay with ``transforms.hom_eps``.
Conical colimits relative to a marking are
computed by the classical recipe: take the dual elements construction
Γ(Q) of the diagram, reverse its 1-cells, collapse each hom to connected
components, and invert the marked cartesian arrows in the category of
fractions.  That π0 is read straight off Q's tables by
``elements.dual_pi0``; Γ(Q) itself, its 2-cell compositions and its
1-cell dual are never assembled.  Whenever the localization stabilizes,
the result R with its universal cone κ is certified by the cocone
classifier: Cl(Q, Σ) is presented so that its functors into any E are
exactly the σ-cones under Q with vertex E, and the functor Cl → R that κ
induces must be an isomorphism, which proves the universal property for
every E.  Every classifier is built by one builder, ``_Classifier``; Cl
is built from Q's own tables, not through the elements construction, and
decided by one coset table (``presented.presents``).  A weighted
σ-colimit W ⋆ P is the conical one of P·π over the dual of W's elements,
read off El W's reader; it is certified the same way by the classifier of
σ-natural transformations W ⇒ Cat(P-, E), from W's and P's tables.  No
functor, cone or transformation is enumerated.  A certificate failure is
a bug and raises; an unstable localization propagates as an undecided
status, and a classifier still growing at the cap raises UndecidedAtCap,
never a guess.

Cones from the point, cocones into Cat and cones in a finite 2-category
run on one kernel, ``ConeKernel``: the σ-cones from the point under a
Cat-valued diagram given by its tables, and their morphisms.
``point_cone_homs`` runs it on a bound diagram: a shape, its categories,
its actions and a pseudo diagram's structure cells, from a strict
diagram's tables (``diagram_binding``) or from P's along the maps of a
2-functor (``binding_along``); so the limit of P
over a cone, σ-Nat(Δ1, P·D), is read with no ``Transformation``,
``Modification`` or composite P·D, and ``ConicalLimit`` is that limit
assembled.  A σ-cocone under Q with vertex E in Cat is a σ-cone from the
point under the hom diagram Cat(Q-, E) (``hom_into_diagram``), so
``cones_sigma`` reads and assembles σ-Cones(Q, E) there.  A cone over D in a finite
2-category with vertex X is a σ-cone from the point under the hom
diagram a(X, D-), so ``BaseConeCategories`` binds the kernel once per
diagram to the actions of ``hom_actions`` and builds each Cones_D(X) on
it; a base keeps those bindings for its generating diagrams, with no
cone category, in its ``BilimitPlan``.  The tests' cocone search,
``cone_existence`` in ``tests/cone_reference.py``, runs there too, a
cocone being a cone in the 1-cell duals; ``filteredness`` scans its
axioms directly and binds no kernel.  A cone is a bilimit exactly when every
a(X, -) takes it to a bilimit cone in Cat (Kelly 1989), so the bilimit
test and ``preserves_bilimit`` decide the same comparison,
``_comparison``, on objects and hom-sets by
``fincat.is_equivalence_on_homs``, with no composition table.
``comparison_functor`` assembles the comparison through ``hom_eps`` and
is the reference.
``check_base_cone`` states the laws of a cone in a finite 2-category
directly and is the reference validator; ``check_sigma_cone`` in
``tests/cone_reference.py`` does the same for σ-cones in Cat.

``commutation_check`` decides the fact the paper's main theorem rests
on, that σ-filtered σ-colimits commute with finite weighted bilimits in
Cat, one generating shape of ``shapes`` at a time.  For a strict T on
index × shape it builds the canonical comparison
σ-colim_i lim_s T(i,s) → lim_s σ-colim_i T(i,s) from the kernels above
alone: each lim is the shape's conical σ-limit, read by
``point_cone_homs`` and assembled; each σ-colimit comes from
``conical_sigma_colimit``; the functors between the colimits and the
comparison are induced by ``induced_from_colimit``.  ``is_equivalence``
decides the comparison and names a witness when it fails.  The coend of
``coend_eps`` is presented as the classifier of dinatural cocones, built
by the same ``_Classifier`` as the σ-colimits' certificates but with no
Φ, so its status is exact and it carries no certificate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

from .config import DEFAULT_CAP, Meter
from .errors import CertificateFailure, PreconditionFailed, UndecidedAtCap
from .fincat import (EquivalenceReport, FinCat, Functor, NatTransf,
                     ValidationReport, assemble_category, compose_functors,
                     functor_category_full, invert_nat, is_equivalence,
                     is_equivalence_on_homs, mint, pair_name, partition,
                     terminal_category, validate_functor, whisker_functor_nat,
                     whisker_nat_functor)
from .two_cat import Fin2Cat, OpView, WideSub, marks, op_dual, two_cat_product
from .transforms import (CatDiagram, Transformation, TwoFunctor,
                         Flavor, PSEUDO, compose_diagram, constant_diagram,
                         hom_eps, sigma_flavor)
from .presented import (Presentation, PresentedCategory, base_of_inv, is_inv,
                        localize, presents, saturate_presentation)
from .shapes import Shape, generating_diagrams
from . import elements as el_mod


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


@dataclass
class ConeCategory:
    cat: FinCat
    cones: dict  # object name -> SigmaCone
    morphisms: dict  # arrow name -> dict of components


def cones_sigma(Q: CatDiagram, marked: frozenset, E: FinCat,
                meter: Meter | None = None) -> ConeCategory:
    """The category of marked-relative cones under Q with vertex E, the
    cones named in the order of ``SigmaCone.key`` and each hom-set in
    that of ``_morphism_key``.

    A σ-cone under Q with vertex E is a σ-cone from the point under the
    hom diagram Cat(Q-, E) on the 1-cell dual of Q's base
    (``hom_into_diagram``): A goes to Cat(Q(A), E), f : A → B acts by
    K ↦ K∘Q(f) and x : f ⇒ g by K ↦ K*Q(x).  Its object at A is κ_A, its
    cell at f is κ_f : κ_B∘Q(f) ⇒ κ_A; the kernel's LN2 and LN1 are the
    σ-cone laws of those names, and its square a cone morphism's.  So
    ``_conical_limit`` reads and assembles them, composed in the functor
    categories' tables, and they are decoded through those categories'
    names.  Strict Q only.
    """
    meter = meter or Meter()
    if Q.is_pseudo:
        raise PreconditionFailed("σ-cones in Cat expect a strict diagram")
    H, fcats = hom_into_diagram(Q, E, meter)
    base, objs = Q.source, sorted(Q.source.objects)
    cells = [(f, fcats[base.src1(f)].transfs) for f in sorted(base.all_one_cells())]

    def cone(c: tuple) -> SigmaCone:
        ks, ss = c
        return SigmaCone(Q, marked, E, {A: fcats[A].functors[k] for A, k in zip(objs, ks)},
                         {f: ts[s] for (f, ts), s in zip(cells, ss)})

    def morphism(ms: tuple) -> dict:
        return {A: fcats[A].transfs[m] for A, m in zip(objs, ms)}

    limit = _conical_limit(*diagram_binding(H), marked, meter, ("c", "r"),
                           lambda c: cone(c).key(), lambda ms: _morphism_key(morphism(ms)))
    return ConeCategory(limit.cat, {name: cone(c) for c, name in limit.objects.items()},
                        {name: morphism(ms) for (_, _, ms), name in limit.arrows.items()})


def _morphism_key(rho: dict) -> tuple:
    return tuple((A, rho[A].key()) for A in sorted(rho))


def hom_into_diagram(P: CatDiagram, E: FinCat,
                     meter: Meter | None = None) -> tuple[CatDiagram, dict]:
    """The diagram Cat(P-, E) on the dual base, and per base object A the
    functor category Cat(P(A), E) whose table is its value at A."""
    meter = meter or Meter()
    base = P.source
    fcats = {A: functor_category_full(P.on_obj[A], E, meter) for A in base.objects}
    on_1 = {}
    for f in base.all_one_cells():
        # f : A -> B in the base is a 1-cell B -> A in the dual
        src, tgt, Pf = fcats[base.tgt1(f)], fcats[base.src1(f)], P.on_1[f]
        on_1[f] = Functor(
            src.cat, tgt.cat,
            {h: tgt.name_of_functor(compose_functors(K, Pf)) for h, K in src.functors.items()},
            {n: tgt.name_of_transf(whisker_nat_functor(t, Pf)) for n, t in src.transfs.items()})
    on_2 = {}
    for x in base.all_two_cells():
        # P(x) : P(f) ⇒ P(g) whiskers to K∘P(f) ⇒ K∘P(g): in the dual base
        # 2-cells keep their boundaries
        f, g = base.src2(x), base.tgt2(x)
        src, tgt = fcats[base.tgt1(f)], fcats[base.src1(f)]
        on_2[x] = NatTransf(on_1[f], on_1[g], {
            h: tgt.name_of_transf(whisker_functor_nat(K, P.on_2[x]))
            for h, K in src.functors.items()})
    return CatDiagram(op_dual(base), {A: fc.cat for A, fc in fcats.items()},
                      on_1, on_2), fcats


# ---------------------------------------------------------------------------
# Conical colimits via the fractions construction


@dataclass
class ColimitResult:
    diagram: CatDiagram
    marked: frozenset
    gamma: el_mod.DualPi0  # π0 of the 1-cell dual of Γ(Q), and its decoding tables
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
                          meter: Meter | None = None) -> ColimitResult:
    """Conical colimit of a Cat-valued diagram relative to a marking.

    Built from the reversed dual elements construction, components
    collapsed, marked cartesian arrows inverted: ``elements.dual_pi0``
    reads that π0 and its class map off Q's tables, with the ticks of
    ``gamma_dual``, and the classes of the cartesian (f, phi) with f in
    Σ are localized.  No 2-category of elements is built.  The
    universal cone sends an element x over A to the class of the pair
    (x, A).  It is certified by its classifier: the functor Cl(Q, Σ) → R it induces
    must be an isomorphism (``_conical_classifier``).  That proves the
    cone laws too, so they are not checked again: ``presents``
    checks Φ(c·g) = Φ(g)∘Φ(c) at every coset entry, and the relations
    state the legs' functoriality, naturality, LN1, LN2 and marked
    invertibility.  LN0 and the legs' identities hold by construction:
    the identity 1-cell of (x, A) is its own π0 class's identity, which
    ``loc_arrow`` sends to an identity of R.
    """
    meter = meter or Meter()
    if Q.is_pseudo:
        raise PreconditionFailed("conical colimits expect a strict diagram")
    if not marks(sigma, Q.source):
        raise PreconditionFailed("the marking is not of the diagram's base")
    gamma = el_mod.dual_pi0(Q, meter)
    base_cat, cls = gamma.pi0, gamma.classes
    inverted = {cls[m] for m in gamma.cart if gamma.pairs1[m][0] in sigma.arrows}
    loc = localize(base_cat, inverted, cap, meter)
    result = ColimitResult(Q, frozenset(sigma.arrows), gamma, loc, None, None, [])
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
    result.cone = cone
    cl = _conical_classifier(Q, result.marked, cone)
    result.certificate = cl.certify(R, cap, meter)
    return result


class _Classifier:
    """A classifier's presentation with the images of its objects and
    generators under Φ.  The images are optional: a presentation that is
    not certified, as the coend's, gives None.  Generators are named by
    position; in a path, None stands for an identity and is dropped."""

    def __init__(self):
        self.obj_image, self.ends, self.gen_image = {}, {}, {}
        self.hints, self.relations, self.inverted = {}, [], []

    def gen(self, src, tgt, image: str) -> str:
        name = f"g{len(self.ends)}"
        self.ends[name] = (src, tgt)
        self.gen_image[name] = image
        return name

    def hint(self, first, second, composite) -> None:
        """first then second is composite, an identity when None."""
        if first and second:
            self.hints[(first, second)] = composite

    def rel(self, u: tuple, v: tuple, src) -> None:
        u, v = tuple(g for g in u if g), tuple(g for g in v if g)
        if u != v:
            self.relations.append((u, v, src))

    def presentation(self) -> Presentation:
        return Presentation(tuple(sorted(self.obj_image)), self.ends, self.hints,
                            tuple(self.relations), tuple(sorted(self.inverted)))

    def certify(self, R: FinCat, cap: int, meter: Meter) -> list:
        """Φ : Cl → R must be an isomorphism; a failure is a bug and raises."""
        if not presents(self.presentation(), self.obj_image, self.gen_image, R,
                        cap, meter):
            raise CertificateFailure("colimit is not isomorphic to its classifier")
        return [("classifier", True)]


def _conical_classifier(Q: CatDiagram, marked: frozenset, cone: SigmaCone) -> _Classifier:
    """Cl(Q, Σ), whose functors into any E are the σ-cones under Q with
    vertex E, built from Q's tables, and Φ : Cl → R induced by ``cone``.

    Objects (A, y), y in Q(A); generators a[A|u] for each non-identity u
    of Q(A) and s[f|y] : (B, Q(f)y) → (A, y) for each non-identity
    f : A → B, s being empty at identities.  Relations: Q(A)'s composition
    as hints; naturality of s[f|-]; LN1, s[g|Q(f)y] then s[f|y] is
    s[gf|y]; LN2, a[B|Q(x)_y] then s[g|y] is s[f|y] for x : f ⇒ g; s[f|y]
    inverted for f in Σ.  Φ sends a[A|u] to κ_A(u), s[f|y] to κ_f,y.
    """
    base = Q.source
    cl = _Classifier()
    a, s = {}, {}
    for A in sorted(base.objects):
        QA, k = Q.on_obj[A], cone.components[A]
        for y in sorted(QA.objects):
            cl.obj_image[(A, y)] = k.obj_map[y]
            s[(base.id1[A], y)] = None
        for u, (y, y2) in sorted(QA.arrows.items()):
            a[(A, u)] = None if QA.is_identity(u) else cl.gen((A, y), (A, y2),
                                                              k.arr_map[u])
        for (v, u), w in sorted(QA.compose.items()):
            cl.hint(a[(A, u)], a[(A, v)], a[(A, w)])
    for f in sorted(set(base.all_one_cells()) - set(base.id1.values())):
        A, B = base.src1(f), base.tgt1(f)
        Qf, cell = Q.on_1[f], cone.structural[f].components
        for y in sorted(Q.on_obj[A].objects):
            s[(f, y)] = cl.gen((B, Qf.obj_map[y]), (A, y), cell[y])
            if f in marked:
                cl.inverted.append(s[(f, y)])
        for u, (y, y2) in sorted(Q.on_obj[A].arrows.items()):
            cl.rel((s[(f, y)], a[(A, u)]), (a[(B, Qf.arr_map[u])], s[(f, y2)]),
                   (B, Qf.obj_map[y]))
    for (g, f), gf in sorted(base.hcomp1.items()):
        qf, qgf = Q.on_1[f].obj_map, Q.on_1[gf].obj_map
        for y in sorted(Q.on_obj[base.src1(f)].objects):
            cl.rel((s[(g, qf[y])], s[(f, y)]), (s[(gf, y)],), (base.tgt1(g), qgf[y]))
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        B, qf, qx = base.tgt1(f), Q.on_1[f].obj_map, Q.on_2[x].components
        for y in sorted(Q.on_obj[base.src1(f)].objects):
            cl.rel((a[(B, qx[y])], s[(g, y)]), (s[(f, y)],), (B, qf[y]))
    return cl


def induced_from_colimit(result: ColimitResult, target: SigmaCone) -> Functor:
    """The functor out of a realized colimit determined by another cone.

    It reads the π0 tables of Γ(Q) the colimit was built from
    (``result.gamma``), so nothing is built again.
    Marked generators must land on isomorphisms in the target vertex;
    failure to do so, or failure of functoriality on the realization, is
    a certificate failure.
    """
    if not result.finite:
        raise UndecidedAtCap("colimit has no finite realization")
    R = result.category
    E = target.vertex
    gamma = result.gamma
    cls = gamma.classes
    # one representative element pair per component class
    rep_pair = {}
    for nm, (f, phi) in sorted(gamma.pairs1.items()):
        rep_pair.setdefault(cls[nm], (nm, f, phi))

    def image_of_class(c_name: str) -> str:
        nm, f, phi = rep_pair[c_name]
        oa, ob = gamma.ends[nm]
        x, _ = gamma.points[oa]
        _, B = gamma.points[ob]
        # (f, phi) : (x,A) -> (y,B) in the dual construction reads
        # backwards in the colimit; its image is kappa_f,x ∘ kappa_B(phi)
        k_phi = target.components[B].arr_map[phi]
        k_f = target.structural[f].components[x]
        return E.compose[(k_f, k_phi)]

    obj_map = {}
    for o in R.objects:
        x, A = gamma.points[o]
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
                           cap: int = DEFAULT_CAP,
                           meter: Meter | None = None) -> WeightedColimitResult:
    """Weighted colimit reduced to a conical one over the weight's elements.

    The weight lives on the 1-cell dual of the argument's base; both must
    be strict.  The result C is the conical σ-colimit of P·π over the dual
    of W's elements, read on El W's reader (``diagram_along_dual``), with
    the universal cone κ and its conical certificate.  The weighted
    certificate is the classifier of weighted σ-cocones, built from W's and
    P's tables: the functor Cl_W(W, P, Σ) → C that κ induces must be an
    isomorphism (``_weighted_classifier``).
    """
    meter = meter or Meter()
    base = P.source
    if W.is_pseudo or P.is_pseudo:
        raise PreconditionFailed("weighted colimits expect a strict weight and diagram")
    if W.source != op_dual(base):
        raise PreconditionFailed("weight must live on the dual of the base")
    if not marks(sigma, base):
        raise PreconditionFailed("the marking is not of the diagram's base")
    el = el_mod._Elements(W, False, meter)
    dual = el.dual()
    marked = frozenset(m for m in el.cart if el.pairs1[m][0] in sigma.arrows)
    conical = conical_sigma_colimit(diagram_along_dual(dual, P.on_obj, P.on_1, P.on_2),
                                    WideSub(dual, marked), cap, meter)
    out = WeightedColimitResult(conical, W, P, [])
    if conical.finite:
        cl = _weighted_classifier(W, P, sigma.arrows, conical.cone)
        out.certificate = cl.certify(conical.category, cap, meter)
    return out


def diagram_along_dual(dual: OpView, on_obj: dict, on_1: dict, on_2: dict) -> CatDiagram:
    """P·π on ``dual``, the 1-cell dual of El W (``_Elements.dual``), for P
    given on W's base by ``on_obj``, ``on_1`` and ``on_2``: bound along the
    reader's ``points``, ``pairs1`` and ``pairs2``, with nothing composed."""
    el = dual.op
    return CatDiagram(dual, {o: on_obj[el.points[o][1]] for o in el.objects},
                      {m: on_1[el.pairs1[m][0]] for m in el.all_one_cells()},
                      {c: on_2[el.pairs2[c]] for c in el.all_two_cells()})


def _weighted_classifier(W: CatDiagram, P: CatDiagram, marked,
                         cone: SigmaCone) -> _Classifier:
    """Cl_W(W, P, Σ), whose functors into any E are the σ-natural
    transformations W ⇒ Cat(P-, E), built from W's and P's tables, and
    Φ_W : Cl_W → C induced by the conical ``cone`` under P·π.

    For f : A → B in W's base, W(f) : W(A) → W(B), P(f) : P(B) → P(A).
    Objects (A, x, y), x in W(A), y in P(A); generators p[A|x|q] and
    w[A|u|y] for non-identity q of P(A) and u of W(A), and
    t[f|x|y] : (A, x, P(f)y) → (B, W(f)x, y) for non-identity f.
    Relations: P(A)'s and W(A)'s composition as hints; the naturality of w
    in q, of t in q and of t in u; LN1, t[f|x|P(g)y] then t[g|W(f)x|y] is
    t[gf|x|y]; LN2, t[f|x|y] then w[B|W(θ)_x|y] is p[A|x|P(θ)_y] then
    t[g|x|y] for θ : f ⇒ g; t inverted at f in Σ.  Φ_W sends p to
    κ_(x,A)(q), w to κ's cell at ``(id_A,u)@x``, t to ``(f,id_{W(f)x})@x``.
    """
    wbase = W.source
    cl = _Classifier()
    p, w, t = {}, {}, {}
    for A in sorted(wbase.objects):
        WA, PA = W.on_obj[A], P.on_obj[A]
        for x in sorted(WA.objects):
            k = cone.components[el_mod.obj_name(x, A)]
            for y in sorted(PA.objects):
                cl.obj_image[(A, x, y)] = k.obj_map[y]
                t[(wbase.id1[A], x, y)] = None
            for q, (y, y2) in sorted(PA.arrows.items()):
                p[(A, x, q)] = None if PA.is_identity(q) else cl.gen(
                    (A, x, y), (A, x, y2), k.arr_map[q])
            for (q2, q), q3 in sorted(PA.compose.items()):
                cl.hint(p[(A, x, q)], p[(A, x, q2)], p[(A, x, q3)])
        for u, (x, x2) in sorted(WA.arrows.items()):
            cell = cone.structural[el_mod.mor_name(wbase.id1[A], u, x)].components
            for y in sorted(PA.objects):
                w[(A, u, y)] = None if WA.is_identity(u) else cl.gen(
                    (A, x, y), (A, x2, y), cell[y])
            for q, (y, y2) in sorted(PA.arrows.items()):
                cl.rel((w[(A, u, y)], p[(A, x2, q)]), (p[(A, x, q)], w[(A, u, y2)]),
                       (A, x, y))
        for (u2, u), u3 in sorted(WA.compose.items()):
            for y in sorted(PA.objects):
                cl.hint(w[(A, u, y)], w[(A, u2, y)], w[(A, u3, y)])
    for f in sorted(set(wbase.all_one_cells()) - set(wbase.id1.values())):
        A, B = wbase.src1(f), wbase.tgt1(f)
        WB, wf, pf = W.on_obj[B], W.on_1[f], P.on_1[f]
        for x in sorted(W.on_obj[A].objects):
            fx = wf.obj_map[x]
            cell = cone.structural[el_mod.mor_name(f, WB.identity[fx], x)].components
            for y in sorted(P.on_obj[B].objects):
                t[(f, x, y)] = cl.gen((A, x, pf.obj_map[y]), (B, fx, y), cell[y])
                if f in marked:
                    cl.inverted.append(t[(f, x, y)])
            for q, (y, y2) in sorted(P.on_obj[B].arrows.items()):
                cl.rel((t[(f, x, y)], p[(B, fx, q)]),
                       (p[(A, x, pf.arr_map[q])], t[(f, x, y2)]), (A, x, pf.obj_map[y]))
        for u, (x, x2) in sorted(W.on_obj[A].arrows.items()):
            for y in sorted(P.on_obj[B].objects):
                cl.rel((t[(f, x, y)], w[(B, wf.arr_map[u], y)]),
                       (w[(A, u, pf.obj_map[y])], t[(f, x2, y)]), (A, x, pf.obj_map[y]))
    for (g, f), gf in sorted(wbase.hcomp1.items()):
        A, C = wbase.src1(f), wbase.tgt1(g)
        wf, pg, pgf = W.on_1[f].obj_map, P.on_1[g].obj_map, P.on_1[gf].obj_map
        for x in sorted(W.on_obj[A].objects):
            for y in sorted(P.on_obj[C].objects):
                cl.rel((t[(f, x, pg[y])], t[(g, wf[x], y)]), (t[(gf, x, y)],),
                       (A, x, pgf[y]))
    for th in wbase.all_two_cells():
        f, g = wbase.src2(th), wbase.tgt2(th)
        A, B = wbase.src1(f), wbase.tgt1(f)
        wth, pth, pf = W.on_2[th].components, P.on_2[th].components, P.on_1[f].obj_map
        for x in sorted(W.on_obj[A].objects):
            for y in sorted(P.on_obj[B].objects):
                cl.rel((t[(f, x, y)], w[(B, wth[x], y)]),
                       (p[(A, x, pth[y])], t[(g, x, y)]), (A, x, pf[y]))
    return cl


# ---------------------------------------------------------------------------
# Cones and bilimits inside a finite 2-category


@dataclass(frozen=True)
class BaseCone:
    """A marked-relative cone over a diagram in a finite 2-category.

    Components are 1-cells from the vertex to the diagram values and the
    structural cells point ``D(u) ∘ t_i ⇒ t_j``; cells at marked shape
    arrows must be invertible.  ``searched`` is set only on the cones
    ``BaseConeCategories.base_cone`` builds, whose laws the cone kernel
    decided; ``dataclasses.replace`` clears it.
    """

    shape: Fin2Cat
    diagram: TwoFunctor  # shape -> ambient
    marked: frozenset  # shape 1-cells
    vertex: str  # object of the ambient
    comp: dict  # shape object -> ambient 1-cell
    struct: dict  # shape 1-cell -> ambient 2-cell
    searched: bool = field(default=False, init=False, repr=False, compare=False)


def check_base_cone(c: BaseCone) -> ValidationReport:
    rep = ValidationReport("BaseCone")
    sh, D = c.shape, c.diagram
    amb = D.target
    for u in sorted(c.marked.difference(sh.all_one_cells())):
        rep.add("marking", (u,), f"marked {u} is not a 1-cell of the shape")
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


class ConeKernel:
    """The one cone kernel: the σ-cones from the point under a Cat-valued
    diagram Q on a shape, relative to a marking, and the morphisms
    between them, read off Q's tables.

    A cone is a pair of tuples: an object x_i of Q(i) per shape object i,
    and an arrow σ_u : Q(u)x_i → x_j of Q(j) per shape 1-cell u : i → j,
    the identity at an identity 1-cell and at one of ``identities``,
    invertible at a marked one, each in sorted order; a morphism, its
    arrows m_i : x_i → x'_i.  The shape's rows (``Fin2Cat._shape_index``,
    or the same rows of El W's reader ``elements._Elements``) are bound
    to Q's tables: per non-identity 2-cell x : u ⇒ v, LN2,
    σ_u = σ_v∘Q(x)_(x_i); per composable pair (v, u) of non-identities,
    LN1, σ_vu = σ_v∘Q(v)(σ_u); per non-identity u, the square
    m_j∘σ_u = σ'_u∘Q(u)(m_i).  The rows left out hold in every strict Q.

    A pseudo Q's structure ``cells`` come with its binding, as the pair
    (``unit(i)``, ``comp(v, u)``) of its inverted unit and composition
    components.  Then the cell at an identity 1-cell is the inverted
    unit component, and LN1 reads σ_vu = σ_v∘Q(v)(σ_u)∘α⁻¹_(x_i); the
    rows left out hold by the unit laws and the naturality of the unit.
    A strict binding brings None and keeps the strict rows and checks.

    ``on_1(u)`` gives Q(u)'s object and arrow maps, ``on_2(x)`` Q(x)'s
    components, and the categories Q(i) come with each search, so one
    kernel serves the diagrams that share their actions, as the hom
    diagrams a(X, D-) do for every X.  The σ-transformations Δ1 ⇒ Q of
    ``transforms`` and ``check_base_cone`` are the references.
    """

    __slots__ = ("objs", "cells", "cell_rows", "ln2", "ln1", "squares", "units", "ln1_cells")

    def __init__(self, shape: Fin2Cat, marked: frozenset, on_1, on_2, cells=None,
                 identities: frozenset = frozenset()):
        self.objs, self.cells, ends, two, pairs = shape._shape_index
        maps = [None if k is not None else on_1(u) for u, (k, _, _) in zip(self.cells, ends)]
        # per 1-cell: the identity's object, or Q(u) on objects, ends, and
        # whether the cell must be an identity, and whether invertible
        self.cell_rows = tuple([(k, None, i, j, False, False) if m is None else
                                (None, m[0], i, j, u in identities, u in marked)
                                for u, m, (k, i, j) in zip(self.cells, maps, ends)])
        self.ln2 = tuple([(u, v, on_2(x), *ends[u][1:]) for x, u, v in two])
        self.ln1 = tuple([(vu, v, u, maps[v][1], ends[v][2]) for vu, v, u in pairs])
        self.squares = tuple([(i, j, n, m[1]) for n, (m, (_, i, j)) in enumerate(zip(maps, ends))
                              if m is not None])
        # a pseudo Q's inverted unit components per object, and per LN1 row
        # its inverted composition components and the row's source object
        self.units = self.ln1_cells = None
        if cells is not None:
            unit, comp = cells
            self.units = [unit(i) for i in self.objs]
            self.ln1_cells = [(comp(self.cells[v], self.cells[u]), ends[u][1])
                              for _, v, u in pairs]

    def cones(self, cats: list, pools: list, meter: Meter):
        """Every cone under Q with Q(i) = ``cats[i]`` whose objects lie in
        ``pools``, lazily: objects lexicographically from the pools, one
        sorted list of candidates per category, then cells.  So this is
        also the sorted order.  Ticks once per choice of objects and per
        cell candidate."""
        units = self.units or [c.identity for c in cats]
        for t in itertools.product(*pools):
            meter.tick()
            cell_pools = []
            for k, om, i, j, identity, marked in self.cell_rows:
                if om is None:
                    cell_pools.append((units[k][t[k]],))
                    continue
                if identity:
                    pool = (cats[j].identity[t[j]],) if om[t[i]] == t[j] else ()
                else:
                    pool = cats[j].hom(om[t[i]], t[j])
                if marked:
                    pool = [a for a in pool if cats[j].is_iso(a)]
                if not pool:
                    break
                cell_pools.append(pool)
            else:
                ln2 = [(u, v, comps[t[i]], cats[j].compose) for u, v, comps, i, j in self.ln2]
                ln1 = [(vu, v, u, am, cats[j].compose) for vu, v, u, am, j in self.ln1]
                if self.ln1_cells:
                    # σ_vu = σ_v∘Q(v)(σ_u)∘α⁻¹ at x_i: Q(v), then the inverted
                    # composition cell, tabled on σ_u's pool
                    ln1 = [(vu, v, u, {a: c[(am[a], inv[t[i]])] for a in cell_pools[u]}, c)
                           for (vu, v, u, am, c), (inv, i) in zip(ln1, self.ln1_cells)]
                for s in itertools.product(*cell_pools):
                    meter.tick()
                    if all(s[u] == c[(s[v], w)] for u, v, w, c in ln2) and \
                            all(s[vu] == c[(s[v], am[s[u]])] for vu, v, u, am, c in ln1):
                        yield t, s

    def morphisms(self, cats: list, meter: Meter):
        """``hom(c1, c2)``, the morphisms from the cone c1 to the cone c2
        under Q with Q(i) = ``cats[i]``, enumerated afresh at each call,
        each a tuple of components.  Ticks once per family of components."""
        rows = [(i, j, n, am, cats[j].compose) for i, j, n, am in self.squares]

        def hom(c1: tuple, c2: tuple) -> list:
            (t1, s1), (t2, s2) = c1, c2
            out = []
            for rho in itertools.product(*[c.hom(x, y) for c, x, y in zip(cats, t1, t2)]):
                meter.tick()
                for i, j, n, am, c in rows:
                    if c[(rho[j], s1[n])] != c[(s2[n], am[rho[i]])]:
                        break
                else:
                    out.append(rho)
            return out
        return hom


def hom_actions(a: Fin2Cat) -> tuple:
    """The actions of the hom diagrams a(X, -), for every X at once, each
    table built from a's composition tables on first use: ``on_1(f)`` is
    the pair (f∘- on 1-cells, 1_f*- on 2-cells) and ``on_2(x)`` is x*1_-
    on 1-cells, over the cells into the source of f or of x.  Third, per
    object L, the set of X with a 1-cell X → L.  Nothing here ticks.  A
    base keeps one set in its ``BilimitPlan``, so the tables filled by one
    search serve the next, while every search still charges every
    Cones_D(X) it builds; the cones it returns share the plan's frozen
    diagrams.  ``BaseConeCategories`` built without a plan makes its own."""
    hc1, hc2, into = a.hcomp1, a.hcomp2, a._cells_into
    reaching = {L: frozenset(X for X in a.objects if a.one_cells(X, L)) for L in a.objects}

    def on_1(f: str) -> tuple:
        idf, (ts, xs) = a.id2(f), into[a.src1(f)]
        return {t: hc1[(f, t)] for t in ts}, {x: hc2[(idf, x)] for x in xs}

    def on_2(x: str) -> dict:
        return {t: hc2[(x, a.id2(t))] for t in into[a.src1(a.src2(x))][0]}

    return functools.cache(on_1), functools.cache(on_2), reaching


def _comparison(legs: list, cells: list) -> tuple:
    """The comparison of a cone over a strict Q into the category of cones
    from the point under Q, as (on objects, on arrows): an object c of
    the vertex goes to the cone with objects ``legs[k][0][c]`` and cells
    ``cells[n][c]``, an arrow a to the family ``legs[k][1][a]``.

    Both callers decide it with ``is_equivalence_on_homs``.  It is a
    functor without a check: cone morphisms compose componentwise in each
    Q(k), where each leg acts as a functor, and 1_c goes to identity
    components.  A morphism whose components are all invertible is an
    isomorphism, since its componentwise inverse satisfies the
    modification square too."""
    def cone_of(c: str) -> tuple:
        return tuple([om[c] for om, _ in legs]), tuple([s[c] for s in cells])

    def morphism_of(a: str) -> tuple:
        return tuple([am[a] for _, am in legs])

    return cone_of, morphism_of


class CompiledCones:
    """What ``BaseConeCategories`` reads off a diagram (D, marked) and the
    base alone, with no meter: the diagram, the base's ``hom_actions``,
    the ``ConeKernel`` bound to them along D, D's values in the kernel's
    order of shape objects, and ``legs``, the X where every hom(X, D(i))
    is inhabited.  ``kernel`` may be given when the shape's rows read no
    diagram, as ``BilimitPlan`` gives one to all the biproducts."""

    __slots__ = ("D", "marked", "actions", "kernel", "values", "legs")

    def __init__(self, D: TwoFunctor, marked: frozenset, actions: tuple,
                 kernel: ConeKernel | None = None):
        if not marked.issubset(D.source.all_one_cells()):
            raise PreconditionFailed("the marking is not of the diagram's shape")
        on_1, on_2, reaching = actions
        self.D, self.marked, self.actions = D, marked, actions
        self.kernel = kernel or ConeKernel(D.source, marked, lambda u: on_1(D.map1[u]),
                                           lambda x: on_2(D.map2[x]))
        self.values = tuple(D.obj_map[i] for i in self.kernel.objs)
        self.legs = frozenset(D.target.objects).intersection(*map(reaching.get, self.values))


class BilimitPlan:
    """What the bilimit search of ``flatness.generate_bilimit_cones`` reads
    off a base alone, kept on it as ``Fin2Cat._bilimit_plan``: its objects
    in sorted order, its ``hom_actions``, and per generating diagram
    (``shapes.generating_diagrams``) the label and the ``CompiledCones``.
    A shape whose 1-cells and 2-cells are all identities, as the
    biproduct's, has kernel rows that read no diagram, so all its
    diagrams share one kernel.  The plan names no meter and keeps no cone
    category and no cone: each search builds every Cones_D(X) it reads
    afresh, on its own meter, and the cones it returns share the plan's
    frozen diagrams, which nothing mutates."""

    __slots__ = ("objects", "actions", "diagrams")

    def __init__(self, a: Fin2Cat):
        self.objects = tuple(sorted(a.objects))
        self.actions = hom_actions(a)
        shared = {}  # (shape, marking) -> the kernel of a shape that reads no diagram
        kept = {}  # each tuple of values and set of legs, once for all diagrams

        def compiled(D: TwoFunctor, marked: frozenset) -> CompiledCones:
            _, _, ends, two, _ = D.source._shape_index
            kernel = None
            if not two and all(k is not None for k, _, _ in ends):
                key = (id(D.source), marked)
                if key not in shared:
                    shared[key] = ConeKernel(D.source, marked, None, None)
                kernel = shared[key]
            c = CompiledCones(D, marked, self.actions, kernel)
            c.values = kept.setdefault(c.values, c.values)
            c.legs = kept.setdefault(c.legs, c.legs)
            return c

        self.diagrams = tuple((label, compiled(D, marked))
                              for label, D, marked in generating_diagrams(a))


class BaseConeCategories:
    """The cone categories Cones_D(X) of one diagram (D, marked) in a
    finite 2-category, kept as objects and hom-sets, and the bilimit test
    that reads them.

    Cones_D(X) is the category of σ-cones from the point under the hom
    diagram a(X, D-): a cone's legs t_i : X → D(i) and cells
    σ_u : D(u)∘t_i ⇒ t_j are its objects and cells, its morphisms the
    2-cells between legs.  So the diagram's ``ConeKernel`` is compiled
    once, on the actions of ``hom_actions`` along D, and each X only
    supplies the categories hom(X, D(i)).  That compiled part reads no
    meter: it is ``compiled``, (D, marked)'s ``CompiledCones``, which the
    base keeps in its ``BilimitPlan``, or compiled here when none is
    given.  The meter and the builds are this object's alone: ``at(X)``
    builds Cones_D(X) on first use and keeps it here, never in the plan,
    so a search that tests many cones over D builds each at most once,
    and every search charges every build it makes; only at the X in
    ``legs``, where every hom(X, D(i)) is inhabited.  All ticks are those
    of the builds.  The cones of ``base_cone`` share D, which with a plan
    is the plan's frozen diagram.
    """

    def __init__(self, D: TwoFunctor, marked: frozenset,
                 meter: Meter | None = None, compiled: CompiledCones | None = None):
        c = compiled or CompiledCones(D, marked, hom_actions(D.target))
        self.D, self.marked, self.kernel, self.values, self.legs = \
            D, marked, c.kernel, c.values, c.legs
        self.on_1, self.on_2, self.reaching = c.actions
        self.meter = meter or Meter()
        self._at = {}

    def build(self, X: str) -> tuple[list, dict]:
        """Cones_D(X) built afresh: its cones in generation order, and per
        pair (p, q) of their positions the morphisms from the p-th to the
        q-th, with no composition table.  ``at`` calls it only in ``legs``."""
        amb = self.D.target
        pools = [amb.one_cells(X, d) for d in self.values]
        cats = [amb.hom[(X, d)] for d in self.values]
        cones = list(self.kernel.cones(cats, pools, self.meter))
        hom = self.kernel.morphisms(cats, self.meter)
        return cones, {(p, q): hom(c1, c2)
                       for p, c1 in enumerate(cones) for q, c2 in enumerate(cones)}

    def reached(self, X: str) -> set:
        """The vertices with a 1-cell into X, an object of the base; any
        other X is refused."""
        got = self.reaching.get(X)
        if got is None:
            raise PreconditionFailed(f"{X} is not an object of the base")
        return got

    def at(self, X: str) -> tuple:
        """(the cones of Cones_D(X) as (legs, cells) in generation order,
        the position of each, and per pair of positions the components of
        the morphisms between them); none at an X outside ``legs``, and an X
        that is not an object of the base is refused."""
        got = self._at.get(X)
        if got is None:
            if X not in self.legs:
                self.reached(X)
                return [], {}, {}
            cones, homs = self.build(X)
            got = self._at[X] = (cones, {c: p for p, c in enumerate(cones)}, homs)
        return got

    def base_cone(self, X: str, legs: tuple, cells: tuple) -> BaseCone:
        """The cone with vertex X and the kernel's (legs, cells), marked
        ``searched``, since the kernel decided its laws."""
        cone = BaseCone(self.D.source, self.D, self.marked, X,
                        dict(zip(self.kernel.objs, legs)),
                        dict(zip(self.kernel.cells, cells)))
        object.__setattr__(cone, "searched", True)
        return cone

    def cones(self, X: str) -> list[BaseCone]:
        """The cones of Cones_D(X), in generation order, marked ``searched``."""
        return [self.base_cone(X, *c) for c in self.at(X)[0]]

    def is_bilimit(self, c: BaseCone) -> bool:
        """Bilimit test: every hom diagram a(X, -) preserves the cone, that
        is, precomposition with it, hom(X, vertex) → Cones_D(X), is an
        equivalence at every X, never required to be an isomorphism;
        equivalent bilimits need not be isomorphic.

        The cone must be over (D, marked) with its vertex in the base, and a
        cone that the kernel did not build, not marked ``searched``, must
        pass ``check_base_cone``; any other is refused.  Then its legs and
        cells go to ``is_bilimit_at``.
        """
        if c.diagram != self.D or c.marked != self.marked:
            raise PreconditionFailed("the cone is not over this diagram")
        self.reached(c.vertex)
        if not c.searched and not (rep := check_base_cone(c)).ok:
            raise PreconditionFailed(f"malformed cone: {rep.violations[0].detail}")
        return self.is_bilimit_at(c.vertex, [c.comp[i] for i in self.kernel.objs],
                                  [c.struct[u] for u in self.kernel.cells])

    def is_bilimit_at(self, vertex: str, legs, cells) -> bool:
        """The bilimit test on the cone with that vertex, legs and cells, in
        the kernel's order, taken as lawful, as the kernel's own are.

        A 1-cell t goes to the cone with legs c_i∘t and cells σ_u*1_t, a
        2-cell a to the family 1_(c_i)*a: the ``_comparison`` of
        ``preserves_bilimit`` for a(X, -), into the kept Cones_D(X).  An X
        where both hom(X, vertex) and Cones_D(X) are empty is skipped, as
        the empty functor is an equivalence: all X outside ``legs`` with no
        1-cell X → vertex.
        """
        amb = self.D.target
        walk = self.legs | self.reached(vertex)
        cone_of, morphism_of = _comparison(list(map(self.on_1, legs)),
                                           list(map(self.on_2, cells)))
        is_iso = amb.is_invertible_2cell

        def invertible(rho: tuple) -> bool:
            return all(map(is_iso, rho))

        for X in filter(walk.__contains__, amb.objects):
            _, objects, homs = self.at(X)
            into = amb.hom[(X, vertex)]
            if (objects or into.objects) and not is_equivalence_on_homs(
                    into, objects, cone_of, morphism_of, lambda i, j: set(homs[(i, j)]),
                    invertible):
                return False
        return True


# ---------------------------------------------------------------------------
# Weighted limits and bilimits of Cat-valued diagrams


def comparison_functor(P: CatDiagram, cone: BaseCone,
                       meter: Meter | None = None):
    """The canonical functor P(vertex) -> limit of P over the cone's shape.

    The limit category is realized as ``hom_eps(Δ1, P·D)``, the
    σ-transformations out of the constant terminal diagram and their
    modifications; the comparison sends c to the family of images of c
    under the cone's components.  Both sides are assembled and the
    functor is validated, so with ``is_equivalence`` this is the reference
    for ``preserves_bilimit``, which decides the same comparison on
    hom-sets of the same limit read off P·D's tables by
    ``point_cone_homs``.  It stays on ``hom_eps`` because it looks its
    images up as ``Transformation`` and ``Modification`` keys, which the
    conical reduction does not build.
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
    # a modification's key is its components' keys, (("*", value),) per
    # shape object, so an arrow's image is read off its components alone
    rev = {(*h.cat.arrows[name], m.key()): name for name, m in h.mods.items()}
    objs = sorted(sh.objects)
    arr_map = {a: rev[(obj_map[c], obj_map[c2],
                       tuple((i, (("*", P.on_1[cone.comp[i]].arr_map[a]),)) for i in objs))]
               for a, (c, c2) in PL.arrows.items()}
    F = Functor(PL, h.cat, obj_map, arr_map)
    if not validate_functor(F).ok:
        raise CertificateFailure("comparison functor is not functorial")
    return F, h


def diagram_binding(Q: CatDiagram) -> tuple:
    """A strict Q as ``point_cone_homs`` reads it: its shape, its categories
    by shape object, ``on_1(u)``, Q(u)'s object and arrow maps, ``on_2(x)``,
    Q(x)'s components, and no structure cells."""
    if Q.is_pseudo:
        raise PreconditionFailed("cones from the point expect a strict diagram")
    return (Q.source, Q.on_obj, lambda u: (Q.on_1[u].obj_map, Q.on_1[u].arr_map),
            lambda x: Q.on_2[x].components, None)


def binding_along(P: CatDiagram, shape, obj_map: dict, map1: dict, map2: dict) -> tuple:
    """P·H bound as ``diagram_binding`` binds a diagram, for H from
    ``shape`` to P's base given by its maps, with no composite diagram
    built: P(H(i)) at each object i, and P(H(u)) and P(H(x)) as the
    actions.  ``shape`` is anything with ``objects`` and the rows of
    ``Fin2Cat._shape_index``: a ``Fin2Cat``, or El W's reader.  A pseudo
    P brings its structure cells along, inverted: ``unit(i)`` is
    P's unit at H(i), ``comp(v, u)`` its composition cell at (H(u), H(v))."""
    cells = None
    if P.is_pseudo:
        cells = (lambda i: invert_nat(P.alpha_obj[obj_map[i]]).components,
                 lambda v, u: invert_nat(P.alpha_comp[(map1[u], map1[v])]).components)
    return (shape, {i: P.on_obj[obj_map[i]] for i in shape.objects},
            lambda u: (P.on_1[map1[u]].obj_map, P.on_1[map1[u]].arr_map),
            lambda x: P.on_2[map2[x]].components, cells)


def point_cone_homs(shape, cats: dict, on_1, on_2, cells, marked: frozenset,
                    meter: Meter | None = None,
                    identities: frozenset = frozenset()) -> tuple[list, object]:
    """The σ-cones from the point under a Cat-valued diagram Q on a shape,
    the objects of σ-Nat(Δ1, Q), as ``ConeKernel`` reads them off Q's
    tables, with identity cells at ``identities``, and a function that
    gives the morphisms between two of them: ``hom(p, q)`` lists those
    from the p-th cone to the q-th, enumerated afresh at each call, so a
    caller reads only the hom-sets it needs.  Q comes bound, as
    ``diagram_binding`` or ``binding_along`` give it: the shape, Q(i) in
    ``cats``, the actions ``on_1`` and ``on_2``, and a pseudo Q's
    structure ``cells``.  No ``Functor``, ``NatTransf`` or
    ``Transformation`` is built."""
    meter = meter or Meter()
    kernel = ConeKernel(shape, marked, on_1, on_2, cells, identities)
    cats = [cats[i] for i in kernel.objs]
    cones = list(kernel.cones(cats, [sorted(c.objects) for c in cats], meter))
    hom = kernel.morphisms(cats, meter)
    return cones, lambda p, q: hom(cones[p], cones[q])


def preserves_bilimit(P: CatDiagram, cone: BaseCone,
                      meter: Meter | None = None) -> bool:
    """Whether P takes the cone to a bilimit cone in Cat: the comparison
    P(vertex) → σ-Nat(Δ1, P·D), the functor of ``comparison_functor``, is
    an equivalence, decided on hom-sets.

    The limit is read off P's tables along D by ``point_cone_homs``, with
    no P·D composed (``binding_along``): an object c of P(vertex) goes
    to the cone with objects P(t_i)c and cells P(σ_u)_c, an arrow a to
    the family P(t_i)a, and the comparison is the one the bilimit test
    of ``BaseConeCategories`` decides for each hom diagram.  Morphisms
    are enumerated only into the image, for pairs (i, j) with j an
    image.  ``comparison_functor`` with ``is_equivalence`` is the
    assembled reference.  Strict diagrams only.
    """
    meter = meter or Meter()
    sh, D = cone.shape, cone.diagram
    if D.target != P.source:
        raise PreconditionFailed("cone and diagram live over different bases")
    if P.is_pseudo:
        raise PreconditionFailed("left exactness expects a strict diagram")
    bound = binding_along(P, sh, D.obj_map, D.map1, D.map2)
    cones, hom = point_cone_homs(*bound, cone.marked, meter)
    objs = sorted(sh.objects)
    legs = [(P.on_1[cone.comp[i]].obj_map, P.on_1[cone.comp[i]].arr_map) for i in objs]
    cells = [P.on_2[cone.struct[u]].components for u in sorted(sh.all_one_cells())]
    cats = [bound[1][i] for i in objs]

    def invertible(ms: tuple) -> bool:
        return all(c.is_iso(m) for c, m in zip(cats, ms))

    return is_equivalence_on_homs(P.on_obj[cone.vertex],
                                  {k: n for n, k in enumerate(cones)},
                                  *_comparison(legs, cells),
                                  lambda i, j: set(hom(i, j)), invertible)


@dataclass
class ConicalLimit:
    """A conical σ-limit in Cat, assembled: the σ-cones from the point of
    ``point_cone_homs`` named ``c0, c1, …`` by cone, and their morphisms,
    each a tuple of components, named by (source, target, components).
    ``shape`` lists the shape's objects in the order of a cone's tuples."""

    cat: FinCat
    shape: tuple
    objects: dict
    arrows: dict

    def leg(self, i: str, target: FinCat) -> Functor:
        """The limit's projection to ``target`` = Q(i) at the shape object i."""
        k = self.shape.index(i)
        return Functor(self.cat, target,
                       {c: xs[k] for (xs, _), c in self.objects.items()},
                       {m: ms[k] for (_, _, ms), m in self.arrows.items()})

    def functor(self, into: "ConicalLimit", legs: list, cells: list) -> Functor:
        """The functor into another limit over the same shape that applies
        ``legs[k]`` to a cone's k-th object and morphism component and
        ``cells[n]`` to its n-th cell."""
        om = {c: into.objects[(tuple(F.obj_map[x] for F, x in zip(legs, xs)),
                               tuple(G.arr_map[a] for G, a in zip(cells, cs)))]
              for (xs, cs), c in self.objects.items()}
        am = {m: into.arrows[(om[s], om[t],
                              tuple(F.arr_map[a] for F, a in zip(legs, ms)))]
              for (s, t, ms), m in self.arrows.items()}
        return Functor(self.cat, into.cat, om, am)

    def cell(self, into: "ConicalLimit", F: Functor, G: Functor,
             parts: list) -> NatTransf:
        """The transformation F ⇒ G between functors into another limit
        whose component at a cone has k-th component ``parts[k]`` at the
        cone's k-th object."""
        return NatTransf(F, G, {
            c: into.arrows[(F.obj_map[c], G.obj_map[c],
                            tuple(part[x] for part, x in zip(parts, xs)))]
            for (xs, _), c in self.objects.items()})


def _conical_limit(shape, cats: dict, on_1, on_2, cells, marked: frozenset, meter: Meter,
                   prefixes: tuple[str, str] = ("c", "m"), cone_key=None,
                   morphism_key=None, identities: frozenset = frozenset()) -> ConicalLimit:
    """σ-Nat(Δ1, Q) for Q on a shape, bound as ``point_cone_homs`` takes
    it, with identity cells at ``identities``: ``point_cone_homs``
    assembled, composed componentwise, one tick per composable pair.

    Cones are numbered, and each hom-set listed, in the kernel's order or
    by ``cone_key`` and ``morphism_key``; the names follow the order."""
    cones, hom = point_cone_homs(shape, cats, on_1, on_2, cells, marked, meter, identities)
    objs = sorted(shape.objects)
    cats = [cats[i] for i in objs]
    order = list(range(len(cones)))
    if cone_key is not None:
        order.sort(key=lambda p: cone_key(cones[p]))

    def composite(g: tuple, f: tuple) -> tuple:
        meter.tick()
        return tuple(c.compose[(b, a)] for c, b, a in zip(cats, g, f))

    homs = {}
    for a, p in enumerate(order):
        for b, q in enumerate(order):
            ms = hom(p, q)
            homs[(a, b)] = ms if morphism_key is None else sorted(ms, key=morphism_key)
    cat, data = assemble_category(
        len(cones), prefixes, homs,
        lambda ms: all(c.is_identity(m) for c, m in zip(cats, ms)),
        lambda ms: ms, composite)
    return ConicalLimit(cat, tuple(objs),
                        {cones[p]: f"{prefixes[0]}{a}" for a, p in enumerate(order)},
                        {(*cat.arrows[m], ms): m for m, ms in data.items()})


def _transformation_order(W: CatDiagram, P: CatDiagram, el: el_mod._Elements) -> tuple:
    """Sort keys that order the cones from the point under P·π over El W,
    and the morphisms between two of them, as ``hom_eps`` orders what
    they stand for: by ``Transformation.key`` and ``Modification.key``.

    A cone stands for θ : W ⇒ P with θ_A(x) its object at (x, A), σ_f,x
    its cell at (f, 1_W(f)x), and θ_A(a), for a : x → x', its cell at
    (1_A, a∘α⁻¹_x) after P's unit at θ_A(x), where α⁻¹_x is the arrow of
    the identity 1-cell of (x, A): the cell at (1_A, a) itself for strict
    W and P, which invert no unit.  A morphism stands for the
    modification with m_A,x its component at (x, A).  The kernel's own order reads all objects
    before any cell, and sorts (x, A) by name rather than by A, then x,
    so it differs in general."""
    base, (objs, cells) = W.source, el._shape_index[:2]
    pos = {o: k for k, o in enumerate(objs)}
    cell = {u: n for n, u in enumerate(cells)}
    comps, structural = [], []
    for A in sorted(base.objects):
        WA, idA = W.on_obj[A], base.id1[A]
        unit = {x: el.pairs1[el.id1[el_mod.obj_name(x, A)]][1] for x in WA.objects}
        comps.append((A, P.on_obj[A].compose, P.alpha_at(A).components,
                      [(x, pos[el_mod.obj_name(x, A)]) for x in sorted(WA.objects)],
                      [(a, pos[el_mod.obj_name(x, A)],
                        cell[el_mod.mor_name(idA, WA.compose[(a, unit[x])], x)])
                       for a, (x, _) in sorted(WA.arrows.items())]))
    for f in sorted(base.all_one_cells()):
        Wf, WB = W.on_1[f], W.on_obj[base.tgt1(f)]
        structural.append((f, [(x, cell[el_mod.mor_name(f, WB.identity[Wf.obj_map[x]], x)])
                               for x in sorted(W.on_obj[base.src1(f)].objects)]))

    def cone_key(cone: tuple) -> tuple:
        xs, cs = cone
        return (tuple((A, (tuple((x, xs[k]) for x, k in objs),
                           tuple((a, c[(cs[n], u[xs[k]])]) for a, k, n in arrs)))
                      for A, c, u, objs, arrs in comps),
                tuple((f, tuple((x, cs[n]) for x, n in row)) for f, row in structural))

    def morphism_key(ms: tuple) -> tuple:
        return tuple((A, tuple((x, ms[k]) for x, k in objs)) for A, _, _, objs, _ in comps)

    return cone_key, morphism_key


def weighted_sigma_limit(W: CatDiagram, P: CatDiagram, flavor: Flavor,
                         meter: Meter | None = None) -> ConicalLimit:
    """{W, P}_σ, in any flavour, as the conical σ-limit of P·π over the
    elements of W (Street 1976), with (f, φ) marked when φ is invertible
    and the flavour asks f for an invertible cell (every cartesian arrow
    for pseudo, those over marked f for σ, none for lax and strict), and
    for the strict flavour an identity cell forced at every (f, 1_W(f)x).
    Such a cone is a transformation W ⇒ P of the flavour and a cone
    morphism a modification, so ``point_cone_homs`` reads them off P's
    tables and ``_conical_limit`` assembles them, named ``t0, …`` and
    ``m0, …`` in ``hom_eps``'s order: the category equals
    ``hom_eps(W, P, flavor).cat`` table for table.

    El W is read, not built: the kernel runs on the rows of its reader
    ``elements._Elements``, whose identities and composites carry a
    pseudo W's structure cells, and P·π is bound along the reader's
    ``pairs1`` and ``pairs2`` with no projection or composite diagram,
    with a pseudo P's structure cells (``binding_along``).  The strict
    flavour refuses pseudo input, as ``hom_eps`` does.
    """
    meter = meter or Meter()
    if W.source != P.source:
        raise PreconditionFailed("the diagrams live on different bases")
    if flavor.requires_identity() and (W.is_pseudo or P.is_pseudo):
        raise PreconditionFailed("strict flavor requires strict diagrams")
    el = el_mod._Elements(W, False, meter)
    marked = frozenset(nm for nm in el.cart if flavor.requires_invertible(el.pairs1[nm][0]))
    identities = frozenset()
    if flavor.requires_identity():
        identities = frozenset(nm for nm, (f, phi) in el.pairs1.items()
                               if W.on_obj[W.source.tgt1(f)].is_identity(phi))
    bound = binding_along(P, el, {o: A for o, (_, A) in el.points.items()},
                          {u: f for u, (f, _) in el.pairs1.items()}, el.pairs2)
    return _conical_limit(*bound, marked, meter, ("t", "m"),
                          *_transformation_order(W, P, el), identities)


def weighted_limit_cat(W: CatDiagram, P: CatDiagram, flavor: Flavor,
                       meter: Meter | None = None) -> ConicalLimit:
    """The weighted limit {W, P} in Cat, the category of transformations
    W ⇒ P of the flavour and their modifications, strict or pseudo:
    ``weighted_sigma_limit``; callers read ``.cat``."""
    return weighted_sigma_limit(W, P, flavor, meter)


def bilimit_cat(W: CatDiagram, F: CatDiagram,
                meter: Meter | None = None) -> ConicalLimit:
    """A finite bilimit, computed as the pseudolimit {W, F}_p by
    ``weighted_limit_cat``."""
    return weighted_limit_cat(W, F, PSEUDO, meter)


# ---------------------------------------------------------------------------
# σ-filtered σ-colimits against the finite bilimits


def _restrict(T: CatDiagram, base: Fin2Cat, pair, fixed: tuple) -> CatDiagram:
    """T with one coordinate fixed, as a diagram on ``base``: ``pair(c, k)``
    names the cell of T's base pairing the cell c of ``base`` with
    ``fixed[d]``, the fixed object, its identity or that identity's
    identity, by the dimension d of c."""
    return CatDiagram(base, {A: T.on_obj[pair(A, fixed[0])] for A in base.objects},
                      {f: T.on_1[pair(f, fixed[1])] for f in base.all_one_cells()},
                      {x: T.on_2[pair(x, fixed[2])] for x in base.all_two_cells()})


def commutation_check(T: CatDiagram, index: Fin2Cat, sigma: WideSub, shape: Shape,
                      cap: int = DEFAULT_CAP,
                      meter: Meter | None = None) -> EquivalenceReport:
    """Whether the canonical comparison
    σ-colim_i lim_s T(i,s) → lim_s σ-colim_i T(i,s) is an equivalence, for
    a strict T on index × shape.

    lim is the shape's conical σ-limit, for the shape's marking
    (``_conical_limit``), and σ-colim the conical σ-colimit for ``sigma``
    (``conical_sigma_colimit``).  The limits L_i = lim_s T(i,s) form a
    diagram on the index: T(f,1) and T(α,1) act on cones coordinatewise.
    The colimits C_s = σ-colim_i T(i,s) form a diagram on the shape: C(u)
    is induced from C_s by the cone κ^t·T(1,u), and C(θ) has component
    κ^t_i(T(1,θ)_x) at the element (x,i).  The comparison is induced from
    σ-colim_i L_i by the cone whose leg at i applies κ^s_i coordinatewise
    and whose cell at f has the components of κ^s's cells.  A colimit
    still growing at the cap raises UndecidedAtCap.  The report's witness
    names an object of lim_s C_s outside the essential image, or a
    hom-set that is not mapped bijectively.
    """
    meter = meter or Meter()
    if T.is_pseudo:
        raise PreconditionFailed("the commutation check expects a strict diagram")
    sh = shape.cat
    objs, cells = sorted(sh.objects), sorted(sh.all_one_cells())

    def colimit(Q: CatDiagram) -> ColimitResult:
        res = conical_sigma_colimit(Q, sigma, cap, meter)
        if not res.finite:
            raise UndecidedAtCap("a σ-colimit is still growing at the cap")
        return res

    def limit(Q: CatDiagram) -> ConicalLimit:
        return _conical_limit(*diagram_binding(Q), shape.marked, meter)

    def fixed(a: Fin2Cat, k: str) -> tuple:
        return k, a.id1[k], a.id2(a.id1[k])

    def t1(f: str, k: str) -> Functor:
        """T(f, 1_k)."""
        return T.on_1[pair_name(f, sh.id1[k])]

    limits = {i: limit(_restrict(T, sh, lambda c, k: pair_name(k, c), fixed(index, i)))
              for i in index.objects}
    L1 = {f: limits[index.src1(f)].functor(limits[index.tgt1(f)],
                                           [t1(f, s) for s in objs],
                                           [t1(f, sh.tgt1(u)) for u in cells])
          for f in index.all_one_cells()}
    L2 = {}
    for x in index.all_two_cells():
        f, g = index.src2(x), index.tgt2(x)
        L2[x] = limits[index.src1(f)].cell(
            limits[index.tgt1(f)], L1[f], L1[g],
            [T.on_2[pair_name(x, sh.id2(sh.id1[s]))].components for s in objs])
    lhs = colimit(CatDiagram(index, {i: L.cat for i, L in limits.items()}, L1, L2))

    cols = {s: colimit(_restrict(T, index, pair_name, fixed(sh, s))) for s in objs}
    C1 = {}
    for u in sh.all_one_cells():
        src, tgt = cols[sh.src1(u)], cols[sh.tgt1(u)]
        tu = {i: T.on_1[pair_name(index.id1[i], u)] for i in index.objects}
        C1[u] = induced_from_colimit(src, SigmaCone(
            src.diagram, src.marked, tgt.category,
            {i: compose_functors(tgt.cone.components[i], tu[i]) for i in index.objects},
            {f: whisker_nat_functor(tgt.cone.structural[f], tu[index.src1(f)])
             for f in index.all_one_cells()}))
    C2 = {}
    for th in sh.all_two_cells():
        u = sh.src2(th)
        comps = {}
        points = cols[sh.src1(u)].gamma.points
        for o in cols[sh.src1(u)].category.objects:
            x, i = points[o]
            cell = T.on_2[pair_name(index.id2(index.id1[i]), th)].components[x]
            comps[o] = cols[sh.tgt1(u)].cone.components[i].arr_map[cell]
        C2[th] = NatTransf(C1[u], C1[sh.tgt2(th)], comps)
    rhs = limit(CatDiagram(sh, {s: c.category for s, c in cols.items()}, C1, C2))

    legs = {i: limits[i].functor(rhs, [cols[s].cone.components[i] for s in objs],
                                 [cols[sh.tgt1(u)].cone.components[i] for u in cells])
            for i in index.objects}
    structural = {}
    for f in index.all_one_cells():
        i, j = index.src1(f), index.tgt1(f)
        structural[f] = limits[i].cell(rhs, compose_functors(legs[j], L1[f]), legs[i],
                                       [cols[s].cone.structural[f].components
                                        for s in objs])
    cone = SigmaCone(lhs.diagram, lhs.marked, rhs.cat, legs, structural)
    return is_equivalence(induced_from_colimit(lhs, cone))


# ---------------------------------------------------------------------------
# Coends


def coend_eps(T: CatDiagram, base: Fin2Cat, flavor: Flavor,
              cap: int = DEFAULT_CAP,
              meter: Meter | None = None) -> PresentedCategory:
    """The flavor-constrained coend of a two-sided strict diagram.

    The presentation is the classifier of the flavor's dinatural cocones,
    built by ``_Classifier`` with no Φ.  Objects (x,A), x in T(A, A), each
    name minted once; generators d[A|u] for each non-identity u of T(A, A)
    and e[f|z] : (T(1_B, f)z, B) → (T(f, 1_A)z, A) for each non-identity
    f : A → B and z in T(B, A), e being empty at identities.  Relations:
    T(A, A)'s composition as hints; naturality of e[f|-]; e[g|T(1_C, f)z]
    then e[f|T(g, 1_A)z] is e[gf|z]; e[f|z] then d[A|T(x, 1_A)_z] is
    d[B|T(1_B, x)_z] then e[g|z] for x : f ⇒ g; e[f|z] inverted where the
    flavor asks it.  The strict flavor merges the ends of each e instead.
    Its functors into any E are exactly the dinatural cocones with vertex
    E, so the realization is the coend and its ``finite`` status is exact;
    no certificate is needed.
    """
    meter = meter or Meter()
    if T.is_pseudo:
        raise PreconditionFailed("coends are implemented for strict diagrams")
    if T.source != two_cat_product(op_dual(base), base):
        raise PreconditionFailed("T must live on two_cat_product(op_dual(base), base)")
    strict = flavor.requires_identity()
    cl, points, merges, d, e, tail = _Classifier(), {}, [], {}, {}, {}
    for A in sorted(base.objects):
        TA = T.on_obj[pair_name(A, A)]
        for x in sorted(TA.objects):
            tail[(base.id1[A], x)] = name = el_mod.obj_name(x, A)
            mint(points, name, (x, A))
            e[(base.id1[A], x)] = None
        for u, (x, x2) in sorted(TA.arrows.items()):
            d[(A, u)] = None if TA.is_identity(u) else cl.gen(
                el_mod.obj_name(x, A), el_mod.obj_name(x2, A), None)
        for (v, u), w in sorted(TA.compose.items()):
            cl.hint(d[(A, u)], d[(A, v)], d[(A, w)])
    cl.obj_image = dict.fromkeys(points)
    for f in sorted(set(base.all_one_cells()) - set(base.id1.values())):
        A, B = base.src1(f), base.tgt1(f)
        lf, rf = T.on_1[pair_name(base.id1[B], f)], T.on_1[pair_name(f, base.id1[A])]
        TBA = T.on_obj[pair_name(B, A)]
        for z in sorted(TBA.objects):
            tail[(f, z)] = src = el_mod.obj_name(lf.obj_map[z], B)
            tgt = el_mod.obj_name(rf.obj_map[z], A)
            e[(f, z)] = None if strict else cl.gen(src, tgt, None)
            if strict:
                merges.append((src, tgt))
            elif flavor.requires_invertible(f):
                cl.inverted.append(e[(f, z)])
        for w, (z, z2) in sorted(TBA.arrows.items()):
            cl.rel((d[(B, lf.arr_map[w])], e[(f, z2)]),
                   (e[(f, z)], d[(A, rf.arr_map[w])]), tail[(f, z)])
    for (g, f), gf in sorted(base.hcomp1.items()):
        A, C = base.src1(f), base.tgt1(g)
        zf = T.on_1[pair_name(base.id1[C], f)].obj_map  # T(C, A) → T(C, B)
        zg = T.on_1[pair_name(g, base.id1[A])].obj_map  # T(C, A) → T(B, A)
        for z in sorted(T.on_obj[pair_name(C, A)].objects):
            cl.hint(e[(g, zf[z])], e[(f, zg[z])], e[(gf, z)])
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        A, B = base.src1(f), base.tgt1(f)
        lx = T.on_2[pair_name(base.id2(base.id1[B]), x)].components  # in T(B, B)
        rx = T.on_2[pair_name(x, base.id2(base.id1[A]))].components  # in T(A, A)
        for z in sorted(T.on_obj[pair_name(B, A)].objects):
            cl.rel((e[(f, z)], d[(A, rx[z])]), (d[(B, lx[z])], e[(g, z)]), tail[(f, z)])
    pres = cl.presentation()
    if merges:
        m = partition(pres.objects, merges)
        ends = {g: (m[s], m[t]) for g, (s, t) in pres.generators.items()}
        pres = replace(pres, objects=tuple(sorted(set(m.values()))), generators=ends,
                       relations=tuple((u, v, m[s]) for u, v, s in pres.relations))
    return saturate_presentation(pres, cap, meter)
