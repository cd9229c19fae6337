"""Flatness of Cat-valued diagrams, decided through the elements construction.

A diagram is recorded as flat exactly when its 2-category of elements is
cofiltered with respect to the cocartesian marking
(``filteredness.check_sigma_cofiltered`` on El_P's reader
``elements._Elements``).  Nothing is assembled, for a strict diagram or a
pseudofunctor; a pseudofunctor's verdict is cross-checked against its
strictification's.  The verdict carries the full filteredness report as
evidence and names the route, since the defining Kan-extension property
quantifies over an infinite 2-category and is not checked directly.
Left exactness is checked shape by shape against user-supplied or
generated bilimit cones, and the agreement of the two notions on
finitely complete bases is enforced as a consistency check, never
assumed.  The search for generated cones reads what depends on the base
alone from the plan the base keeps (``Fin2Cat._bilimit_plan``): the
generating diagrams, the hom actions and a compiled cone kernel per
diagram, which charge no tick.  Every search still builds, and charges,
every cone category it reads, and the cones it returns share the plan's
frozen diagrams.  The Yoneda comparison reads {Hom(A, -), Q}_p on the cone
kernel (``colimits.weighted_sigma_limit``), for a strict or a pseudo Q, with
no transformation enumerated; the canonical expression reads its
σ-colimits on El_P's reader.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CAP, Meter
from .errors import Inconsistency, PreconditionFailed
from .fincat import (Functor, NatTransf, compose_functors, is_equivalence, mint,
                     mk_fincat, EquivalenceReport, validate_functor)
from .two_cat import Fin2Cat, Marked2Cat, WideSub
from .transforms import CatDiagram, Transformation, PSEUDO, reinterpret_as_pseudo
from .elements import _Elements, obj_name
from .filteredness import FilterednessReport, check_sigma_cofiltered
from .colimits import (BaseConeCategories, SigmaCone, check_base_cone,
                       conical_sigma_colimit, diagram_along_dual,
                       induced_from_colimit, preserves_bilimit, weighted_sigma_limit)
from .shapes import generating_diagrams


# ---------------------------------------------------------------------------
# Representables and the Yoneda comparison


def representable(a: Fin2Cat, A: str) -> CatDiagram:
    """The covariant hom diagram at A, acting by composition."""
    if A not in a.objects:
        raise PreconditionFailed(f"{A} is not an object of the base")
    on_obj = {B: a.hom[(A, B)] for B in a.objects}
    on_1 = {}
    for f in a.all_one_cells():
        B, C = a.src1(f), a.tgt1(f)
        om = {g: a.hcomp1[(f, g)] for g in a.one_cells(A, B)}
        am = {d: a.hcomp2[(a.id2(f), d)] for d in a.hom[(A, B)].arrows}
        on_1[f] = Functor(a.hom[(A, B)], a.hom[(A, C)], om, am)
    on_2 = {}
    for x in a.all_two_cells():
        f, g = a.src2(x), a.tgt2(x)
        B = a.src1(f)
        comps = {h: a.hcomp2[(x, a.id2(h))] for h in a.one_cells(A, B)}
        on_2[x] = NatTransf(on_1[f], on_1[g], comps)
    return CatDiagram(a, on_obj, on_1, on_2)


def yoneda_check(Q: CatDiagram, A: str,
                 meter: Meter | None = None) -> EquivalenceReport:
    """Evaluation at 1_A, from {Hom(A, -), Q}_p to Q(A), must be an
    equivalence: the leg of ``weighted_sigma_limit`` at the element
    (1_A, A), read on the elements of Hom(A, -) with none assembled, for
    a strict or a pseudo Q."""
    meter = meter or Meter()
    base = Q.source
    ev = weighted_sigma_limit(representable(base, A), Q, PSEUDO, meter).leg(
        obj_name(base.id1[A], A), Q.on_obj[A])
    rep = validate_functor(ev)
    if not rep.ok:
        raise Inconsistency(f"evaluation is not a functor: {rep.violations[0].detail}")
    return is_equivalence(ev)


# ---------------------------------------------------------------------------
# Left exactness against bilimit cones


@dataclass
class ExactnessReport:
    verdict: bool
    per_shape: list  # (label, bool)
    no_evidence: bool = False


def check_left_exact(P: CatDiagram, bilimit_cones,
                     meter: Meter | None = None) -> ExactnessReport:
    """Preservation of each supplied bilimit cone, up to equivalence,
    decided on hom-sets by ``preserves_bilimit``.

    Cones must be declared bilimit cones in the base; a malformed cone
    is a precondition failure, and so is a pseudo diagram; the cones of
    ``generate_bilimit_cones``, marked ``searched``, are not checked again.
    An empty list is vacuously true and flagged as carrying no evidence.
    """
    meter = meter or Meter()
    if P.is_pseudo:
        raise PreconditionFailed("left exactness expects a strict diagram")
    if not bilimit_cones:
        return ExactnessReport(True, [], no_evidence=True)
    per_shape = []
    verdict = True
    for label, cone in bilimit_cones:
        if not cone.searched and not (rep := check_base_cone(cone)).ok:
            raise PreconditionFailed(f"malformed cone {label}: {rep.violations[0].detail}")
        ok = preserves_bilimit(P, cone, meter)
        per_shape.append((label, ok))
        verdict = verdict and ok
    return ExactnessReport(verdict, per_shape)


def generate_bilimit_cones(a: Fin2Cat, meter: Meter | None = None) -> list:
    """Search the base for bilimit cones of the generating shapes: the
    one diagram of the empty shape, whose bilimit is a biterminal object,
    then every diagram of the four binary shapes (``generating_diagrams``).

    Only shapes certified by the bilimit test are returned; on bases without
    some bilimit the shape is simply absent.  What depends on the base
    alone is its plan, ``Fin2Cat._bilimit_plan``, built on the first search
    and kept as long as the base: the generating diagrams, the base's
    ``hom_actions`` and each diagram's compiled ``ConeKernel``.  It charges
    no tick.  Each diagram (D, marked) is then searched over a
    ``BaseConeCategories`` of this call: every Cones_D(X) with X in
    ``legs``, where each hom(X, D(i)) is inhabited, is built first, once;
    every other is empty and never built.  The ticks are those of these
    builds, and every call charges every build it makes, so a search on a
    base that earlier searches have planned costs the same ticks.  Then
    the vertices L are tried in sorted order, the cones of Cones_D(L) in
    generation order, and the first that passes the bilimit test is
    returned, the only one made a ``BaseCone``; the returned cones share
    the plan's frozen diagrams, which nothing mutates.  Only an L with
    hom(X, L) inhabited exactly where Cones_D(X) is can pass, as the test
    asks at each X for an equivalence hom(X, L) → Cones_D(X), and none
    joins an empty and an inhabited category.  So the filter moves no cone; nor do
    the builds up front move the ticks, since the filter itself reads
    every Cones_D(X) in ``legs``.
    """
    meter = meter or Meter()
    plan = a._bilimit_plan

    def search(compiled):
        over = BaseConeCategories(compiled.D, compiled.marked, meter, compiled)
        inhabited = {X for X in plan.objects if X in over.legs and over.at(X)[0]}
        return next((over.base_cone(L, *cone) for L in plan.objects
                     if over.reaching[L] == inhabited
                     for cone in over.at(L)[0] if over.is_bilimit_at(L, *cone)), None)

    return [(label, cone) for label, compiled in plan.diagrams
            if (cone := search(compiled)) is not None]


# ---------------------------------------------------------------------------
# Flatness


@dataclass
class FlatnessVerdict:
    verdict: str  # "flat" | "not-flat" | "undecided"
    route: str
    evidence: object


def _cofiltered_elements(P: CatDiagram, meter: Meter) -> FilterednessReport:
    """Cofilteredness of El_P, marked by its cartesian 1-cells, read off
    El_P's reader with nothing assembled."""
    el = _Elements(P, False, meter)
    return check_sigma_cofiltered(Marked2Cat(el, WideSub(el, el.cart)), meter)


def check_flat(P: CatDiagram, meter: Meter | None = None) -> FlatnessVerdict:
    """Flatness of a strict diagram via cofilteredness of its elements."""
    meter = meter or Meter()
    rep = _cofiltered_elements(P, meter)
    return FlatnessVerdict("flat" if rep.verdict else "not-flat",
                           "elements-cofiltered", rep)


def check_flat_pseudo(P: CatDiagram, meter: Meter | None = None) -> FlatnessVerdict:
    """Flatness of a pseudofunctor, cross-checked through strictification.

    The direct route tests cofilteredness of the pseudo elements
    construction, read as ``check_flat`` reads El_P; the second route
    strictifies and runs ``check_flat``, which reads the
    strictification's elements the same way.  Disagreement raises, since
    the two must coincide.
    """
    meter = meter or Meter()
    if not P.is_pseudo:
        P = reinterpret_as_pseudo(P)
    rep = _cofiltered_elements(P, meter)
    tilde, eta, eps = strictify(P, meter)
    other = check_flat(tilde, meter)
    mine = "flat" if rep.verdict else "not-flat"
    if other.verdict != mine:
        raise Inconsistency(
            f"pseudo route says {mine} but strictified route says {other.verdict}")
    return FlatnessVerdict(mine, "elements-cofiltered+strictified", rep)


# ---------------------------------------------------------------------------
# Canonical expression as a colimit of representables


@dataclass
class CanonicalExpression:
    verdict: str  # "equivalent" | "undecided" | "failed"
    per_object: list  # (object, status, is_equivalence bool | None)


def canonical_expression(P: CatDiagram, cap: int = DEFAULT_CAP,
                         meter: Meter | None = None) -> CanonicalExpression:
    """Rebuild P, object by object, as a colimit of representables.

    Over each base object B the representables A(−, B) carried along El_P
    have a conical colimit relative to the cocartesian marking; the
    canonical comparison into P(B) must be an equivalence.  El_P is read
    on its reader (``colimits.diagram_along_dual``), and A(−, B) off the
    base's own tables (``_representable_at``).  A failed comparison fails
    the verdict, else an undecided localization leaves it undecided.  A
    pseudo P is refused.
    """
    meter = meter or Meter()
    if P.is_pseudo:
        raise PreconditionFailed("use elements_of_pseudo for pseudofunctors")
    base = P.source
    el = _Elements(P, False, meter)
    dual = el.dual()
    marked = WideSub(dual, el.cart)
    cells1, cells2 = {f for f, _ in el.pairs1.values()}, set(el.pairs2.values())
    per_object = []
    for B in sorted(base.objects):
        QB = diagram_along_dual(dual, *_representable_at(base, B, cells1, cells2))
        colim = conical_sigma_colimit(QB, marked, cap, meter)
        if not colim.finite:
            per_object.append((B, "undecided", None))
            continue
        F = induced_from_colimit(colim, _comparison_cone(P, el, QB, B))
        per_object.append((B, "finite", is_equivalence(F).verdict))
    oks = [ok for _, _, ok in per_object]
    verdict = "failed" if False in oks else "undecided" if None in oks else "equivalent"
    return CanonicalExpression(verdict, per_object)


def _representable_at(base: Fin2Cat, B: str, cells1, cells2) -> tuple:
    """A(−, B) read off the base's ``hom``, ``hcomp1`` and ``hcomp2`` at the
    1-cells ``cells1`` and the 2-cells ``cells2`` alone: A(A, B) at A, and
    precomposition A(C, B) → A(A, B) by f : A → C, whiskered by x : f ⇒ g."""
    on_1, on_2 = {}, {}
    for f in cells1:
        C = base.tgt1(f)
        on_1[f] = Functor(base.hom[(C, B)], base.hom[(base.src1(f), B)],
                          {g: base.hcomp1[(g, f)] for g in base.one_cells(C, B)},
                          {d: base.hcomp2[(d, base.id2(f))] for d in base.hom[(C, B)].arrows})
    for x in cells2:
        f = base.src2(x)
        on_2[x] = NatTransf(on_1[f], on_1[base.tgt2(x)],
                            {h: base.hcomp2[(base.id2(h), x)]
                             for h in base.one_cells(base.tgt1(f), B)})
    return {A: base.hom[(A, B)] for A in base.objects}, on_1, on_2


def _comparison_cone(P: CatDiagram, el: _Elements, QB: CatDiagram,
                     B: str) -> SigmaCone:
    base = P.source
    PB = P.on_obj[B]
    comps = {}
    for o in QB.source.objects:
        x, A = el.points[o]
        om = {h: P.on_1[h].obj_map[x] for h in base.one_cells(A, B)}
        am = {d: P.on_2[d].components[x] for d in base.hom[(A, B)].arrows}
        comps[o] = Functor(base.hom[(A, B)], PB, om, am)
    structural = {}
    for nm, (f, phi) in el.pairs1.items():
        oa, ob = el.ends1[nm]
        comp = {h: P.on_1[h].arr_map[phi] for h in base.one_cells(base.tgt1(f), B)}
        src = compose_functors(comps[oa], QB.on_1[nm])
        structural[nm] = NatTransf(src, comps[ob], comp)
    return SigmaCone(QB, el.cart, PB, comps, structural)


# ---------------------------------------------------------------------------
# Strictification


def strictify(P: CatDiagram, meter: Meter | None = None):
    """Replace a pseudofunctor by a strict diagram up to pseudo-equivalence.

    The category P̃(B) collects pairs (f, x) of an incoming 1-cell f and
    an element x over its source, with arrows taken between their values
    P(f)x: it is the full image of the counit ε_B on these objects, and
    both are read off the names minted for B in one pass.  The action on
    1-cells composes names, and conjugates each arrow by the structure
    cells P(g)P(f)x → P(gf)x, which are also the counit's cells.  Returns
    the strict diagram with the unit and counit transformations, both
    pseudonatural with equivalence components.
    """
    meter = meter or Meter()
    if not P.is_pseudo:
        P = reinterpret_as_pseudo(P)
    base = P.source

    def pobj(f, x):
        return f"({f},{x})"

    def parr(phi, o1, o2):
        return f"{phi}:{o1}->{o2}"

    # per object B of the base, the names minted for its category: object
    # name -> (f, x) with its value P(f)x, and arrow name -> (phi, o1, o2)
    # with an index by source, o1 -> [(name, phi, o2)]
    points, tilde_obj, eps_comps = {}, {}, {}
    for B in sorted(base.objects):
        pts = points[B] = {}
        val, arrs, out, identity, compose = {}, {}, {}, {}, {}
        PB = P.on_obj[B]
        for A in sorted(base.objects):
            for f in base.one_cells(A, B):
                for x in sorted(P.on_obj[A].objects):
                    mint(pts, pobj(f, x), (f, x))
                    val[pobj(f, x)] = P.on_1[f].obj_map[x]
        for o1 in pts:
            for o2 in pts:
                for phi in PB.hom(val[o1], val[o2]):
                    meter.tick()
                    n = parr(phi, o1, o2)
                    mint(arrs, n, (phi, o1, o2))
                    out.setdefault(o1, []).append((n, phi, o2))
            identity[o1] = parr(PB.identity[val[o1]], o1, o1)
        for n1, (phi1, o1, o2) in arrs.items():
            for n2, phi2, o3 in out[o2]:
                compose[(n2, n1)] = parr(PB.compose[(phi2, phi1)], o1, o3)
        c = tilde_obj[B] = mk_fincat(
            pts, {n: (o1, o2) for n, (_, o1, o2) in arrs.items()}, identity, compose)
        eps_comps[B] = Functor(c, PB, {o: val[o] for o in c.objects},
                               {n: arrs[n][0] for n in c.arrows})

    def move(g, o):
        """The object (gf, x) that P̃(g) sends o = (f, x) to, and the
        structure cell P(g)P(f)x → P(gf)x."""
        f, x = points[base.src1(g)][o]
        return pobj(base.hcomp1[(g, f)], x), P.alpha_comp[(f, g)].components[x]

    # P̃(g) conjugates P(g)φ by the structure cells, φ read off ε_B
    tilde_1, eps_struct = {}, {}
    for g in base.all_one_cells():
        E, E2 = eps_comps[base.src1(g)], eps_comps[base.tgt1(g)]
        PB2, Pg = E2.target, P.on_1[g]
        moved = {o: move(g, o) for o in E.source.objects}
        am = {}
        for n, (o1, o2) in E.source.arrows.items():
            (m1, a1), (m2, a2) = moved[o1], moved[o2]
            conj = PB2.compose[(Pg.arr_map[E.arr_map[n]], PB2.inverse(a1))]
            am[n] = parr(PB2.compose[(a2, conj)], m1, m2)
        tilde_1[g] = Functor(E.source, E2.source,
                             {o: m for o, (m, _) in moved.items()}, am)
        eps_struct[g] = NatTransf(compose_functors(Pg, E),
                                  compose_functors(E2, tilde_1[g]),
                                  {o: a for o, (_, a) in moved.items()})

    tilde_2 = {}
    for cell in base.all_two_cells():
        G, G2 = tilde_1[base.src2(cell)], tilde_1[base.tgt2(cell)]
        comps = {}
        for o in G.source.objects:
            f, x = points[base.src1(base.src2(cell))][o]
            whisk = base.hcomp2[(cell, base.id2(f))]
            comps[o] = parr(P.on_2[whisk].components[x], G.obj_map[o], G2.obj_map[o])
        tilde_2[cell] = NatTransf(G, G2, comps)

    tilde = CatDiagram(base, tilde_obj, tilde_1, tilde_2)

    eta_comps, eta_struct = {}, {}
    for A in base.objects:
        PA = P.on_obj[A]
        idA = base.id1[A]
        om = {x: pobj(idA, x) for x in PA.objects}
        am = {}
        PidA = P.on_1[idA]
        for n, (x, y) in PA.arrows.items():
            am[n] = parr(PidA.arr_map[n], om[x], om[y])
        eta_comps[A] = Functor(PA, tilde_obj[A], om, am)
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        PA = P.on_obj[A]
        comp = {}
        for x in PA.objects:
            src_o = pobj(base.hcomp1[(f, base.id1[A])], x)
            tgt_o = pobj(base.id1[B], P.on_1[f].obj_map[x])
            cellval = P.alpha_obj[B].components[P.on_1[f].obj_map[x]]
            comp[x] = parr(cellval, src_o, tgt_o)
        src = compose_functors(tilde_1[f], eta_comps[A])
        tgt = compose_functors(eta_comps[B], P.on_1[f])
        eta_struct[f] = NatTransf(src, tgt, comp)
    eta = Transformation(P, tilde, eta_comps, eta_struct, PSEUDO)
    eps = Transformation(tilde, P, eps_comps, eps_struct, PSEUDO)
    return tilde, eta, eps


# ---------------------------------------------------------------------------
# The exactness bridge


def exact_implies_cofiltered_check(P: CatDiagram, bilimit_cones,
                                   meter: Meter | None = None) -> FilterednessReport:
    """Left exactness must force cofilteredness of the elements.

    The theorem asks for a bilimit of every generating diagram of the base,
    so a base where one has no supplied cone, matched by its label in
    ``generating_diagrams``, is refused, naming the first such diagram.
    Past that, a failure here is inconsistent, not a property of the input:
    exact diagrams have cofiltered elements.
    """
    meter = meter or Meter()
    labels = {label for label, _ in bilimit_cones}
    for label, _, _ in generating_diagrams(P.source):
        if label not in labels:
            raise PreconditionFailed(f"no bilimit cone for {label}: the base may lack it")
    ex = check_left_exact(P, bilimit_cones, meter)
    if not ex.verdict:
        raise PreconditionFailed("diagram is not left exact on the supplied cones")
    rep = check_flat(P, meter).evidence
    if not rep.verdict:
        raise Inconsistency(
            "left exact diagram with non-cofiltered elements: "
            f"counterexample {rep.counterexample}")
    return rep
