"""Dicones and the two-sided diagrams they live on, kept as references.

Kept for the tests only.  A ``Dicone`` is a cone over a strict two-sided
diagram T on the product of a base's 1-cell dual with the base;
``check_dicone`` and ``check_dicone_morphism`` state the laws LD0, LD1,
LD2 and LDM exhaustively, and ``tests/certificate_reference.py`` reads
T's cells through ``_t_cell`` and ``_t_2cell``.  ``internal_hom_diagram``
builds (A, B) ↦ Cat(P A, Q B), whose end recovers the Hom category of
transformations P ⇒ Q, and ``cotensor_diagram`` the pointwise cotensor
A ↦ Cat(c, G A); both enumerate and assemble functor categories.
"""

from dataclasses import dataclass

from sigmacat.config import Meter
from sigmacat.errors import PreconditionFailed
from sigmacat.fincat import (FinCat, Functor, NatTransf, ValidationReport,
                             compose_functors, functor_category_full,
                             nat_is_identity, nat_is_invertible, pair_name,
                             validate_functor, validate_nat_transf, vcomp_nat,
                             whisker_functor_nat, whisker_nat_functor)
from sigmacat.transforms import CatDiagram, Flavor
from sigmacat.two_cat import Fin2Cat, op_dual, two_cat_product


@dataclass(frozen=True)
class Dicone:
    """A dicone for a two-sided diagram with a chosen vertex.

    ``diagram`` lives on the product of the base's 1-cell dual with the
    base; components map the vertex into the diagonal values and the
    structural cells relate the two reindexings of every 1-cell.
    """

    base: Fin2Cat
    diagram: CatDiagram
    vertex: FinCat
    components: dict  # object A -> Functor vertex -> T(A,A)
    structural: dict  # 1-cell f -> NatTransf T(A,f)θ_A ⇒ T(f,B)θ_B
    flavor: Flavor

    def key(self) -> tuple:
        return (tuple((A, self.components[A].key()) for A in sorted(self.components)),
                tuple((f, self.structural[f].key()) for f in sorted(self.structural)))


def _t_cell(T: CatDiagram, left: str, right: str) -> Functor:
    return T.on_1[pair_name(left, right)]


def _t_2cell(T: CatDiagram, left: str, right: str) -> NatTransf:
    return T.on_2[pair_name(left, right)]


def check_dicone(d: Dicone) -> ValidationReport:
    """LD0, LD1, LD2 plus the flavor condition, exhaustively."""
    rep = ValidationReport("Dicone")
    base, T = d.base, d.diagram
    for A in base.objects:
        th = d.components.get(A)
        want = T.on_obj[pair_name(A, A)]
        if th is None or th.source != d.vertex or th.target != want:
            rep.add("component-typing", (A,), f"component at {A} mistyped")
        elif not validate_functor(th).ok:
            rep.add("component-functor", (A,), f"component at {A} is not a functor")
    if not rep.ok:
        return rep
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        n = d.structural.get(f)
        src = compose_functors(_t_cell(T, base.id1[A], f), d.components[A])
        tgt = compose_functors(_t_cell(T, f, base.id1[B]), d.components[B])
        if n is None or n.source.key() != src.key() or n.target.key() != tgt.key():
            rep.add("structural-typing", (f,), f"structural cell at {f} mistyped")
        elif not validate_nat_transf(n).ok:
            rep.add("structural-natural", (f,), f"structural cell at {f} not natural")
    if not rep.ok:
        return rep
    for f in base.all_one_cells():
        if d.flavor.requires_identity() and not nat_is_identity(d.structural[f]):
            rep.add("invertibility", (f,), f"strict flavor needs identity at {f}")
        elif d.flavor.requires_invertible(f) and not nat_is_invertible(d.structural[f]):
            rep.add("invertibility", (f,), f"cell at {f} must be invertible")
    # LD0
    for A in base.objects:
        if not nat_is_identity(d.structural[base.id1[A]]):
            rep.add("LD0", (A,), f"identity cell at {A} is not the identity")
    # LD2
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        A, B = base.src1(f), base.tgt1(f)
        idA2, idB2 = base.id2(base.id1[A]), base.id2(base.id1[B])
        left_act = whisker_nat_functor(_t_2cell(T, x, idB2), d.components[B])
        right_act = whisker_nat_functor(_t_2cell(T, idA2, x), d.components[A])
        lhs = vcomp_nat(left_act, d.structural[f])
        rhs = vcomp_nat(d.structural[g], right_act)
        if lhs.components != rhs.components:
            rep.add("LD2", (x,), f"2-cell compatibility fails at {x}")
    # LD1
    for (g, f), gf in base.hcomp1.items():
        A = base.src1(f)
        C = base.tgt1(g)
        post = whisker_functor_nat(_t_cell(T, f, base.id1[C]), d.structural[g])
        pre = whisker_functor_nat(_t_cell(T, base.id1[A], g), d.structural[f])
        lhs = vcomp_nat(post, pre)
        if lhs.components != d.structural[gf].components:
            rep.add("LD1", (gf,), f"composition coherence fails at ({g},{f})")
    return rep


def check_dicone_morphism(d1: Dicone, d2: Dicone, components: dict) -> ValidationReport:
    """LDM for a family of cells between two dicones with shared vertex."""
    rep = ValidationReport("DiconeMorphism")
    base, T = d1.base, d1.diagram
    for A in base.objects:
        n = components.get(A)
        if n is None or n.source.key() != d1.components[A].key() or \
                n.target.key() != d2.components[A].key():
            rep.add("component-typing", (A,), f"component at {A} mistyped")
        elif not validate_nat_transf(n).ok:
            rep.add("component-natural", (A,), f"component at {A} not natural")
    if not rep.ok:
        return rep
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        lhs = vcomp_nat(d2.structural[f],
                        whisker_functor_nat(_t_cell(T, base.id1[A], f), components[A]))
        rhs = vcomp_nat(whisker_functor_nat(_t_cell(T, f, base.id1[B]), components[B]),
                        d1.structural[f])
        if lhs.components != rhs.components:
            rep.add("LDM", (f,), f"morphism square fails at {f}")
    return rep


# ---------------------------------------------------------------------------
# Two-sided diagrams


def internal_hom_diagram(P: CatDiagram, Q: CatDiagram,
                         meter: Meter | None = None) -> tuple[CatDiagram, Fin2Cat]:
    """The diagram (A,B) ↦ Cat(P A, Q B) on the product of duals.

    Returns the diagram together with its product base.  The end of this
    diagram recovers the Hom category of transformations P ⇒ Q.
    """
    meter = meter or Meter()
    base = P.source
    if Q.source != base:
        raise PreconditionFailed("diagrams must share a base")
    prod = two_cat_product(op_dual(base), base)
    fcats = {}
    for A in base.objects:
        for B in base.objects:
            fcats[(A, B)] = functor_category_full(P.on_obj[A], Q.on_obj[B], meter)
    on_obj, on_1, on_2 = {}, {}, {}
    for A in base.objects:
        for B in base.objects:
            on_obj[pair_name(A, B)] = fcats[(A, B)].cat
    for f in base.all_one_cells():  # contravariant leg: f : A' -> A in the base
        A2, A = base.src1(f), base.tgt1(f)
        for g in base.all_one_cells():
            B, B2 = base.src1(g), base.tgt1(g)
            src_fc = fcats[(A, B)]
            tgt_fc = fcats[(A2, B2)]
            om, am = {}, {}
            for hname, h in src_fc.functors.items():
                image = compose_functors(Q.on_1[g], compose_functors(h, P.on_1[f]))
                om[hname] = tgt_fc.name_of_functor(image)
            for nname, n in src_fc.transfs.items():
                image = whisker_functor_nat(Q.on_1[g], whisker_nat_functor(n, P.on_1[f]))
                am[nname] = tgt_fc.name_of_transf(image)
            on_1[pair_name(f, g)] = Functor(src_fc.cat, tgt_fc.cat, om, am)
    for x in base.all_two_cells():  # x : f => f'
        f, f2 = base.src2(x), base.tgt2(x)
        A2, A = base.src1(f), base.tgt1(f)
        for y in base.all_two_cells():  # y : g => g'
            g, g2 = base.src2(y), base.tgt2(y)
            B, B2 = base.src1(g), base.tgt1(g)
            src_fc = fcats[(A, B)]
            tgt_fc = fcats[(A2, B2)]
            comps = {}
            for hname, h in src_fc.functors.items():
                # Q(y) ∘ h ∘ P(x) : Q(g) h P(f) ⇒ Q(g') h P(f')
                inner = whisker_functor_nat(compose_functors(Q.on_1[g], h), P.on_2[x])
                outer = whisker_nat_functor(Q.on_2[y],
                                            compose_functors(h, P.on_1[f2]))
                comps[hname] = tgt_fc.name_of_transf(vcomp_nat(outer, inner))
            on_2[pair_name(x, y)] = NatTransf(
                on_1[pair_name(f, g)], on_1[pair_name(f2, g2)], comps)
    return CatDiagram(prod, on_obj, on_1, on_2), prod


def cotensor_diagram(c: FinCat, G: CatDiagram,
                     meter: Meter | None = None) -> CatDiagram:
    """The pointwise cotensor A ↦ Cat(c, G A)."""
    meter = meter or Meter()
    base = G.source
    fcats = {A: functor_category_full(c, G.on_obj[A], meter) for A in base.objects}
    on_obj = {A: fcats[A].cat for A in base.objects}
    on_1 = {}
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        om, am = {}, {}
        for hname, h in fcats[A].functors.items():
            om[hname] = fcats[B].name_of_functor(compose_functors(G.on_1[f], h))
        for nname, n in fcats[A].transfs.items():
            am[nname] = fcats[B].name_of_transf(whisker_functor_nat(G.on_1[f], n))
        on_1[f] = Functor(fcats[A].cat, fcats[B].cat, om, am)
    on_2 = {}
    for x in base.all_two_cells():
        f, f2 = base.src2(x), base.tgt2(x)
        A, B = base.src1(f), base.tgt1(f)
        comps = {}
        for hname, h in fcats[A].functors.items():
            comps[hname] = fcats[B].name_of_transf(whisker_nat_functor(G.on_2[x], h))
        on_2[x] = NatTransf(on_1[f], on_1[f2], comps)
    return CatDiagram(base, on_obj, on_1, on_2)
