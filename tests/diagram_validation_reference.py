"""The diagram validator that composed functors and transformations.

Kept as the reference for the differential tests only: it decides every
strict law and pseudo axiom by building each side as a ``Functor`` or a
``NatTransf`` (``compose_functors``, ``vcomp_nat``, the whiskerings) and
comparing the results.  ``transforms.validate_diagram`` reads the same
laws off the tables; on every diagram both must give the same report,
entry for entry.
"""

from sigmacat.fincat import (NatTransf, ValidationReport, compose_functors,
                             identity_functor, idn, nat_is_identity,
                             nat_is_invertible, validate_functor,
                             validate_nat_transf, vcomp_nat,
                             whisker_functor_nat, whisker_nat_functor)
from sigmacat.transforms import CatDiagram


def validate_diagram(P: CatDiagram) -> ValidationReport:
    """Structural validation plus the strict laws or the pseudo axioms.

    The pseudo axioms checked are the unit and associativity coherence
    of the structure cells (LF0, LF1), their naturality, and the
    compatibility of the action on 2-cells with horizontal composition.
    """
    rep = ValidationReport("CatDiagram")
    base = P.source
    for A in base.objects:
        if A not in P.on_obj:
            rep.add("on-obj", (A,), f"object {A} not assigned")
    for f in base.all_one_cells():
        F = P.on_1.get(f)
        if F is None:
            rep.add("on-1", (f,), f"1-cell {f} not assigned")
            continue
        if F.source != P.on_obj[base.src1(f)] or F.target != P.on_obj[base.tgt1(f)]:
            rep.add("on-1-typing", (f,), f"functor at {f} mistyped")
        elif not validate_functor(F).ok:
            rep.add("on-1-functor", (f,), f"assignment at {f} is not a functor")
    for x in base.all_two_cells():
        n = P.on_2.get(x)
        if n is None:
            rep.add("on-2", (x,), f"2-cell {x} not assigned")
            continue
        if n.source.key() != P.on_1[base.src2(x)].key() or \
                n.target.key() != P.on_1[base.tgt2(x)].key():
            rep.add("on-2-typing", (x,), f"transformation at {x} mistyped")
        elif not validate_nat_transf(n).ok:
            rep.add("on-2-natural", (x,), f"assignment at {x} is not natural")
    if not rep.ok:
        return rep

    # vertical functoriality holds for both kinds
    for pair, h in base.hom.items():
        for f in h.objects:
            if P.on_2[base.id2(f)].components != \
                    idn(P.on_1[f]).components:
                rep.add("vert-id", (f,), f"identity 2-cell at {f} not sent to identity")
        for (q, p), r in h.compose.items():
            got = vcomp_nat(P.on_2[q], P.on_2[p])
            if got.components != P.on_2[r].components:
                rep.add("vert-comp", (q, p), "vertical composition not preserved")

    if not P.is_pseudo:
        for A in base.objects:
            idA = base.id1[A]
            if P.on_1[idA].key() != identity_functor(P.on_obj[A]).key():
                rep.add("strict-id", (A,), f"identity 1-cell of {A} not the identity functor")
        for (g, f), h in base.hcomp1.items():
            if compose_functors(P.on_1[g], P.on_1[f]).key() != P.on_1[h].key():
                rep.add("strict-comp", (g, f), f"P({g}∘{f}) != P({g})P({f})")
        for (y, x), z in base.hcomp2.items():
            want = _hcomp_transf(P.on_2[y], P.on_2[x])
            if want.components != P.on_2[z].components:
                rep.add("strict-hcomp2", (y, x), "horizontal 2-cell action not preserved")
        return rep

    # pseudo axioms
    if P.alpha_obj is None or P.alpha_comp is None:
        rep.add("alpha-missing", (), "pseudo diagram lacks structure cells")
        return rep
    for A in base.objects:
        n = P.alpha_obj.get(A)
        want_src = identity_functor(P.on_obj[A])
        want_tgt = P.on_1[base.id1[A]]
        if n is None or n.source.key() != want_src.key() or \
                n.target.key() != want_tgt.key() or not validate_nat_transf(n).ok:
            rep.add("alpha-typing", (A,), f"unit cell at {A} mistyped")
        elif not nat_is_invertible(n):
            rep.add("alpha-obj", (A,), f"unit cell at {A} not invertible")
    for (g, f) in base.hcomp1:
        n = P.alpha_comp.get((f, g))
        want_src = compose_functors(P.on_1[g], P.on_1[f])
        want_tgt = P.on_1[base.hcomp1[(g, f)]]
        if n is None or n.source.key() != want_src.key() or \
                n.target.key() != want_tgt.key() or not validate_nat_transf(n).ok:
            rep.add("alpha-typing", (f, g), f"composition cell at ({f},{g}) mistyped")
        elif not nat_is_invertible(n):
            rep.add("alpha-comp", (f, g), "composition cell not invertible")
    if not rep.ok:
        return rep
    cells1 = base.all_one_cells()
    # LF0: unit coherence
    for f in cells1:
        A, B = base.src1(f), base.tgt1(f)
        Ff = P.on_1[f]
        lhs = vcomp_nat(P.alpha_comp[(f, base.id1[B])],
                        whisker_nat_functor(P.alpha_obj[B], Ff))
        if not nat_is_identity(lhs):
            rep.add("LF0", (f,), f"unit coherence fails on the left at {f}")
        rhs = vcomp_nat(P.alpha_comp[(base.id1[A], f)],
                        whisker_functor_nat(Ff, P.alpha_obj[A]))
        if not nat_is_identity(rhs):
            rep.add("LF0", (f,), f"unit coherence fails on the right at {f}")
    # LF1: associativity coherence
    for h in cells1:
        for g in cells1:
            if base.src1(h) != base.tgt1(g):
                continue
            for f in cells1:
                if base.src1(g) != base.tgt1(f):
                    continue
                gf = base.hcomp1[(g, f)]
                hg = base.hcomp1[(h, g)]
                lhs = vcomp_nat(P.alpha_comp[(gf, h)],
                                whisker_functor_nat(P.on_1[h], P.alpha_comp[(f, g)]))
                rhs = vcomp_nat(P.alpha_comp[(f, hg)],
                                whisker_nat_functor(P.alpha_comp[(g, h)], P.on_1[f]))
                if lhs.components != rhs.components:
                    rep.add("LF1", (f, g, h), "associativity coherence fails")
    # naturality of the composition cells in both arguments
    for (y, x), z in base.hcomp2.items():
        f, g = base.src2(x), base.src2(y)
        f2, g2 = base.tgt2(x), base.tgt2(y)
        lhs = vcomp_nat(P.alpha_comp[(f2, g2)], _hcomp_transf(P.on_2[y], P.on_2[x]))
        rhs = vcomp_nat(P.on_2[base.hcomp2[(y, x)]], P.alpha_comp[(f, g)])
        if lhs.components != rhs.components:
            rep.add("alpha-natural", (y, x), "structure cells not natural")
    return rep


def _hcomp_transf(b: NatTransf, a: NatTransf) -> NatTransf:
    """Horizontal composite of transformation images (a on the inside)."""
    return vcomp_nat(whisker_nat_functor(b, a.target), whisker_functor_nat(b.source, a))
