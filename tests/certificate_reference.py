"""The test-family certificates that σ-colimits carried before the classifier.

Kept as the reference for the differential tests only.  Against one test
category E, ``certify_against`` decides on objects and hom-sets that
precomposition with a colimit's cone is an isomorphism
Cat(R, E) → σ-Cones(Q, E), and ``certify_weighted`` that composition with
the universal weighted cocone ω, read off the conical cone, is an
isomorphism Cat(C, E) → σ-Nat(W, Cat(P-, E)).  Both enumerate functors,
cones, transformations and their morphisms; that is evidence against E,
where the classifier certificate of ``sigmacat.colimits`` is a proof for
every E.  Where both run they must agree.  ``certify_coend`` is the
test-family certificate ``coend_eps`` carried: functors out of the coend
against the end of Cat(T(-,-), E), compared by an isomorphism search.
That end is ``end_eps``: the flavour-constrained end of a strict
two-sided diagram, realized as the category of dicones with vertex 1,
enumerated and assembled.
"""

import itertools
from dataclasses import dataclass

from dicone_reference import _t_2cell, _t_cell
from sigmacat import elements as el_mod
from sigmacat.colimits import SigmaCone, _morphism_key, cones_sigma, hom_into_diagram
from sigmacat.config import Meter
from sigmacat.errors import PreconditionFailed
from sigmacat.fincat import (FinCat, Functor, NatTransf, arrow_category,
                             assemble_category, compose_functors,
                             find_isomorphism,
                             functor_category_full, iso_pair_category,
                             pair_name, parallel_pair_category,
                             terminal_category, whisker_functor_nat,
                             whisker_nat_functor)
from sigmacat.transforms import (CatDiagram, Flavor, sigma_flavor,
                                 transformation_homs)
from sigmacat.two_cat import Fin2Cat, WideSub


def default_test_family() -> list[tuple[str, FinCat]]:
    """The test categories the reference certificates run against."""
    return [
        ("terminal", terminal_category()),
        ("arrow", arrow_category()),
        ("iso_pair", iso_pair_category()),
        ("parallel_pair", parallel_pair_category()),
    ]


def certify_against(result, E: FinCat, homs: tuple,
                     meter: Meter) -> bool:
    """Precomposition with the cone must be an isomorphism of categories
    Cat(R, E) → σ-Cones(Q, E), decided on objects and hom-sets; ``homs``
    is ``functor_homs(R, E)``.

    Functors H : R → E go to the cones Hκ, and a transformation μ : H ⇒ H'
    to the cone morphism μκ = (μκ_A)_A, whose component at a base object A
    and an object x of Q(A) is μ_{κ_A x}.  The object map must be a
    bijection, and for every pair of functors the arrow map a bijection of
    hom-sets: each μκ is built from μ per base object and component, and
    looked up by that key among the cone morphisms.  That is linear in
    the arrows; no composition table is built on either side.  The map is
    a functor without further checks: composition is componentwise in E on
    both sides, so (μ'·μ)κ = (μ'κ)·(μκ), and 1_H κ has identity components,
    so it is the identity of Hκ.  A functor bijective on objects and on
    hom-sets is an isomorphism.
    """
    cone = result.cone
    Q = result.diagram
    base = Q.source
    objs = sorted(base.objects)
    fs, nats = homs
    cc = cones_sigma(Q, result.marked, E, meter)
    cones = [cc.cones[c] for c in cc.cat.objects]
    if len(fs) != len(cones):
        return False
    position = {c.key(): i for i, c in enumerate(cones)}
    chom = {(i, j): [cc.morphisms[m] for m in cc.cat.hom(c, d)]
            for i, c in enumerate(cc.cat.objects) for j, d in enumerate(cc.cat.objects)}
    obj_map = []
    for H in fs:
        image = SigmaCone(
            Q, result.marked, E,
            {A: compose_functors(H, cone.components[A]) for A in objs},
            {f: whisker_functor_nat(H, cone.structural[f])
             for f in base.all_one_cells()})
        i = position.get(image.key())
        if i is None:
            return False
        obj_map.append(i)
    if len(set(obj_map)) != len(obj_map):
        return False
    # per base object, the objects x of Q(A) in key order with κ_A x
    legs = [(A, sorted(cone.components[A].obj_map.items())) for A in objs]
    for (i, j), mus in nats.items():
        rhos = chom[(obj_map[i], obj_map[j])]
        if len(mus) != len(rhos):
            return False
        index = {_morphism_key(rho): k for k, rho in enumerate(rhos)}
        hit = set()
        for mu in mus:
            mc = mu.components
            k = index.get(tuple((A, tuple((x, mc[y]) for x, y in rows))
                                for A, rows in legs))
            if k is None or k in hit:
                return False
            hit.add(k)
    return True


def certify_weighted(out, sigma: WideSub, E: FinCat,
                      homs: tuple, meter: Meter) -> bool:
    """Composition with the universal weighted cocone ω must be an
    isomorphism of categories Cat(C, E) → σ-Nat(W, Cat(P-, E)), decided on
    objects and hom-sets; ``homs`` is ``functor_homs(C, E)``, the same the
    conical certificate of C reads.

    ω is read off the inner conical cone κ under P·π, whose base is the
    dual of W's elements: ω_A(x) = κ_(x,A), ω_A(u : x → x') is κ's cell at
    ``(id_A, u)@x``, and ω's structural cell at f : A → B (a 1-cell of W's
    base) has at x the cell of κ at ``(f, id_{W(f)x})@x``.  A functor
    H : C → E goes to the transformation H_*ω, looked up by
    ``Transformation.key()`` among the enumerated ones; a transformation
    μ : H ⇒ H' goes to the modification μ_*ω, whose component at A and x
    is μκ_(x,A), named in Cat(P(A), E).  The object map must be a
    bijection, and for every pair of functors the arrow map a bijection of
    hom-sets.  Neither composition table is built.  The map is a functor
    without further checks: both sides compose componentwise in E, so
    (μ'·μ)_*ω = μ'_*ω · μ_*ω, and (1_H)_*ω has identity components, so it
    is the identity of H_*ω.  A functor bijective on objects and on
    hom-sets is an isomorphism.
    """
    W, kappa = out.weight, out.conical.cone
    wbase = W.source
    objs = sorted(wbase.objects)
    target, fcats = hom_into_diagram(out.argument, E, meter)
    ts, mods = transformation_homs(W, target, sigma_flavor(sigma.arrows), meter)
    fs, nats = homs
    if len(fs) != len(ts):
        return False
    # ω, with every list in the order its key sorts: the legs (A, x); per
    # A the objects x and the arrows u : x → x' with κ's cell; per 1-cell
    # f : A → B and x the cell of κ, from the leg at (A, x) precomposed
    # with P(f) to the leg at (B, W(f)x); a cell is given by its rows
    # (y, component) in the order of y
    legs = {(A, x): kappa.components[el_mod.obj_name(x, A)]
            for A in objs for x in W.on_obj[A].objects}
    leg_rows = {leg: sorted(k.obj_map.items()) for leg, k in legs.items()}

    def rows(cell: str) -> list:
        return sorted(kappa.structural[cell].components.items())

    def named(B: str, src: str, tgt: str, cell_rows: list, arr_map: dict) -> str:
        """The arrow src → tgt of Cat(P(B), E) with component arr_map[c] at
        each row (y, c)."""
        return fcats[B].name_of_transf_between(
            src, tgt, tuple((y, arr_map[c]) for y, c in cell_rows))

    on_arrows = []
    for A in objs:
        WA = W.on_obj[A]
        idA = wbase.id1[A]
        on_arrows.append((A, sorted(WA.objects), [
            (u, (A, x), (A, x2), rows(el_mod.mor_name(idA, u, x)))
            for u, (x, x2) in sorted(WA.arrows.items())]))
    on_cells = []
    for f in sorted(wbase.all_one_cells()):
        A, B = wbase.src1(f), wbase.tgt1(f)
        WB, Wf = W.on_obj[B], W.on_1[f].obj_map
        on_cells.append((f, B, target.on_1[f].obj_map, [
            (x, (A, x), (B, Wf[x]), rows(el_mod.mor_name(f, WB.identity[Wf[x]], x)))
            for x in sorted(W.on_obj[A].objects)]))

    position = {t.key(): i for i, t in enumerate(ts)}
    images = []  # per functor, the name in Cat(P(A), E) of each leg H κ_(x,A)
    obj_map = []
    for H in fs:
        hk = {leg: fcats[leg[0]].name_of_functor(compose_functors(H, k))
              for leg, k in legs.items()}
        ha = H.arr_map
        key = (tuple((A, (tuple((x, hk[(A, x)]) for x in xs),
                          tuple((u, named(A, hk[s], hk[t], r, ha))
                                for u, s, t, r in arrows)))
                     for A, xs, arrows in on_arrows),
               tuple((f, tuple((x, named(B, pre[hk[s]], hk[t], r, ha))
                               for x, s, t, r in cells))
                     for f, B, pre, cells in on_cells))
        i = position.get(key)
        if i is None:
            return False
        images.append(hk)
        obj_map.append(i)
    if len(set(obj_map)) != len(obj_map):
        return False
    for (i, j), mus in nats.items():
        targets = mods[(obj_map[i], obj_map[j])]
        if len(mus) != len(targets):
            return False
        index = {m.key(): k for k, m in enumerate(targets)}
        src, tgt = images[i], images[j]
        hit = set()
        for mu in mus:
            mc = mu.components
            k = index.get(tuple(
                (A, tuple((x, named(A, src[(A, x)], tgt[(A, x)], leg_rows[(A, x)], mc))
                          for x in xs))
                for A, xs, _ in on_arrows))
            if k is None or k in hit:
                return False
            hit.add(k)
    return True


def certify_coend(R: FinCat, T: CatDiagram, base: Fin2Cat, flavor, E: FinCat,
                  meter: Meter | None = None) -> bool:
    """Functors out of the coend's realization R and the flavor's end of
    Cat(T(-,-), E) must form isomorphic categories, found by search.  The
    end's wedges are the dinatural cocones out of T, so their lax cells
    run as a σ-cocone's do (``cocone``)."""
    meter = meter or Meter()
    fc = functor_category_full(R, E, meter)
    e = end_eps(hom_out_diagram(T, base, E, meter), base, flavor, meter,
                cocone=True)
    return len(fc.cat.objects) == len(e.cat.objects) and \
        len(fc.cat.arrows) == len(e.cat.arrows) and \
        find_isomorphism(fc.cat, e.cat, meter) is not None


def hom_out_diagram(T: CatDiagram, base: Fin2Cat, E: FinCat,
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


@dataclass
class EndCategory:
    cat: FinCat
    points: dict  # object name -> (x_assign, phi_assign)
    flavor: Flavor


def end_eps(T: CatDiagram, base: Fin2Cat, flavor: Flavor,
            meter: Meter | None = None, cocone: bool = False) -> EndCategory:
    """The flavor-constrained end of a two-sided strict diagram.

    Realized concretely as the category of vertex-1 dicones: objects are
    families (x_A, phi_f) satisfying the dinaturality axioms, arrows are
    families of cells satisfying the morphism axiom.  For f : A → B,
    phi_f : T(1_A, f)x_A → T(f, 1_B)x_B, as a lax transformation's cell
    runs.  With ``cocone`` it runs T(f, 1_B)x_B → T(1_A, f)x_A: on
    T = Cat(S(-,-), E) these wedges are the dinatural cocones
    λ_B∘S(1_B, f) ⇒ λ_A∘S(f, 1_A) out of S, as a σ-cocone's
    κ_B∘Q(f) ⇒ κ_A runs.
    """
    meter = meter or Meter()
    if T.is_pseudo:
        raise PreconditionFailed("ends are implemented for strict diagrams")
    objs = sorted(base.objects)
    diag = {A: T.on_obj[pair_name(A, A)] for A in objs}
    non_id = [f for f in base.all_one_cells() if f not in set(base.id1.values())]
    points = []
    pools = [sorted(diag[A].objects) for A in objs]
    for combo in itertools.product(*pools):
        meter.tick()
        xs = dict(zip(objs, combo))
        cell_pools = []
        feasible = True
        for f in non_id:
            A, B = base.src1(f), base.tgt1(f)
            hom_cat = T.on_obj[pair_name(A, B)]
            left = _t_cell(T, base.id1[A], f).obj_map[xs[A]]
            right = _t_cell(T, f, base.id1[B]).obj_map[xs[B]]
            if cocone:
                left, right = right, left
            if flavor.requires_identity():
                pool = [hom_cat.identity[left]] if left == right else []
            else:
                pool = hom_cat.hom(left, right)
                if flavor.requires_invertible(f):
                    pool = [a for a in pool if hom_cat.is_iso(a)]
            if not pool:
                feasible = False
                break
            cell_pools.append(pool)
        if not feasible:
            continue
        for cells in itertools.product(*cell_pools):
            meter.tick()
            phis = dict(zip(non_id, cells))
            for A in objs:
                idA = base.id1[A]
                phis[idA] = diag[A].identity[xs[A]]
            if _end_point_ok(T, base, xs, phis, cocone):
                points.append((xs, phis))
    points.sort(key=lambda p: (tuple(sorted(p[0].items())), tuple(sorted(p[1].items()))))
    homs = {}
    for i, (xs1, ph1) in enumerate(points):
        for j, (xs2, ph2) in enumerate(points):
            homs[(i, j)] = []
            for combo in itertools.product(
                    *[diag[A].hom(xs1[A], xs2[A]) for A in objs]):
                meter.tick()
                xi = dict(zip(objs, combo))
                if _end_arrow_ok(T, base, ph1, ph2, xi, cocone):
                    homs[(i, j)].append(xi)
    cat, _ = assemble_category(
        len(points), ("e", "a"), homs,
        lambda xi: all(diag[A].is_identity(xi[A]) for A in objs),
        lambda xi: tuple(sorted(xi.items())),
        lambda xi2, xi1: tuple(sorted((A, diag[A].compose[(xi2[A], xi1[A])])
                                      for A in objs)))
    return EndCategory(cat, {f"e{i}": p for i, p in enumerate(points)}, flavor)


def _end_point_ok(T, base, xs, phis, cocone) -> bool:
    # LD2 before LD1, mirroring the transformation enumeration
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        if base.is_identity_2cell(x) and f == g:
            continue
        A, B = base.src1(f), base.tgt1(f)
        hom_cat = T.on_obj[pair_name(A, B)]
        idA2, idB2 = base.id2(base.id1[A]), base.id2(base.id1[B])
        left = _t_2cell(T, x, idB2).components[xs[B]]
        right = _t_2cell(T, idA2, x).components[xs[A]]
        if cocone:
            left, right = right, left
        if hom_cat.compose[(left, phis[f])] != hom_cat.compose[(phis[g], right)]:
            return False
    for (g, f), gf in base.hcomp1.items():
        A = base.src1(f)
        C = base.tgt1(g)
        hom_cat = T.on_obj[pair_name(A, C)]
        post = _t_cell(T, f, base.id1[C]).arr_map[phis[g]]
        pre = _t_cell(T, base.id1[A], g).arr_map[phis[f]]
        if cocone:
            post, pre = pre, post
        if hom_cat.compose[(post, pre)] != phis[gf]:
            return False
    return True


def _end_arrow_ok(T, base, ph1, ph2, xi, cocone) -> bool:
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        hom_cat = T.on_obj[pair_name(A, B)]
        pre = _t_cell(T, base.id1[A], f).arr_map[xi[A]]
        post = _t_cell(T, f, base.id1[B]).arr_map[xi[B]]
        if cocone:
            pre, post = post, pre
        if hom_cat.compose[(ph2[f], pre)] != hom_cat.compose[(post, ph1[f])]:
            return False
    return True
