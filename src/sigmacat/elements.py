"""The 2-category of elements of a Cat-valued diagram, and its relatives.

Objects are pairs ``(x,A)`` with x an object of the category at A.  A
morphism ``(x,A) -> (y,B)`` is a pair ``(f,phi)`` of a base 1-cell
``f : A -> B`` and an arrow ``phi : P(f)(x) -> y``; a 2-cell is a base
2-cell whose action closes the evident triangle.  The marked arrows
``cart`` are those whose phi is invertible.  The dual construction
reverses phi.  Pseudofunctors use the corrected composition and
identities built from their structure cells.

Names are minted by ``obj_name``, ``mor_name``, ``cell_name`` and
``pair_name`` and read back through the tables that minted them
(``points``, ``pairs1`` and ``pairs2``), never parsed.  A name minted
twice for different cells is refused.

One enumerator, ``_cells``, lists the elements and the 1-cells and
2-cells between them; it ticks and mints for its two readers.
``_Elements`` reads the 2-category they form, each horizontal composite
computed on first lookup: ``_build`` assembles it (``elements_of``,
``elements_of_pseudo``, ``gamma_dual``), and ``check_flat`` scans its
``two_cat.OpView`` with no hom category, horizontal composition table
or dual copy built.  ``dual_pi0`` reads from ``_cells`` only what a
conical σ-colimit needs: π0 of the 1-cell dual of Γ(Q), each hom
collapsed by its 2-cells.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, partial

from .config import Meter
from .errors import Inconsistency, PreconditionFailed, ValidationError
from .fincat import (FinCat, Functor, NatTransf, compose_functors, mint,
                     mk_fincat, partition, terminal_category)
from .two_cat import Fin2Cat, WideSub, _Table, mk_fin2cat
from .transforms import (CatDiagram, Transformation, TwoFunctor,
                         check_transformation, compose_diagram,
                         constant_diagram, hom_eps, LAX)


def obj_name(x: str, A: str) -> str:
    return f"({x},{A})"


def mor_name(f: str, phi: str, x: str) -> str:
    # the source element tags the name: (f, phi) alone is ambiguous when
    # the functor at f identifies objects
    return f"({f},{phi})@{x}"


def cell_name(theta: str, src: str, tgt: str) -> str:
    return f"{theta}:{src}=>{tgt}"


@dataclass
class ElementsResult:
    cat: Fin2Cat
    cart: WideSub
    projection: TwoFunctor
    points: dict  # object name -> (x, A)
    pairs1: dict  # 1-cell name -> (f, phi)
    pairs2: dict  # 2-cell name -> base 2-cell


def _cells(P: CatDiagram, reverse_phi: bool, meter: Meter) -> tuple:
    """The elements of P and, per ordered pair of them, the element 1-cells
    and 2-cells, in one fixed order, each name minted: one tick per 1-cell
    and per candidate 2-cell.  Returns (``points``, per pair of element
    names the 1-cell names in order and the 2-cells as name -> (source,
    target), ``pairs1``, ``pairs2``)."""
    base = P.source
    points = {}
    for A in sorted(base.objects):
        for x in sorted(P.on_obj[A].objects):
            mint(points, obj_name(x, A), (x, A))

    homs = {}
    pairs1 = {}
    pairs2 = {}
    for oa, (x, A) in points.items():
        for ob, (y, B) in points.items():
            cod = P.on_obj[B]
            cells1 = []
            for f in base.one_cells(A, B):
                Pf = P.on_1[f]
                if reverse_phi:
                    phis = cod.hom(y, Pf.obj_map[x])
                else:
                    phis = cod.hom(Pf.obj_map[x], y)
                for phi in phis:
                    meter.tick()
                    name = mor_name(f, phi, x)
                    cells1.append(name)
                    mint(pairs1, name, (f, phi))
            cells2 = {}
            for m1 in cells1:
                f, phi = pairs1[m1]
                for m2 in cells1:
                    g, psi = pairs1[m2]
                    for th in base.two_cells_between(f, g):
                        meter.tick()
                        act = P.on_2[th].components[x]
                        if reverse_phi:
                            # psi = P(th)_x ∘ phi
                            ok = cod.compose[(act, phi)] == psi
                        else:
                            # phi = psi ∘ P(th)_x
                            ok = cod.compose[(psi, act)] == phi
                        if ok:
                            nm = cell_name(th, m1, m2)
                            cells2[nm] = (m1, m2)
                            mint(pairs2, nm, th)
            homs[(oa, ob)] = (cells1, cells2)
    return points, homs, pairs1, pairs2


class _Elements:
    """El_P, or Γ(Q) with ``reverse_phi``, read off P's tables: the one
    reader of the 2-category of elements.  It holds ``_cells``' cells
    with their ends and the cartesian 1-cells ``cart``, and answers the
    filteredness scan's names, ``hcomp1`` and ``hcomp2`` computed on
    first lookup.  A 2-cell is invertible when its base 2-cell has an
    inverse among the 2-cells back, by the base's vertical composition."""

    def __init__(self, P: CatDiagram, reverse_phi: bool, meter: Meter):
        self.P, self.base, self.reverse_phi = P, P.source, reverse_phi
        self.points, self.homs, self.pairs1, self.pairs2 = _cells(P, reverse_phi, meter)
        self.objects = tuple(sorted(self.points))
        self.ends1 = {m: pair for pair, (cells1, _) in self.homs.items() for m in cells1}
        self.ends2 = {nm: ends for _, cells2 in self.homs.values()
                      for nm, ends in cells2.items()}
        self.cart = _cartesian(P, self.pairs1)
        # the entries reach the reader weakly: a dropped reader is freed at once
        self.hcomp1 = _Table(partial(_Elements._hcomp1, weakref.proxy(self)))
        self.hcomp2 = _Table(partial(_Elements._hcomp2, weakref.proxy(self)))

    def _hcomp1(self, second: str, first: str) -> str:
        """(g, psi) = ``second`` after (f, phi) = ``first``, out of (x, A)."""
        P, base = self.P, self.base
        (g, psi), (f, phi) = self.pairs1[second], self.pairs1[first]
        x = self.points[self.ends1[first][0]][0]
        PC, Pg = P.on_obj[base.tgt1(g)], P.on_1[g]
        if self.reverse_phi:
            # z -> P(g)(y) -> P(g)P(f)(x)
            w = PC.compose[(Pg.arr_map[phi], psi)]
        else:
            # P(gf)(x) [-> P(g)P(f)(x)] -> P(g)(y) -> z
            w = PC.compose[(psi, Pg.arr_map[phi])]
            if P.is_pseudo:
                ac_inv = _invert_component(PC, P.alpha_comp[(f, g)].components[x])
                w = PC.compose[(w, ac_inv)]
        return mor_name(base.hcomp1[(g, f)], w, x)

    def _hcomp2(self, b: str, a: str) -> str:
        (sb, tb), (sa, ta) = self.ends2[b], self.ends2[a]
        th = self.base.hcomp2[(self.pairs2[b], self.pairs2[a])]
        return cell_name(th, self.hcomp1[(sb, sa)], self.hcomp1[(tb, ta)])

    @cached_property
    def _one_cells(self) -> dict:
        """(A, B) -> the 1-cells A → B, sorted by name, for non-empty homs."""
        return {pair: tuple(sorted(c)) for pair, (c, _) in self.homs.items() if c}

    @cached_property
    def _between(self) -> dict:
        """(f, g) -> the 2-cells f ⇒ g, sorted by name, where there are any."""
        between = {}
        for nm, ends in self.ends2.items():
            between.setdefault(ends, []).append(nm)
        return {ends: tuple(sorted(cells)) for ends, cells in between.items()}

    def one_cells(self, A: str, B: str) -> tuple[str, ...]:
        return self._one_cells.get((A, B), ())

    def two_cells_between(self, f: str, g: str) -> tuple[str, ...]:
        return self._between.get((f, g), ())

    def src1(self, f: str) -> str:
        return self.ends1[f][0]

    def tgt1(self, f: str) -> str:
        return self.ends1[f][1]

    def src2(self, a: str) -> str:
        return self.ends2[a][0]

    def tgt2(self, a: str) -> str:
        return self.ends2[a][1]

    def id2(self, f: str) -> str:
        return cell_name(self.base.id2(self.pairs1[f][0]), f, f)

    def is_invertible_2cell(self, a: str) -> bool:
        s, t = self.ends2[a]
        base, th = self.base, self.pairs2[a]
        one_s, one_t = base.id2(self.pairs1[s][0]), base.id2(self.pairs1[t][0])
        return any(base.vcomp(self.pairs2[b], th) == one_s and
                   base.vcomp(th, self.pairs2[b]) == one_t
                   for b in self.two_cells_between(t, s))


def _build(P: CatDiagram, reverse_phi: bool, meter: Meter) -> ElementsResult:
    """El_P assembled from its reader: each hom's vertical composition,
    and the reader's horizontal composites at every composable pair,
    taken along non-empty homs: 1-cells through the objects each one
    reaches, 2-cells through their middle object."""
    el = _Elements(P, reverse_phi, meter)
    base, points, homs, pairs2 = P.source, el.points, el.homs, el.pairs2
    hom = {}
    after = {}  # object -> the objects it has 1-cells to
    cells2_from = {}  # object -> the 2-cells in the homs out of it
    for (oa, ob), (cells1, arrows) in homs.items():
        compose = {}
        hom_base = base.hom[(points[oa][1], points[ob][1])]
        leaving = {}  # 1-cell -> the 2-cells out of it
        for nm, (m1, _) in arrows.items():
            leaving.setdefault(m1, []).append(nm)
        for nm1, (m1, mid) in arrows.items():
            for nm2 in leaving.get(mid, ()):
                comp = hom_base.compose[(pairs2[nm2], pairs2[nm1])]
                compose[(nm2, nm1)] = cell_name(comp, m1, arrows[nm2][1])
        hom[(oa, ob)] = mk_fincat(cells1, arrows, {m1: el.id2(m1) for m1 in cells1},
                                  compose)
        if cells1:
            after.setdefault(oa, []).append(ob)
        cells2_from.setdefault(oa, []).extend(arrows)

    # identity 1-cells, a pseudo P's through its inverted unit components
    id1 = {}
    for oa in el.objects:
        x, A = points[oa]
        PA = P.on_obj[A]
        unit = PA.identity[x]
        if P.is_pseudo:
            unit = _invert_component(PA, P.alpha_obj[A].components[x])
        id1[oa] = mor_name(base.id1[A], unit, x)

    hcomp1 = el.hcomp1.fill([(m2, m1) for oa, reached in after.items() for ob in reached
                             for oc in after.get(ob, ()) for m2 in homs[(ob, oc)][0]
                             for m1 in homs[(oa, ob)][0]])
    hcomp2 = el.hcomp2.fill([(nm2, nm1) for (_, ob), (_, arrows) in homs.items()
                             for nm1 in arrows for nm2 in cells2_from.get(ob, ())])
    cat = mk_fin2cat(el.objects, hom, id1, hcomp1, hcomp2)
    projection = TwoFunctor(cat, base, {o: points[o][1] for o in el.objects},
                            {nm: fp[0] for nm, fp in el.pairs1.items()}, dict(pairs2))
    return ElementsResult(cat, WideSub(cat, el.cart), projection, points, el.pairs1,
                          pairs2)


def _cartesian(P: CatDiagram, pairs1: dict) -> frozenset:
    """The 1-cells (f, phi) whose phi is invertible."""
    base = P.source
    return frozenset(nm for nm, (f, phi) in pairs1.items()
                     if P.on_obj[base.tgt1(f)].is_iso(phi))


def _invert_component(cat: FinCat, a: str) -> str:
    inv = cat.inverse(a)
    if inv is None:
        raise ValidationError(f"structure cell component {a} is not invertible")
    return inv


def elements_of(P: CatDiagram, meter: Meter | None = None) -> ElementsResult:
    """El_P for a strict diagram, with its cocartesian marking."""
    if P.is_pseudo:
        raise PreconditionFailed("use elements_of_pseudo for pseudofunctors")
    return _build(P, False, meter or Meter())


def elements_of_pseudo(P: CatDiagram, meter: Meter | None = None) -> ElementsResult:
    """El_P for a pseudofunctor; composition takes the structure cells
    into account and identities are the inverted unit components."""
    if not P.is_pseudo:
        raise PreconditionFailed("diagram is not a pseudofunctor")
    return _build(P, False, meter or Meter())


def gamma_dual(Q: CatDiagram, meter: Meter | None = None) -> ElementsResult:
    """The dual construction, with the direction of phi reversed."""
    if Q.is_pseudo:
        raise PreconditionFailed("the dual construction expects a strict diagram")
    return _build(Q, True, meter or Meter())


@dataclass
class DualPi0:
    """What a conical σ-colimit reads of the dual construction Γ(Q): π0
    of its 1-cell dual, and the tables that decode it.  Names are those
    of ``gamma_dual``; the 1-cells of Γ(Q) point as there, and π0 is
    the 1-cell dual's, so a class [m] runs from the target of m to its
    source."""

    points: dict  # object name -> (x, A)
    pairs1: dict  # 1-cell name -> (f, phi)
    ends: dict  # 1-cell name -> (source, target) object names in Γ(Q)
    classes: dict  # 1-cell name -> its class, an arrow of pi0
    cart: frozenset  # the 1-cells whose phi is invertible
    pi0: FinCat  # π0 of the 1-cell dual of Γ(Q)


def dual_pi0(Q: CatDiagram, meter: Meter | None = None) -> DualPi0:
    """π0 of the 1-cell dual of Γ(Q), read off Q's tables with no
    2-category of elements built.

    The 1-cells and 2-cells of Γ(Q) are those of ``gamma_dual``, with the
    same ticks and the same refusal of colliding names.  Each hom is
    partitioned by its 2-cells, a class named ``[m]`` by its least
    1-cell m.  The composition is read in one pass over the composable
    pairs of non-empty homs, every pair of members composed in Q's
    tables; two members giving different classes mean the tables are
    inconsistent, and raise."""
    meter = meter or Meter()
    if Q.is_pseudo:
        raise PreconditionFailed("the dual construction expects a strict diagram")
    base = Q.source
    points, homs, pairs1, _ = _cells(Q, reverse_phi=True, meter=meter)
    ends, classes, arrows = {}, {}, {}
    out_of = {}  # object -> [(target, the 1-cells to it)], homs that are non-empty
    for (oa, ob), (cells1, cells2) in homs.items():
        if not cells1:
            continue
        out_of.setdefault(oa, []).append((ob, cells1))
        for m, least in partition(cells1, cells2.values()).items():
            ends[m] = (oa, ob)
            classes[m] = c = f"[{least}]"
            arrows[c] = (ob, oa)
    identity = {o: classes[mor_name(base.id1[A], Q.on_obj[A].identity[x], x)]
                for o, (x, A) in points.items()}
    compose = {}
    for oa, firsts in out_of.items():
        x = points[oa][0]
        for ob, first in firsts:
            for oc, second in out_of.get(ob, ()):
                QC = Q.on_obj[points[oc][1]].compose
                for m2 in second:
                    g, psi = pairs1[m2]
                    Qg, c2 = Q.on_1[g].arr_map, classes[m2]
                    for m1 in first:
                        f, phi = pairs1[m1]
                        # x -> y -> z in Γ(Q) is z -> y -> x in its dual
                        c = classes[mor_name(base.hcomp1[(g, f)], QC[(Qg[phi], psi)], x)]
                        if compose.setdefault((classes[m1], c2), c) != c:
                            raise Inconsistency(
                                f"pi0 composition ill-defined on ({classes[m1]},{c2})")
    return DualPi0(points, pairs1, ends, classes, _cartesian(Q, pairs1),
                   mk_fincat(points, arrows, identity, compose))


def cart_sigma(e: ElementsResult, sigma: WideSub) -> WideSub:
    """Arrows (f,phi) with f marked in the base and phi invertible."""
    marked = frozenset(nm for nm in e.cart.arrows
                       if e.pairs1[nm][0] in sigma.arrows)
    return WideSub(e.cat, marked)


# ---------------------------------------------------------------------------
# Induced 2-functors


def t_eta(eta: Transformation, el_p: ElementsResult,
          el_q: ElementsResult) -> TwoFunctor:
    """The 2-functor El_P -> El_Q induced by a transformation P ⇒ Q."""
    rep = check_transformation(eta)
    if not rep.ok:
        raise PreconditionFailed(f"invalid transformation: {rep.violations[0].detail}")
    P, Q = eta.source, eta.target
    base = P.source
    obj_map = {}
    for o in el_p.cat.objects:
        x, A = el_p.points[o]
        obj_map[o] = obj_name(eta.components[A].obj_map[x], A)
    map1 = {}
    for nm, (f, phi) in el_p.pairs1.items():
        A, B = base.src1(f), base.tgt1(f)
        x, _ = el_p.points[el_p.cat.hom_of_1cell(nm)[0]]
        QB = Q.on_obj[B]
        struct = eta.structural[f].components[x]
        image_phi = QB.compose[(eta.components[B].arr_map[phi], struct)]
        map1[nm] = mor_name(f, image_phi, eta.components[A].obj_map[x])
    map2 = {}
    for nm, th in el_p.pairs2.items():
        hom_pair = el_p.cat.hom_of_2cell(nm)
        s, t = el_p.cat.hom[hom_pair].arrows[nm]
        map2[nm] = cell_name(th, map1[s], map1[t])
    return TwoFunctor(el_p.cat, el_q.cat, obj_map, map1, map2)


def t_h(H: TwoFunctor, P: CatDiagram, el_ph: ElementsResult,
        el_p: ElementsResult) -> TwoFunctor:
    """The 2-functor El_{P∘H} -> El_P over a base change H."""
    obj_map = {}
    for o in el_ph.cat.objects:
        x, A = el_ph.points[o]
        obj_map[o] = obj_name(x, H.obj_map[A])
    map1 = {}
    for nm, (f, phi) in el_ph.pairs1.items():
        x, _ = el_ph.points[el_ph.cat.hom_of_1cell(nm)[0]]
        map1[nm] = mor_name(H.map1[f], phi, x)
    map2 = {}
    for nm, th in el_ph.pairs2.items():
        hom_pair = el_ph.cat.hom_of_2cell(nm)
        s, t = el_ph.cat.hom[hom_pair].arrows[nm]
        map2[nm] = cell_name(H.map2[th], map1[s], map1[t])
    return TwoFunctor(el_ph.cat, el_p.cat, obj_map, map1, map2)


def preimage_marking(T: TwoFunctor, marked: WideSub) -> WideSub:
    return WideSub(T.source, frozenset(
        f for f in T.source.all_one_cells() if T.map1[f] in marked.arrows))


# ---------------------------------------------------------------------------
# The lax pull-back property and lax density


def lax_pullback_factor(F: TwoFunctor, theta: Transformation,
                        el_p: ElementsResult) -> TwoFunctor:
    """The unique factorization Z -> El_P of a lax cone over P∘F.

    ``theta`` is a transformation from the constant terminal diagram to
    the composite of the diagram with F; its components select elements
    and its structural cells the connecting arrows.
    """
    rep = check_transformation(theta)
    if not rep.ok:
        raise PreconditionFailed(f"invalid cone: {rep.violations[0].detail}")
    Z = F.source
    obj_map = {}
    for ZO in Z.objects:
        x = theta.components[ZO].obj_map["*"]
        obj_map[ZO] = obj_name(x, F.obj_map[ZO])
    map1 = {}
    for r in Z.all_one_cells():
        phi = theta.structural[r].components["*"]
        x = theta.components[Z.src1(r)].obj_map["*"]
        map1[r] = mor_name(F.map1[r], phi, x)
    map2 = {}
    for x in Z.all_two_cells():
        s, t = Z.src2(x), Z.tgt2(x)
        map2[x] = cell_name(F.map2[x], map1[s], map1[t])
    return TwoFunctor(Z, el_p.cat, obj_map, map1, map2)


@dataclass
class LaxDensityTransport:
    """Mutually inverse maps between transformations P ⇒ Q and cones
    over Q restricted along the projection of El_P."""

    forward: dict  # transformation name -> cone name
    backward: dict
    hom_pq: object
    hom_cone: object


def lax_dense_transport(P: CatDiagram, Q: CatDiagram, el_p: ElementsResult,
                        flavor=None, cone_flavor=None,
                        meter: Meter | None = None) -> LaxDensityTransport:
    """Enumerate both sides of the density correspondence and match them.

    With a sigma flavor on the base, the image lands exactly in the
    cones that are sigma with respect to the induced marking on El_P.
    """
    meter = meter or Meter()
    flavor = flavor or LAX
    cone_flavor = cone_flavor or LAX
    hom_pq = hom_eps(P, Q, flavor, meter)
    q_proj = compose_diagram(Q, el_p.projection)
    k1 = constant_diagram(el_p.cat, terminal_category())
    hom_cone = hom_eps(k1, q_proj, cone_flavor, meter)

    forward = {}
    for name, eta in hom_pq.transfs.items():
        cone = _transport_forward(P, Q, el_p, eta, k1, q_proj, cone_flavor)
        forward[name] = hom_cone.name_of_transf(cone)
    backward = {}
    for name, th in hom_cone.transfs.items():
        eta = _transport_backward(P, Q, el_p, th, flavor)
        backward[name] = hom_pq.name_of_transf(eta)
    return LaxDensityTransport(forward, backward, hom_pq, hom_cone)


def _transport_forward(P, Q, el_p, eta, k1, q_proj, cone_flavor) -> Transformation:
    comps = {}
    structural = {}
    for o in el_p.cat.objects:
        x, A = el_p.points[o]
        target = Q.on_obj[A]
        val = eta.components[A].obj_map[x]
        comps[o] = Functor(k1.on_obj[o], target, {"*": val},
                           {"id_*": target.identity[val]})
    for nm, (f, phi) in el_p.pairs1.items():
        oa, ob = el_p.cat.hom_of_1cell(nm)
        x, _ = el_p.points[oa]
        _, B = el_p.points[ob]
        QB = Q.on_obj[B]
        comp = QB.compose[(eta.components[B].arr_map[phi],
                           eta.structural[f].components[x])]
        src = compose_functors(q_proj.on_1[nm], comps[oa])
        tgt = compose_functors(comps[ob], k1.on_1[nm])
        structural[nm] = NatTransf(src, tgt, {"*": comp})
    return Transformation(k1, q_proj, comps, structural, cone_flavor)


def _transport_backward(P, Q, el_p, th, flavor) -> Transformation:
    base = P.source
    comps = {}
    structural = {}
    for A in base.objects:
        PA, QA = P.on_obj[A], Q.on_obj[A]
        om, am = {}, {}
        for x in PA.objects:
            om[x] = th.components[obj_name(x, A)].obj_map["*"]
        for arr, (x, x2) in PA.arrows.items():
            nm = mor_name(base.id1[A], arr, x)
            am[arr] = th.structural[nm].components["*"]
        comps[A] = Functor(PA, QA, om, am)
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        PA = P.on_obj[A]
        comp = {}
        for x in PA.objects:
            nm = mor_name(f, P.on_obj[B].identity[P.on_1[f].obj_map[x]], x)
            comp[x] = th.structural[nm].components["*"]
        src = compose_functors(Q.on_1[f], comps[A])
        tgt = compose_functors(comps[B], P.on_1[f])
        structural[f] = NatTransf(src, tgt, comp)
    return Transformation(P, Q, comps, structural, flavor)
