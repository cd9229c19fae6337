"""Cone and cocone categories assembled, kept as references.

Kept for the differential tests only.  ``base_cone_category`` assembles
Cones_D(X) as a FinCat from the objects and hom-sets that
``colimits.BaseConeCategories.build`` reads off the hom diagram
a(X, D-) with the one cone kernel, and ``cocone_category`` does the same
for the cocones under a probe shape of ``filteredness``, as cones over
the same maps in the 1-cell duals.  The kernel decides the bilimit test
and the cocone search on objects and hom-sets alone; the tests compare
it against these assembled categories and their brute-force references,
and the kernel-parity pins fix their ticks.  ``explicit_shape_category``
is the hand-written description of each probe shape's cocone category,
and ``cone_category_equiv`` searches for an equivalence between the two.

The probe diagrams (``ShapeDiagram``, ``shape_diagram_1/2/3``) are the
biproduct, biinserter and biequifier of ``shapes`` in a marked
2-category, with the marking pulled back along them, and
``cone_existence`` finds their first marked cocone on the same kernel: a
cocone under a diagram is a cone over the same maps between the 1-cell
duals, that is a σ-cone from the point under the hom diagram of the dual
at its vertex.  ``filteredness`` scans the axioms directly; the tests
check that a marked 2-category is filtered exactly when every probe has
a marked cocone.  ``cone_category_names`` looks up the
cones and cone morphisms of a ``colimits.ConeCategory`` by key.
"""

from dataclasses import dataclass

from sigmacat.colimits import BaseConeCategories, _morphism_key
from sigmacat.config import Meter
from sigmacat.fincat import (assemble_category, enumerate_functors,
                             is_equivalence, mk_fincat)
from sigmacat.shapes import BIEQUIFIER, BIINSERTER, BIPRODUCT
from sigmacat.transforms import TwoFunctor, dual_twofunctor
from sigmacat.two_cat import Fin2Cat, Marked2Cat, WideSub


@dataclass(frozen=True)
class ShapeDiagram:
    """One of the three filteredness probe diagrams, with its marking."""

    shape: Fin2Cat
    diagram: TwoFunctor
    marked: frozenset  # shape 1-cells whose image lies in the marking


def probe(m: Marked2Cat, T: TwoFunctor) -> ShapeDiagram:
    """T with the shape 1-cells that it sends into the marking marked."""
    return ShapeDiagram(T.source, T, frozenset(
        u for u in T.source.all_one_cells() if T.map1[u] in m.sigma.arrows))


def shape_diagram_1(m: Marked2Cat, C: str, D: str) -> ShapeDiagram:
    return probe(m, BIPRODUCT.diagram(m.cat, C, D))


def shape_diagram_2(m: Marked2Cat, f: str, g: str) -> ShapeDiagram:
    return probe(m, BIINSERTER.diagram(m.cat, f, g))


def shape_diagram_3(m: Marked2Cat, f: str, g: str, alpha: str, beta: str) -> ShapeDiagram:
    """The probe at alpha, beta : f => g."""
    return probe(m, BIEQUIFIER.diagram(m.cat, alpha, beta))


def cone_existence(sd: ShapeDiagram, sigma: WideSub, meter: Meter | None = None):
    """Search for a cocone under the probe diagram with marked legs.

    Components must land in the marking; structural cells at marked
    shape arrows must be invertible.  Returns the first cocone found in
    lexicographic order, as (vertex, legs, cells), or None.
    """
    over = BaseConeCategories(dual_twofunctor(sd.diagram), sd.marked, meter)
    for E in sorted(over.D.target.objects):
        for legs, cells in over.search(E, legs=sigma.arrows):
            cone = over.base_cone(E, legs, cells)
            return (E, cone.comp, cone.struct)
    return None


def base_cone_category(D, marked, vertex, meter=None):
    """Cones_D(vertex) as a FinCat: ``BaseConeCategories.build`` assembled,
    composed componentwise, one tick per composable pair.

    The cones are named ``k0, k1, …`` in generation order.  Returns
    (category, cones by name, arrow components by name, each a dict by
    shape object).
    """
    meter = meter or Meter()
    amb = D.target
    over = BaseConeCategories(D, marked, meter)
    found, homs = over.build(vertex)

    def composite(r2: tuple, r1: tuple) -> tuple:
        meter.tick()
        return tuple(amb.vcomp(y, x) for y, x in zip(r2, r1))

    cat, data = assemble_category(
        len(found), ("k", "q"), homs,
        lambda rho: all(amb.is_identity_2cell(x) for x in rho),
        lambda rho: rho, composite)
    return cat, {f"k{p}": over.base_cone(vertex, *c) for p, c in enumerate(found)}, \
        {name: dict(zip(over.kernel.objs, rho)) for name, rho in data.items()}


def cocone_category(sd, E, meter=None):
    """All cocones under the probe diagram with vertex E (components
    unrestricted), arrows the 2-cell families satisfying the modification
    square: ``base_cone_category`` in the 1-cell dual.  Returns (category,
    (legs, cells) of each cocone by name)."""
    cat, cones, _ = base_cone_category(dual_twofunctor(sd.diagram), sd.marked, E, meter)
    return cat, {n: (c.comp, c.struct) for n, c in cones.items()}


def explicit_shape_category(sd, E, which, m):
    """The hand-rolled description of the cone category for each shape.

    Shape 1: pairs of arrows to E with pairs of cells between them.
    Shape 2: an arrow from the second value with a connecting cell,
    invertible when the first leg is marked, arrows the compatible cells.
    Shape 3: arrows equalizing the two whiskered cells, with all cells.
    """
    a = m.cat
    T = sd.diagram
    if which == 1:
        C, D = T.obj_map["a"], T.obj_map["b"]
        objs = [f"({h},{l})" for h in a.one_cells(C, E) for l in a.one_cells(D, E)]
        arrows, identity, compose, cells = {}, {}, {}, {}
        for h in a.one_cells(C, E):
            for l in a.one_cells(D, E):
                o = f"({h},{l})"
                for h2 in a.one_cells(C, E):
                    for l2 in a.one_cells(D, E):
                        o2 = f"({h2},{l2})"
                        for x in a.two_cells_between(h, h2):
                            for y in a.two_cells_between(l, l2):
                                arrows[f"({x},{y})"] = (o, o2)
                                cells[f"({x},{y})"] = (x, y)
                identity[o] = f"({a.id2(h)},{a.id2(l)})"
        for n1, (o1, o2) in arrows.items():
            x1, y1 = cells[n1]
            for n2, (o2b, o3) in arrows.items():
                if o2b != o2:
                    continue
                x2, y2 = cells[n2]
                compose[(n2, n1)] = f"({a.vcomp(x2, x1)},{a.vcomp(y2, y1)})"
        return mk_fincat(objs, arrows, identity, compose)
    f, g = T.map1["u"], T.map1["v"]
    D = a.tgt1(f)
    need_inv = which == 3 or (f in m.sigma.arrows)
    if which == 2:
        objs = []
        info = {}
        for h in a.one_cells(D, E):
            hf, hg = a.hcomp1[(h, f)], a.hcomp1[(h, g)]
            for gam in a.two_cells_between(hf, hg):
                if need_inv and not a.is_invertible_2cell(gam):
                    continue
                o = f"({h},{gam})"
                objs.append(o)
                info[o] = (h, gam)
        arrows, identity, compose, cells = {}, {}, {}, {}
        for o, (h, gam) in info.items():
            for o2, (h2, gam2) in info.items():
                for eta in a.two_cells_between(h, h2):
                    # compatibility with the connecting cells
                    lhs = a.vcomp(a.hcomp2[(eta, a.id2(g))], gam)
                    rhs = a.vcomp(gam2, a.hcomp2[(eta, a.id2(f))])
                    if lhs == rhs:
                        arrows[f"{eta}@{o}->{o2}"] = (o, o2)
                        cells[f"{eta}@{o}->{o2}"] = eta
            identity[o] = f"{a.id2(h)}@{o}->{o}"
        for n1, (o1, o2) in arrows.items():
            for n2, (o2b, o3) in arrows.items():
                if o2b != o2:
                    continue
                compose[(n2, n1)] = f"{a.vcomp(cells[n2], cells[n1])}@{o1}->{o3}"
        return mk_fincat(objs, arrows, identity, compose)
    # which == 3
    alpha, beta = T.map2["th"], T.map2["et"]
    objs = []
    for h in a.one_cells(D, E):
        idh = a.id2(h)
        if a.hcomp2[(idh, alpha)] == a.hcomp2[(idh, beta)]:
            objs.append(h)
    arrows, identity, compose, cells = {}, {}, {}, {}
    for h in objs:
        for h2 in objs:
            for eta in a.two_cells_between(h, h2):
                arrows[f"{eta}@{h}->{h2}"] = (h, h2)
                cells[f"{eta}@{h}->{h2}"] = eta
        identity[h] = f"{a.id2(h)}@{h}->{h}"
    for n1, (o1, o2) in arrows.items():
        for n2, (o2b, o3) in arrows.items():
            if o2b != o2:
                continue
            compose[(n2, n1)] = f"{a.vcomp(cells[n2], cells[n1])}@{o1}->{o3}"
    return mk_fincat(objs, arrows, identity, compose)


def cone_category_equiv(sd, E, which, m, meter=None):
    """Search for an equivalence between the enumerated cone category and
    its explicit description.  Returns (cone category, explicit, functor)."""
    meter = meter or Meter()
    cat, _cones = cocone_category(sd, E, meter)
    explicit = explicit_shape_category(sd, E, which, m)
    for F in enumerate_functors(cat, explicit, meter):
        if is_equivalence(F).verdict:
            return cat, explicit, F
    return cat, explicit, None


def cone_category_names(cc) -> tuple[dict, dict]:
    """The names in a ``ConeCategory``: of each cone by its key, and of each
    morphism by (source, target, key of its components); where two names
    share a key, the first wins."""
    cones, morphisms = {}, {}
    for name, c in cc.cones.items():
        cones.setdefault(c.key(), name)
    for name, comps in cc.morphisms.items():
        src, tgt = cc.cat.arrows[name]
        morphisms.setdefault((src, tgt, _morphism_key(comps)), name)
    return cones, morphisms
