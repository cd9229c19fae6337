"""The bilimit cone search as it stood before the compiled cone kernel.

Kept as the reference for the differential tests only.  The kernel here
resolves the shape side again on every call: ``cone_candidates`` proposes
legs and structural cells, ``cone_laws`` decides LN2 and LN1, and
``cone_square`` the modification square.  ``reference_bilimit_cones``
searches each generating diagram by walking every vertex in sorted order
and testing every cone of Cones_D(L), in generation order, for being a
bilimit, over cone categories built once per object of the base; its
ticks are those of the builds.  ``flatness.generate_bilimit_cones`` must
return the same cones, in the same order, for the same ticks.
"""

import itertools

from sigmacat.colimits import BaseCone
from sigmacat.config import Meter
from sigmacat.fincat import is_equivalence_on_homs
from sigmacat.shapes import generating_diagrams


def cone_candidates(D, marked, vertex, meter, legs=None):
    """Per choice of legs t_i : vertex → D(i) in lexicographic order (drawn
    from ``legs`` when it is given), the legs and an iterator over every
    family of structural cells D(u)∘t_i ⇒ t_j: identities at identity
    1-cells, invertible at marked ones.  Ticks once per choice of legs."""
    sh, amb = D.source, D.target
    objs = sorted(sh.objects)
    ids = set(sh.id1.values())
    non_id = [u for u in sh.all_one_cells() if u not in ids]
    pools = [[t for t in amb.one_cells(vertex, D.obj_map[i])
              if legs is None or t in legs] for i in objs]
    for combo in itertools.product(*pools):
        meter.tick()
        comp = dict(zip(objs, combo))
        cell_pools = []
        for u in non_id:
            src = amb.hcomp1[(D.map1[u], comp[sh.src1(u)])]
            pool = amb.two_cells_between(src, comp[sh.tgt1(u)])
            if u in marked:
                pool = [x for x in pool if amb.is_invertible_2cell(x)]
            if not pool:
                break
            cell_pools.append(pool)
        else:
            fixed = {sh.id1[i]: amb.id2(comp[i]) for i in objs}
            yield comp, ({**fixed, **dict(zip(non_id, cells))}
                         for cells in itertools.product(*cell_pools))


def cone_laws(D, comp):
    """The test of LN2 and LN1 on structural cells over the legs ``comp``."""
    sh, amb = D.source, D.target
    hc2 = amb.hcomp2
    cmp = {i: amb.hom[amb.hom_of_1cell(t)].compose for i, t in comp.items()}
    ln2 = []
    for x in sh.all_two_cells():
        u, v = sh.src2(x), sh.tgt2(x)
        ln2.append((u, v, hc2[(D.map2[x], amb.id2(comp[sh.src1(u)]))],
                    cmp[sh.tgt1(u)]))
    ln1 = [(vu, v, u, amb.id2(D.map1[v]), cmp[sh.tgt1(v)])
           for (v, u), vu in sh.hcomp1.items()]

    def hold(struct: dict) -> bool:
        for u, v, whisker, c in ln2:
            if struct[u] != c[(struct[v], whisker)]:
                return False
        for vu, v, u, idv, c in ln1:
            if struct[vu] != c[(struct[v], hc2[(idv, struct[u])])]:
                return False
        return True

    return hold


def cone_square(D, s1: dict, s2: dict):
    """The test of the modification square ρ_j∘σ1_u = σ2_u∘(D(u)*ρ_i)."""
    sh, amb = D.source, D.target
    hc2 = amb.hcomp2
    rows = [(sh.src1(u), sh.tgt1(u), s1[u], s2[u], amb.id2(D.map1[u]),
             amb.hom[amb.hom_of_2cell(s1[u])].compose)
            for u in sh.all_one_cells()]

    def commutes(rho: dict) -> bool:
        for i, j, c1, c2, idu, c in rows:
            if c[(rho[j], c1)] != c[(c2, hc2[(idu, rho[i])])]:
                return False
        return True

    return commutes


def cone_homs(D, marked, vertex, meter) -> tuple[list, dict]:
    """The cones of Cones_D(vertex) in generation order and, per pair of
    positions, the morphisms between them.  Ticks once per choice of legs,
    per cell candidate and per morphism candidate."""
    sh, amb = D.source, D.target
    objs = sorted(sh.objects)
    found = []
    for comp, structs in cone_candidates(D, marked, vertex, meter):
        hold = cone_laws(D, comp)
        for struct in structs:
            meter.tick()
            if hold(struct):
                found.append(BaseCone(sh, D, marked, vertex, comp, struct))
    homs = {}
    for i, c1 in enumerate(found):
        for j, c2 in enumerate(found):
            commutes = cone_square(D, c1.struct, c2.struct)
            homs[(i, j)] = []
            for combo in itertools.product(
                    *[amb.two_cells_between(c1.comp[o], c2.comp[o]) for o in objs]):
                meter.tick()
                rho = dict(zip(objs, combo))
                if commutes(rho):
                    homs[(i, j)].append(rho)
    return found, homs


def reference_bilimit_cones(a, meter: Meter | None = None) -> list:
    """(label, cone) for the first bilimit cone of every generating diagram
    of ``a`` that has one: every vertex in sorted order, every cone of
    Cones_D(L) tested in generation order."""
    meter = meter or Meter()

    def search(D, marked):
        sh, amb = D.source, D.target
        objs, cells = sorted(sh.objects), sorted(sh.all_one_cells())
        hc1, hc2 = amb.hcomp1, amb.hcomp2
        built = {}

        def at(X):
            if X not in built:
                cones, homs = cone_homs(D, marked, X, meter)
                keys = {ij: {tuple(sorted(rho.items())) for rho in rhos}
                        for ij, rhos in homs.items()}
                objects = {(tuple(sorted(c.comp.items())),
                            tuple(sorted(c.struct.items()))): p
                           for p, c in enumerate(cones)}
                built[X] = (cones, objects, keys)
            return built[X]

        def is_bilimit(c) -> bool:
            legs = [(i, c.comp[i], amb.id2(c.comp[i])) for i in objs]
            structs = [(u, c.struct[u]) for u in cells]

            def cone_of(t):
                idt = amb.id2(t)
                return (tuple((i, hc1[(leg, t)]) for i, leg, _ in legs),
                        tuple((u, hc2[(s, idt)]) for u, s in structs))

            def morphism_of(x):
                return tuple((i, hc2[(idl, x)]) for i, _, idl in legs)

            def invertible(rho):
                return all(amb.is_invertible_2cell(x) for _, x in rho)

            for X in amb.objects:
                _, objects, homs = at(X)
                if not is_equivalence_on_homs(amb.hom[(X, c.vertex)], objects,
                                              cone_of, morphism_of,
                                              lambda i, j: homs[(i, j)], invertible):
                    return False
            return True

        for L in sorted(a.objects):
            for cone in at(L)[0]:
                if is_bilimit(cone):
                    return cone
        return None

    cones = []
    for label, D, marked in generating_diagrams(a):
        got = search(D, marked)
        if got is not None:
            cones.append((label, got))
    return cones
