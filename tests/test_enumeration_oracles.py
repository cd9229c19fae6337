"""The enumerators against brute-force references built on the validators.

Each reference takes the full product of every component and every
structural cell, with no pruning, and keeps what the functor-level
validator accepts: ``check_transformation`` for transformations,
``check_modification`` for modifications and ``check_sigma_cone`` for
cones.  Cone morphisms have no public validator, so their reference is
the morphism square written out with whiskered transformations.  The
enumerators decide the same axioms on component tables and must return
exactly these results, in the same order.
"""

import itertools

import pytest

from sigmacat.colimits import SigmaCone, check_sigma_cone, cones_sigma
from sigmacat.errors import PreconditionFailed
from sigmacat.fincat import (arrow_category, compose_functors,
                             enumerate_functors, enumerate_nat_transfs,
                             iso_pair_category, vcomp_nat, whisker_nat_functor)
from sigmacat.fixtures import (arrow_2cat, diagram_collapse,
                               diagram_on_free2cell, diagram_pick0,
                               pseudo_swap, pseudo_z2)
from sigmacat.transforms import (LAX, PSEUDO, STRICT, Modification,
                                 Transformation, check_modification,
                                 check_transformation, constant_diagram,
                                 hom_eps, sigma_flavor)
from sigmacat.two_cat import free_2cell_2cat


def brute_transformations(P, Q, flavor) -> list:
    """Sorted keys of every transformation P ⇒ Q check_transformation accepts."""
    base = P.source
    objs = sorted(base.objects)
    cells = base.all_one_cells()
    keys = []
    for combo in itertools.product(
            *(enumerate_functors(P.on_obj[A], Q.on_obj[A]) for A in objs)):
        comps = dict(zip(objs, combo))
        pools = [enumerate_nat_transfs(
                     compose_functors(Q.on_1[f], comps[base.src1(f)]),
                     compose_functors(comps[base.tgt1(f)], P.on_1[f]))
                 for f in cells]
        for st in itertools.product(*pools):
            t = Transformation(P, Q, comps, dict(zip(cells, st)), flavor)
            if check_transformation(t).ok:
                keys.append(t.key())
    return sorted(keys)


def brute_modifications(t1, t2) -> list:
    """Sorted keys of every modification t1 ⇛ t2 check_modification accepts."""
    objs = sorted(t1.components)
    keys = []
    for combo in itertools.product(
            *(enumerate_nat_transfs(t1.components[A], t2.components[A])
              for A in objs)):
        m = Modification(t1, t2, dict(zip(objs, combo)))
        if check_modification(m).ok:
            keys.append(m.key())
    return sorted(keys)


def brute_cones(Q, marked, E) -> list:
    """Sorted keys of every cone under Q with vertex E check_sigma_cone accepts."""
    base = Q.source
    objs = sorted(base.objects)
    cells = base.all_one_cells()
    keys = []
    for combo in itertools.product(
            *(enumerate_functors(Q.on_obj[A], E) for A in objs)):
        comps = dict(zip(objs, combo))
        pools = [enumerate_nat_transfs(
                     compose_functors(comps[base.tgt1(f)], Q.on_1[f]),
                     comps[base.src1(f)])
                 for f in cells]
        for st in itertools.product(*pools):
            c = SigmaCone(Q, marked, E, comps, dict(zip(cells, st)))
            if check_sigma_cone(c).ok:
                keys.append(c.key())
    return sorted(keys)


def morphism_square_holds(c1, c2, rho) -> bool:
    """ρ_A ∘ σ1_f = σ2_f ∘ ρ_B Q(f) at every 1-cell f : A → B."""
    Q, base = c1.diagram, c1.diagram.source
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        lhs = vcomp_nat(rho[A], c1.structural[f])
        rhs = vcomp_nat(c2.structural[f], whisker_nat_functor(rho[B], Q.on_1[f]))
        if lhs.components != rhs.components:
            return False
    return True


def brute_cone_morphisms(c1, c2) -> list:
    objs = sorted(c1.components)
    keys = []
    for combo in itertools.product(
            *(enumerate_nat_transfs(c1.components[A], c2.components[A])
              for A in objs)):
        rho = dict(zip(objs, combo))
        if morphism_square_holds(c1, c2, rho):
            keys.append(tuple((A, rho[A].key()) for A in objs))
    return sorted(keys)


# ---------------------------------------------------------------------------
# Inputs: a strict diagram on the walking arrow, one on a base with a
# 2-cell, and pseudofunctors with nontrivial structure cells.

PAIRS = {
    "arrow": lambda: (diagram_pick0(),
                      constant_diagram(arrow_2cat(), arrow_category()), {"f"}),
    "free2cell": lambda: (diagram_on_free2cell(),
                          constant_diagram(free_2cell_2cat(), arrow_category()),
                          {"u"}),
    "pseudo-z2-swap": lambda: (pseudo_z2(), pseudo_swap(), {"f"}),
    "pseudo-swap-swap": lambda: (pseudo_swap(), pseudo_swap(), set()),
}


def flavor_of(kind, marked):
    return {"s": STRICT, "p": PSEUDO, "sigma": sigma_flavor(marked), "l": LAX}[kind]


@pytest.mark.parametrize("kind", ["s", "p", "sigma", "l"])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_hom_eps_matches_the_brute_force_reference(pair, kind):
    P, Q, marked = PAIRS[pair]()
    flavor = flavor_of(kind, marked)
    if kind == "s" and (P.is_pseudo or Q.is_pseudo):
        with pytest.raises(PreconditionFailed):
            hom_eps(P, Q, flavor)
        return
    h = hom_eps(P, Q, flavor)
    assert h.transfs
    assert [t.key() for t in h.transfs.values()] == brute_transformations(P, Q, flavor)
    by_pair = {}
    for name, m in h.mods.items():
        by_pair.setdefault(h.cat.arrows[name], []).append(m.key())
    for n1, t1 in h.transfs.items():
        for n2, t2 in h.transfs.items():
            assert by_pair.get((n1, n2), []) == brute_modifications(t1, t2)


CONES = {
    "pick0-arrow-ids": lambda: (diagram_pick0(), frozenset(), arrow_category()),
    "pick0-arrow-all": lambda: (diagram_pick0(), frozenset({"f"}), arrow_category()),
    "collapse-iso_pair-all": lambda: (diagram_collapse(), frozenset({"f"}),
                                      iso_pair_category()),
    "free2cell-arrow-ids": lambda: (diagram_on_free2cell(), frozenset(),
                                    arrow_category()),
    "free2cell-arrow-u": lambda: (diagram_on_free2cell(), frozenset({"u"}),
                                  arrow_category()),
}


@pytest.mark.parametrize("case", sorted(CONES))
def test_cones_sigma_matches_the_brute_force_reference(case):
    Q, marked, E = CONES[case]()
    cc = cones_sigma(Q, marked, E)
    assert [c.key() for c in cc.cones.values()] == brute_cones(Q, marked, E)
    assert cc.cones
    objs = sorted(Q.source.objects)
    by_pair = {}
    for name, rho in cc.morphisms.items():
        by_pair.setdefault(cc.cat.arrows[name], []).append(
            tuple((A, rho[A].key()) for A in objs))
    for n1, c1 in cc.cones.items():
        for n2, c2 in cc.cones.items():
            assert by_pair.get((n1, n2), []) == brute_cone_morphisms(c1, c2)
