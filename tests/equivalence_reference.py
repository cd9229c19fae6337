"""Equivalence of finite categories by brute force, kept as a reference.

Kept for the differential tests only.  ``quasi_inverse_search`` decides
whether a functor F is an equivalence by its definition: it enumerates
every functor G back and asks for natural isomorphisms GF ≅ id and
FG ≅ id.  ``fincat.is_equivalence`` decides the same question by full,
faithful and essentially surjective, and must agree.
``categories_equivalent`` compares two categories through their skeletons
and ``fincat.find_isomorphism``.
"""

from sigmacat.config import Meter
from sigmacat.fincat import (compose_functors, enumerate_functors,
                             enumerate_nat_transfs, find_isomorphism,
                             identity_functor, iso_classes, mk_fincat,
                             nat_is_invertible)


def quasi_inverse_search(F, meter=None):
    """Brute-force search for G with GF ≅ id and FG ≅ id; the first G in
    enumeration order, or None."""
    meter = meter or Meter()
    for G in enumerate_functors(F.target, F.source, meter):
        if enumerate_iso_transfs(compose_functors(G, F), identity_functor(F.source), meter) \
                and enumerate_iso_transfs(compose_functors(F, G), identity_functor(F.target), meter):
            return G
    return None


def enumerate_iso_transfs(F, G, meter=None) -> list:
    return [n for n in enumerate_nat_transfs(F, G, meter) if nat_is_invertible(n)]


def skeleton(c):
    """Full subcategory on one representative per isomorphism class."""
    reps = {}
    for cls in iso_classes(c):
        rep = min(cls)
        for x in cls:
            reps[x] = rep
    keep = sorted(set(reps.values()))
    arrows = {a: (s, t) for a, (s, t) in c.arrows.items()
              if s in keep and t in keep}
    identity = {x: c.identity[x] for x in keep}
    compose = {(g, f): h for (g, f), h in c.compose.items()
               if g in arrows and f in arrows}
    return mk_fincat(keep, arrows, identity, compose)


def categories_equivalent(c, d, meter=None) -> bool:
    """Equivalence of finite categories via isomorphism of skeletons."""
    return find_isomorphism(skeleton(c), skeleton(d), meter) is not None
