"""π0 of an assembled finite 2-category, kept as the reference.

Kept for the differential tests only.  ``conical_sigma_colimit`` reads
π0 of the 1-cell dual of Γ(Q) straight from Q's tables
(``elements.dual_pi0``); these assemble the same category from a
``Fin2Cat``, so that ``pi0(op_dual(gamma_dual(Q).cat))`` is what the
reader must return.  ``pi0`` joins every class against every other
class, and raises on a composition that is not well defined.
"""

from sigmacat.errors import Inconsistency
from sigmacat.fincat import FinCat, mk_fincat, partition
from sigmacat.two_cat import Fin2Cat


def pi0_class_map(a: Fin2Cat) -> dict:
    """1-cell -> ``[f]``, f the least 1-cell of its connected component in
    its hom: the component-class arrow of ``pi0(a)``."""
    out = {}
    for pair in sorted(a.hom):
        h = a.hom[pair]
        out.update((f, f"[{r}]")
                   for f, r in partition(h.objects, h.arrows.values()).items())
    return out


def pi0(a: Fin2Cat) -> FinCat:
    """Collapse each hom to its connected components.

    Composition is induced on component classes and its well-definedness
    is verified; a violation means the input tables were inconsistent.
    """
    cls_of = pi0_class_map(a)
    members = {}  # class name -> its 1-cells
    for f, name in cls_of.items():
        members.setdefault(name, []).append(f)
    arrows = {name: a.hom_of_1cell(fs[0]) for name, fs in members.items()}
    identity = {A: cls_of[a.id1[A]] for A in a.objects}
    compose = {}
    for gname, gmem in members.items():
        for fname, fmem in members.items():
            if arrows[fname][1] != arrows[gname][0]:
                continue
            results = {cls_of[a.hcomp1[(g, f)]] for g in gmem for f in fmem}
            if len(results) != 1:
                raise Inconsistency(
                    f"pi0 composition ill-defined on ({gname},{fname})")
            compose[(gname, fname)] = results.pop()
    return mk_fincat(a.objects, arrows, identity, compose)
