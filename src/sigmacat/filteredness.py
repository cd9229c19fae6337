"""Filteredness of a marked finite 2-category, by exhaustive search.

A marked 2-category is filtered when it is nonempty, every pair of
objects admits a marked cospan, every parallel pair whose second leg is
marked admits a marked coequalizing cell (invertible when the first leg
is marked too), and every parallel pair of 2-cells into a marked leg is
merged by some marked postcomposition.  The checker scans every
instance of every axiom, records the first witness found in a fixed
lexicographic order, and re-validates each witness against the raw
equations before reporting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import Meter
from .errors import PreconditionFailed
from .fincat import Functor, is_equivalence
from .two_cat import Marked2Cat, WideSub, op_dual, transport_sigma
from .transforms import TwoFunctor


AXIOM_NONEMPTY = "nonempty"
AXIOM_F0 = "sigma-F0"
AXIOM_F1 = "sigma-F1"
AXIOM_F2 = "sigma-F2"
AXIOM_C0 = "sigma-C0"
AXIOM_C1 = "sigma-C1"
AXIOM_C2 = "sigma-C2"


@dataclass(frozen=True)
class Witness:
    axiom: str
    instance: tuple
    data: tuple


@dataclass
class FilterednessReport:
    verdict: bool
    witnesses: list = field(default_factory=list)
    counterexample: Witness | None = None

    def __bool__(self) -> bool:
        return self.verdict


def _revalidate_f(m: Marked2Cat, w: Witness) -> bool:
    """Check a recorded witness against the raw axiom equations."""
    a, sig = m.cat, m.sigma.arrows
    if w.axiom == AXIOM_F0:
        A, B = w.instance
        f, g = w.data
        return f in sig and g in sig and a.src1(f) == A and a.src1(g) == B \
            and a.tgt1(f) == a.tgt1(g)
    if w.axiom == AXIOM_F1:
        f, g = w.instance
        h, alpha = w.data
        if h not in sig or a.src1(h) != a.tgt1(f):
            return False
        hf, hg = a.hcomp1[(h, f)], a.hcomp1[(h, g)]
        if a.src2(alpha) != hf or a.tgt2(alpha) != hg:
            return False
        if f in sig and not a.is_invertible_2cell(alpha):
            return False
        return True
    if w.axiom == AXIOM_F2:
        f, g, alpha, beta = w.instance
        (h,) = w.data
        if h not in sig or a.src1(h) != a.tgt1(f):
            return False
        idh = a.id2(h)
        return a.hcomp2[(idh, alpha)] == a.hcomp2[(idh, beta)]
    if w.axiom == AXIOM_NONEMPTY:
        return len(a.objects) > 0
    return False


def check_sigma_filtered(m: Marked2Cat, meter: Meter | None = None) -> FilterednessReport:
    """Exhaustive scan of the three filteredness axioms with witnesses."""
    meter = meter or Meter()
    a, sig = m.cat, m.sigma.arrows
    rep = FilterednessReport(True)
    if not a.objects:
        rep.verdict = False
        rep.counterexample = Witness(AXIOM_NONEMPTY, (), ())
        return rep
    rep.witnesses.append(Witness(AXIOM_NONEMPTY, (), (sorted(a.objects)[0],)))

    # F0: every object pair has a marked cospan
    for A in sorted(a.objects):
        for B in sorted(a.objects):
            found = None
            for E in sorted(a.objects):
                for f in a.one_cells(A, E):
                    if f not in sig:
                        continue
                    for g in a.one_cells(B, E):
                        meter.tick()
                        if g in sig:
                            found = Witness(AXIOM_F0, (A, B), (f, g))
                            break
                    if found:
                        break
                if found:
                    break
            if found is None:
                rep.verdict = False
                rep.counterexample = Witness(AXIOM_F0, (A, B), ())
                return rep
            rep.witnesses.append(found)

    # F1: parallel pairs with marked second leg
    for A in sorted(a.objects):
        for B in sorted(a.objects):
            for f in a.one_cells(A, B):
                for g in a.one_cells(A, B):
                    if g not in sig:
                        continue
                    need_invertible = f in sig
                    found = None
                    for E in sorted(a.objects):
                        for h in a.one_cells(B, E):
                            if h not in sig:
                                continue
                            hf, hg = a.hcomp1[(h, f)], a.hcomp1[(h, g)]
                            for alpha in a.two_cells_between(hf, hg):
                                meter.tick()
                                if need_invertible and not a.is_invertible_2cell(alpha):
                                    continue
                                found = Witness(AXIOM_F1, (f, g), (h, alpha))
                                break
                            if found:
                                break
                        if found:
                            break
                    if found is None:
                        rep.verdict = False
                        rep.counterexample = Witness(AXIOM_F1, (f, g), ())
                        return rep
                    rep.witnesses.append(found)

    # F2: parallel 2-cells into a marked leg
    for A in sorted(a.objects):
        for B in sorted(a.objects):
            for f in a.one_cells(A, B):
                for g in a.one_cells(A, B):
                    if g not in sig:
                        continue
                    cells = a.two_cells_between(f, g)
                    for alpha in cells:
                        for beta in cells:
                            if alpha == beta:
                                continue
                            found = None
                            for E in sorted(a.objects):
                                for h in a.one_cells(B, E):
                                    if h not in sig:
                                        continue
                                    meter.tick()
                                    idh = a.id2(h)
                                    if a.hcomp2[(idh, alpha)] == a.hcomp2[(idh, beta)]:
                                        found = Witness(AXIOM_F2,
                                                        (f, g, alpha, beta), (h,))
                                        break
                                if found:
                                    break
                            if found is None:
                                rep.verdict = False
                                rep.counterexample = Witness(
                                    AXIOM_F2, (f, g, alpha, beta), ())
                                return rep
                            rep.witnesses.append(found)

    for w in rep.witnesses:
        if w.axiom != AXIOM_NONEMPTY and not _revalidate_f(m, w):
            raise AssertionError(f"recorded witness fails re-validation: {w}")
    return rep


def check_sigma_cofiltered(m: Marked2Cat, meter: Meter | None = None) -> FilterednessReport:
    """Filteredness of the 1-cell dual, marking transported by name."""
    dual = op_dual(m.cat)
    return check_sigma_filtered(Marked2Cat(dual, transport_sigma(m.sigma, dual)), meter)


def check_sigma_cofinal(T: TwoFunctor, sigma: WideSub, sigma_prime: WideSub,
                        meter: Meter | None = None) -> FilterednessReport:
    """Cofinality of T relative to markings on its source and target.

    Requires the source to be filtered for its marking; scans the three
    cofinality axioms with witnesses.
    """
    meter = meter or Meter()
    c, cp = T.source, T.target
    pre = check_sigma_filtered(Marked2Cat(c, sigma), meter)
    if not pre.verdict:
        raise PreconditionFailed("source is not filtered for its marking")
    sig, sigp = sigma.arrows, sigma_prime.arrows
    rep = FilterednessReport(True)

    # C0: every target object maps into the image along a marked arrow
    for Cp in sorted(cp.objects):
        found = None
        for C in sorted(c.objects):
            for f in cp.one_cells(Cp, T.obj_map[C]):
                meter.tick()
                if f in sigp:
                    found = Witness(AXIOM_C0, (Cp,), (C, f))
                    break
            if found:
                break
        if found is None:
            rep.verdict = False
            rep.counterexample = Witness(AXIOM_C0, (Cp,), ())
            return rep
        rep.witnesses.append(found)

    # C1: parallel pairs into an image object, second leg marked
    for C in sorted(c.objects):
        for Cp in sorted(cp.objects):
            cells = cp.one_cells(Cp, T.obj_map[C])
            for f in cells:
                for g in cells:
                    if g not in sigp:
                        continue
                    need_invertible = f in sigp
                    found = None
                    for D in sorted(c.objects):
                        for u in c.one_cells(C, D):
                            if u not in sig:
                                continue
                            Tu = T.map1[u]
                            uf = cp.hcomp1[(Tu, f)]
                            ug = cp.hcomp1[(Tu, g)]
                            for alpha in cp.two_cells_between(uf, ug):
                                meter.tick()
                                if need_invertible and \
                                        not cp.is_invertible_2cell(alpha):
                                    continue
                                found = Witness(AXIOM_C1, (f, g, C), (u, alpha))
                                break
                            if found:
                                break
                        if found:
                            break
                    if found is None:
                        rep.verdict = False
                        rep.counterexample = Witness(AXIOM_C1, (f, g, C), ())
                        return rep
                    rep.witnesses.append(found)

    # C2: parallel 2-cells into an image object, second leg marked
    for C in sorted(c.objects):
        for Cp in sorted(cp.objects):
            cells = cp.one_cells(Cp, T.obj_map[C])
            for f in cells:
                for g in cells:
                    if g not in sigp:
                        continue
                    twocells = cp.two_cells_between(f, g)
                    for alpha in twocells:
                        for beta in twocells:
                            if alpha == beta:
                                continue
                            found = None
                            for D in sorted(c.objects):
                                for u in c.one_cells(C, D):
                                    if u not in sig:
                                        continue
                                    meter.tick()
                                    idu = cp.id2(T.map1[u])
                                    if cp.hcomp2[(idu, alpha)] == \
                                            cp.hcomp2[(idu, beta)]:
                                        found = Witness(
                                            AXIOM_C2, (f, g, alpha, beta, C), (u,))
                                        break
                                if found:
                                    break
                            if found is None:
                                rep.verdict = False
                                rep.counterexample = Witness(
                                    AXIOM_C2, (f, g, alpha, beta, C), ())
                                return rep
                            rep.witnesses.append(found)
    return rep


def cofinal_via_ff(T: TwoFunctor, sigma_prime: WideSub,
                   meter: Meter | None = None) -> FilterednessReport:
    """Filteredness and cofinality transported along a nice embedding.

    Hypotheses: the target is filtered for its marking, T is hom-wise an
    equivalence, the first cofinality axiom holds, and the source
    marking is the preimage.  The conclusion is then re-verified by the
    direct checkers rather than assumed.
    """
    meter = meter or Meter()
    cp = T.target
    rep_target = check_sigma_filtered(Marked2Cat(cp, sigma_prime), meter)
    if not rep_target.verdict:
        raise PreconditionFailed("target is not filtered for its marking")
    for A in T.source.objects:
        for B in T.source.objects:
            src_cells = T.source.one_cells(A, B)
            hom_src = T.source.hom[(A, B)]
            hom_tgt = cp.hom[(T.obj_map[A], T.obj_map[B])]
            F = Functor(hom_src, hom_tgt,
                        {f: T.map1[f] for f in hom_src.objects},
                        {x: T.map2[x] for x in hom_src.arrows})
            if not is_equivalence(F).verdict:
                raise PreconditionFailed("functor is not hom-wise an equivalence")
    # C0 by direct search
    sigma = WideSub(T.source, frozenset(
        f for f in T.source.all_one_cells() if T.map1[f] in sigma_prime.arrows))
    for Cp in cp.objects:
        hit = any(f in sigma_prime.arrows
                  for C in T.source.objects
                  for f in cp.one_cells(Cp, T.obj_map[C]))
        if not hit:
            raise PreconditionFailed(f"no marked arrow from {Cp} into the image")
    rep_src = check_sigma_filtered(Marked2Cat(T.source, sigma), meter)
    if not rep_src.verdict:
        return rep_src
    return check_sigma_cofinal(T, sigma, sigma_prime, meter)