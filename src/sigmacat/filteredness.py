"""Filteredness and cofinality of marked finite 2-categories, by
exhaustive search.

A marked 2-category is filtered when it is nonempty, every pair of
objects admits a marked cospan (F0), every parallel pair whose second
leg is marked admits a marked coequalizing cell, invertible when the
first leg is marked too (F1), and every parallel pair of 2-cells into a
marked leg is merged by some marked postcomposition (F2).  The
cofinality axioms C1 and C2 of a 2-functor T say the same of pairs into
T(C), postcomposed with T(u) for marked u out of C; for the identity they
are F1 and F2, and one coequalizer scan serves all four.  Each checker
records the first witness of every instance in a fixed lexicographic
order and stops at the first instance without one.  The scan is the one
implementation; the tests re-check every witness it records against the
raw equations (``tests/witness_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import Meter
from .elements import preimage_marking
from .errors import PreconditionFailed
from .fincat import Functor, is_equivalence
from .two_cat import Marked2Cat, OpView, WideSub
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


def _record(rep: FilterednessReport, axiom: str, instance: tuple,
            data: tuple | None) -> bool:
    """Append the witness of one axiom instance; with no ``data``, make
    the instance the counterexample instead and fail the verdict."""
    if data is None:
        rep.verdict = False
        rep.counterexample = Witness(axiom, instance, ())
        return False
    rep.witnesses.append(Witness(axiom, instance, data))
    return True


def _coequalize(a, marked, instances: list, axioms: tuple[str, str],
                rep: FilterednessReport, meter: Meter) -> None:
    """The two coequalizer axioms over ``instances``, in ``a`` marked by
    ``marked``: all of the 1-cell axiom first, then all of the 2-cell one.

    An instance is ``(f, g, labels, extensions)``: a parallel pair with g
    marked, the labels that end its instance tuple, and the marked
    extensions ``(name, h)`` to try, in order, where h is the 1-cell of
    ``a`` that postcomposes and name is what a witness records.  Stops at
    the first instance that no extension serves."""
    def merge_legs(f, g, extensions):
        invertible = f in marked
        for name, h in extensions:
            for alpha in a.two_cells_between(a.hcomp1[(h, f)], a.hcomp1[(h, g)]):
                meter.tick()
                if not invertible or a.is_invertible_2cell(alpha):
                    return name, alpha
        return None

    def merge_cells(alpha, beta, extensions):
        for name, h in extensions:
            meter.tick()
            idh = a.id2(h)
            if a.hcomp2[(idh, alpha)] == a.hcomp2[(idh, beta)]:
                return (name,)
        return None

    one, two = axioms
    for f, g, labels, extensions in instances:
        if not _record(rep, one, (f, g, *labels), merge_legs(f, g, extensions)):
            return
    for f, g, labels, extensions in instances:
        cells = a.two_cells_between(f, g)
        for alpha in cells:
            for beta in cells:
                if alpha == beta:
                    continue
                data = merge_cells(alpha, beta, extensions)
                if not _record(rep, two, (f, g, alpha, beta, *labels), data):
                    return


def check_sigma_filtered(m: Marked2Cat, meter: Meter | None = None) -> FilterednessReport:
    """Exhaustive scan of the three filteredness axioms with witnesses."""
    meter = meter or Meter()
    a, sig = m.cat, m.sigma.arrows
    rep = FilterednessReport(True)
    objs = sorted(a.objects)
    if not _record(rep, AXIOM_NONEMPTY, (), (objs[0],) if objs else None):
        return rep

    # the marked 1-cells out of each object, in (target, name) order
    marked_out = {B: [(h, h) for E in objs for h in a.one_cells(B, E) if h in sig]
                  for B in objs}

    # F0: every object pair has a marked cospan
    for A in objs:
        for B in objs:
            found = None
            for _, f in marked_out[A]:
                for g in a.one_cells(B, a.tgt1(f)):
                    meter.tick()
                    if g in sig:
                        found = (f, g)
                        break
                if found:
                    break
            if not _record(rep, AXIOM_F0, (A, B), found):
                return rep

    # F1 and F2: parallel pairs with marked second leg, extended by the
    # marked 1-cells out of their target
    instances = [(f, g, (), marked_out[B]) for A in objs for B in objs
                 for f in a.one_cells(A, B) for g in a.one_cells(A, B) if g in sig]
    _coequalize(a, sig, instances, (AXIOM_F1, AXIOM_F2), rep, meter)
    return rep


def check_sigma_cofiltered(m: Marked2Cat, meter: Meter | None = None) -> FilterednessReport:
    """Filteredness of the 1-cell dual, read through ``OpView`` with
    nothing copied, the marking transported by name."""
    dual = OpView(m.cat)
    return check_sigma_filtered(Marked2Cat(dual, WideSub(dual, m.sigma.arrows)), meter)


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
    objs, target_objs = sorted(c.objects), sorted(cp.objects)

    # C0: every target object maps into the image along a marked arrow
    for Cp in target_objs:
        found = None
        for C in objs:
            for f in cp.one_cells(Cp, T.obj_map[C]):
                meter.tick()
                if f in sigp:
                    found = (C, f)
                    break
            if found:
                break
        if not _record(rep, AXIOM_C0, (Cp,), found):
            return rep

    # C1 and C2: parallel pairs into an image object T(C), second leg
    # marked, extended by the images of the marked 1-cells out of C
    instances = []
    for C in objs:
        marked_out = [(u, T.map1[u]) for D in objs for u in c.one_cells(C, D)
                      if u in sig]
        for Cp in target_objs:
            cells = cp.one_cells(Cp, T.obj_map[C])
            instances += [(f, g, (C,), marked_out)
                          for f in cells for g in cells if g in sigp]
    _coequalize(cp, sigp, instances, (AXIOM_C1, AXIOM_C2), rep, meter)
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
            hom_src = T.source.hom[(A, B)]
            hom_tgt = cp.hom[(T.obj_map[A], T.obj_map[B])]
            F = Functor(hom_src, hom_tgt,
                        {f: T.map1[f] for f in hom_src.objects},
                        {x: T.map2[x] for x in hom_src.arrows})
            if not is_equivalence(F).verdict:
                raise PreconditionFailed("functor is not hom-wise an equivalence")
    # C0 by direct search
    sigma = preimage_marking(T, sigma_prime)
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