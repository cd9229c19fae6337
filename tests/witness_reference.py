"""Every witness of a filteredness or cofinality report, re-checked
against the raw axiom equations.

``filteredness`` records the first witness of each axiom instance in one
scan and does not look at them again.  ``check_filtered_witnesses`` and
``check_cofinal_witnesses`` re-check each recorded witness (nonempty,
F0–F2, C0–C2) from the 2-category's tables alone and raise
``AssertionError`` naming the witnesses that fail.  ``conftest.py`` runs
them on every report the suite obtains, through whichever caller.
"""

from sigmacat.filteredness import (AXIOM_C0, AXIOM_C1, AXIOM_C2, AXIOM_F0,
                                   AXIOM_F1, AXIOM_F2, AXIOM_NONEMPTY)


def _pair(a, marked, f: str, g: str, target: str | None = None) -> bool:
    """f, g parallel, g marked, and into ``target`` when it is given."""
    return g in marked and a.src1(f) == a.src1(g) and a.tgt1(f) == a.tgt1(g) and \
        (target is None or a.tgt1(g) == target)


def _coequalizes(a, marked, f: str, g: str, h: str, alpha: str) -> bool:
    """alpha : h∘f ⇒ h∘g, invertible when f is marked (F1, C1)."""
    return a.src1(h) == a.tgt1(f) and a.src2(alpha) == a.hcomp1[(h, f)] and \
        a.tgt2(alpha) == a.hcomp1[(h, g)] and \
        (f not in marked or a.is_invertible_2cell(alpha))


def _merges(a, f: str, g: str, alpha: str, beta: str, h: str) -> bool:
    """alpha ≠ beta : f ⇒ g, and 1_h * alpha = 1_h * beta (F2, C2)."""
    cells = a.two_cells_between(f, g)
    idh = a.id2(h)
    return alpha != beta and alpha in cells and beta in cells and \
        a.src1(h) == a.tgt1(f) and a.hcomp2[(idh, alpha)] == a.hcomp2[(idh, beta)]


def _filtered_holds(a, sig, w) -> bool:
    if w.axiom == AXIOM_NONEMPTY:
        return w.instance == () and len(w.data) == 1 and w.data[0] in a.objects
    if w.axiom == AXIOM_F0:
        (A, B), (f, g) = w.instance, w.data
        return f in sig and g in sig and a.src1(f) == A and a.src1(g) == B and \
            a.tgt1(f) == a.tgt1(g)
    if w.axiom == AXIOM_F1:
        (f, g), (h, alpha) = w.instance, w.data
        return _pair(a, sig, f, g) and h in sig and _coequalizes(a, sig, f, g, h, alpha)
    if w.axiom == AXIOM_F2:
        (f, g, alpha, beta), (h,) = w.instance, w.data
        return _pair(a, sig, f, g) and h in sig and _merges(a, f, g, alpha, beta, h)
    return False


def _cofinal_holds(T, sig, sigp, w) -> bool:
    c, cp = T.source, T.target
    if w.axiom == AXIOM_C0:
        (Cp,), (C, f) = w.instance, w.data
        return C in c.objects and f in sigp and cp.src1(f) == Cp and \
            cp.tgt1(f) == T.obj_map[C]
    if w.axiom == AXIOM_C1:
        (f, g, C), (u, alpha) = w.instance, w.data
        return _pair(cp, sigp, f, g, T.obj_map[C]) and u in sig and c.src1(u) == C and \
            _coequalizes(cp, sigp, f, g, T.map1[u], alpha)
    if w.axiom == AXIOM_C2:
        (f, g, alpha, beta, C), (u,) = w.instance, w.data
        return _pair(cp, sigp, f, g, T.obj_map[C]) and u in sig and c.src1(u) == C and \
            _merges(cp, f, g, alpha, beta, T.map1[u])
    return False


def check_filtered_witnesses(m, rep) -> None:
    """Every witness of ``check_sigma_filtered(m)``'s report holds in m."""
    bad = [w for w in rep.witnesses if not _filtered_holds(m.cat, m.sigma.arrows, w)]
    assert not bad, f"recorded witnesses fail re-validation: {bad}"


def check_cofinal_witnesses(T, sigma, sigma_prime, rep) -> None:
    """Every witness of ``check_sigma_cofinal(T, sigma, sigma_prime)``'s
    report holds in T's target."""
    bad = [w for w in rep.witnesses
           if not _cofinal_holds(T, sigma.arrows, sigma_prime.arrows, w)]
    assert not bad, f"recorded witnesses fail re-validation: {bad}"
