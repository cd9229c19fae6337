"""Weighted σ-limits as conical σ-limits over the weight's elements.

``weighted_sigma_limit`` reads {W, P}_σ as the σ-cones from the point
under P·π over El W, off P's tables, and names them in ``hom_eps``'s
order.  Its category must equal ``hom_eps(W, P, flavor).cat`` table for
table, names included, in the lax, pseudo and every single-1-cell σ
flavour: on the strict pairs of the brute-force reference, on every pair
of fixture diagrams over a common base (among them ``weight_on_op_arrow``,
whose values are not discrete, and the free 2-cell, whose 2-cell brings
LN2 in), on two pairs where the kernel's own order differs from
``hom_eps``'s, and on generated posets in ``test_properties``.  The callers
that route through it must answer without enumerating a transformation,
and the strict flavour and pseudo input must still reach ``hom_eps``.
"""

import pytest

from helpers import (corpus_biinserter, idempotent_category,
                     strict_fixture_diagrams, table_digest)
from test_enumeration_oracles import PAIRS
from sigmacat import cli, colimits, elements, flatness, transforms
from sigmacat import fixtures as fx
from sigmacat.colimits import bilimit_cat, weighted_limit_cat, weighted_sigma_limit
from sigmacat.errors import PreconditionFailed
from sigmacat.fincat import (Functor, discrete_category, idn, identity_functor,
                             parallel_pair_category)
from sigmacat.flatness import representable, yoneda_check
from sigmacat.shapes import BIINSERTER
from sigmacat.transforms import (LAX, PSEUDO, STRICT, CatDiagram, constant_diagram,
                                 hom_eps, sigma_flavor)


def tables(c) -> tuple:
    return c.objects, c.arrows, c.identity, c.compose


def reduced_flavors(base) -> list:
    """Lax, pseudo, and σ marking each non-identity 1-cell alone."""
    ids = set(base.id1.values())
    return [LAX, PSEUDO] + [sigma_flavor({f}) for f in sorted(base.all_one_cells())
                            if f not in ids]


def assert_matches_hom_eps(W, P):
    for fl in reduced_flavors(W.source):
        assert tables(weighted_sigma_limit(W, P, fl).cat) == \
            tables(hom_eps(W, P, fl).cat), fl.label()


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_reference_pairs_match_hom_eps(pair):
    W, P, _ = PAIRS[pair]()
    if W.is_pseudo or P.is_pseudo:
        with pytest.raises(PreconditionFailed):
            weighted_sigma_limit(W, P, PSEUDO)
        return
    assert_matches_hom_eps(W, P)


DIAGRAMS = strict_fixture_diagrams()
COMMON_BASE = [(w, p) for w in sorted(DIAGRAMS) for p in sorted(DIAGRAMS)
               if DIAGRAMS[w].source == DIAGRAMS[p].source]


def test_the_fixture_pairs_cover_the_non_discrete_weight_and_the_free_2cell():
    weights = {w for w, _ in COMMON_BASE}
    assert {"weight_on_op_arrow", "diagram_on_free2cell"} <= weights


@pytest.mark.parametrize("weight,diagram", COMMON_BASE)
def test_fixture_pairs_match_hom_eps(weight, diagram):
    assert_matches_hom_eps(DIAGRAMS[weight], DIAGRAMS[diagram])


def renamed_point_weight():
    """W on the walking arrow with W(0) = {y} and W(1) = {x}: the elements
    (x,1) < (y,0) sort by name against the order of their base objects."""
    a = fx.arrow_2cat()
    Y, X = discrete_category(["y"]), discrete_category(["x"])
    on_1 = {a.id1["0"]: identity_functor(Y), a.id1["1"]: identity_functor(X),
            "f": Functor(Y, X, {"y": "x"}, {Y.identity["y"]: X.identity["x"]})}
    return CatDiagram(a, {"0": Y, "1": X}, on_1,
                      {t: idn(on_1[a.src2(t)]) for t in a.all_two_cells()})


# Where the kernel's own order is not hom_eps's: the cones of the lax
# limit of Δ(parallel pair) weighted by Δ(discrete pair) come in another
# order, and so do two morphisms between the same two cones of the lax
# limit of Δ(idempotent) weighted by the renamed point.
REORDERED = {
    "discrete_pair-parallel_pair": lambda: (
        constant_diagram(fx.arrow_2cat(), discrete_category(["x", "y"])),
        constant_diagram(fx.arrow_2cat(), parallel_pair_category())),
    "renamed_point-idempotent": lambda: (
        renamed_point_weight(), constant_diagram(fx.arrow_2cat(), idempotent_category())),
}


@pytest.mark.parametrize("pair", sorted(REORDERED))
def test_reordered_pairs_match_hom_eps(pair):
    assert_matches_hom_eps(*REORDERED[pair]())


def test_the_reduction_refuses_what_it_does_not_cover():
    P = fx.diagram_pick0()
    for W, Q, fl in ((P, P, STRICT), (fx.pseudo_z2(), fx.pseudo_z2(), PSEUDO),
                     (P, fx.weight_on_op_arrow(), LAX)):
        with pytest.raises(PreconditionFailed):
            weighted_sigma_limit(W, Q, fl)


# ---------------------------------------------------------------------------
# The callers answer without enumerating transformations


class HomEnumerated(Exception):
    pass


def refuse_hom_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise HomEnumerated

    for module in (transforms, colimits, elements, flatness, cli):
        for name in ("enumerate_transformations", "enumerate_modifications", "hom_eps"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_strict_input_builds_no_transformation(monkeypatch):
    W, P = fx.weight_on_op_arrow(), fx.weight_on_op_arrow()
    expected = {fl.label(): table_digest(hom_eps(W, P, fl).cat)
                for fl in reduced_flavors(W.source)}
    inserter = corpus_biinserter()
    expected_bilimit = table_digest(hom_eps(BIINSERTER.weight, inserter, PSEUDO).cat)
    refuse_hom_enumeration(monkeypatch)
    assert {fl.label(): table_digest(weighted_limit_cat(W, P, fl).cat)
            for fl in reduced_flavors(W.source)} == expected
    assert table_digest(bilimit_cat(BIINSERTER.weight, inserter).cat) == expected_bilimit
    Q = fx.diagram_collapse()
    for A in sorted(Q.source.objects):
        assert yoneda_check(Q, A).verdict


def test_the_strict_flavour_and_pseudo_input_reach_hom_eps(monkeypatch):
    P = fx.diagram_pick0()
    refuse_hom_enumeration(monkeypatch)
    for W, Q, fl in ((P, P, STRICT), (fx.pseudo_z2(), fx.pseudo_z2(), PSEUDO),
                     (representable(P.source, "0"), fx.pseudo_swap(), LAX)):
        with pytest.raises(HomEnumerated):
            weighted_limit_cat(W, Q, fl)
    with pytest.raises(HomEnumerated):
        yoneda_check(fx.pseudo_z2(), "0")
