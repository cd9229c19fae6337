"""Weighted σ-limits as conical σ-limits over the weight's elements.

``weighted_sigma_limit`` reads {W, P}_σ as the σ-cones from the point
under P·π over El W, off P's tables, and names them in ``hom_eps``'s
order.  Its category must equal ``hom_eps(W, P, flavor).cat`` table for
table, names included, in the strict, lax, pseudo and every single-1-cell
σ flavour: on the pairs of the brute-force reference, on every pair of
fixture diagrams over a common base (among them ``weight_on_op_arrow``,
whose values are not discrete, and the free 2-cell, whose 2-cell brings
LN2 in), on the same pairs read as pseudofunctors, on every pair over the
walking arrow with a pseudo fixture, whose structure cells are not
identities, on two pairs where the kernel's own order differs from
``hom_eps``'s, and on generated posets in ``test_properties``.  Pseudo
input is refused in the strict flavour only, with ``hom_eps``'s message.
The callers that route through it must answer without enumerating a
transformation, strict or pseudo input alike.  Strict weighted limits and
Yoneda checks read El W and never assemble it.
"""

import pytest

from helpers import (corpus_biinserter, idempotent_category,
                     strict_fixture_diagrams, table_digest)
from test_cli import FIXTURES, FLAVOR_FLAGS, GOLDEN, HOM_PAIRS, YONEDA_CASES, invoke
from test_enumeration_oracles import PAIRS
from sigmacat import cli, colimits, elements, flatness, transforms
from sigmacat import fixtures as fx
from sigmacat.colimits import bilimit_cat, weighted_limit_cat, weighted_sigma_limit
from sigmacat.errors import PreconditionFailed
from sigmacat.fincat import (Functor, arrow_category, discrete_category, idn, identity_functor,
                             parallel_pair_category)
from sigmacat.flatness import representable, yoneda_check
from sigmacat.shapes import BIINSERTER
from sigmacat.config import Meter
from sigmacat.transforms import (LAX, PSEUDO, STRICT, CatDiagram, constant_diagram,
                                 hom_eps, reinterpret_as_pseudo, sigma_flavor)


def tables(c) -> tuple:
    return c.objects, c.arrows, c.identity, c.compose


def reduced_flavors(base) -> list:
    """Strict, lax, pseudo, and σ marking each non-identity 1-cell alone."""
    ids = set(base.id1.values())
    return [STRICT, LAX, PSEUDO] + [sigma_flavor({f}) for f in sorted(base.all_one_cells())
                            if f not in ids]


def assert_matches_hom_eps(W, P, flavors=None):
    """Table for table in each flavour; where ``hom_eps`` refuses pseudo
    input, the strict flavour, the reduction refuses it with its message."""
    for fl in flavors or reduced_flavors(W.source):
        if fl.requires_identity() and (W.is_pseudo or P.is_pseudo):
            for answer in (weighted_sigma_limit, hom_eps):
                with pytest.raises(PreconditionFailed,
                                   match="^strict flavor requires strict diagrams$"):
                    answer(W, P, fl)
            continue
        assert tables(weighted_sigma_limit(W, P, fl).cat) == \
            tables(hom_eps(W, P, fl).cat), fl.label()


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_reference_pairs_match_hom_eps(pair):
    assert_matches_hom_eps(*PAIRS[pair]()[:2])


DIAGRAMS = strict_fixture_diagrams()
COMMON_BASE = [(w, p) for w in sorted(DIAGRAMS) for p in sorted(DIAGRAMS)
               if DIAGRAMS[w].source == DIAGRAMS[p].source]


def test_the_fixture_pairs_cover_the_non_discrete_weight_and_the_free_2cell():
    weights = {w for w, _ in COMMON_BASE}
    assert {"weight_on_op_arrow", "diagram_on_free2cell"} <= weights


@pytest.mark.parametrize("weight,diagram", COMMON_BASE)
def test_fixture_pairs_match_hom_eps(weight, diagram):
    assert_matches_hom_eps(DIAGRAMS[weight], DIAGRAMS[diagram])


@pytest.mark.parametrize("weight,diagram", COMMON_BASE)
def test_fixture_pairs_read_as_pseudofunctors_match_hom_eps(weight, diagram):
    """With identity structure cells the pseudo route reads the same
    category: W, P or both reread by ``reinterpret_as_pseudo``."""
    W, P = DIAGRAMS[weight], DIAGRAMS[diagram]
    for pair in ((reinterpret_as_pseudo(W), P), (W, reinterpret_as_pseudo(P)),
                 (reinterpret_as_pseudo(W), reinterpret_as_pseudo(P))):
        assert_matches_hom_eps(*pair)


PSEUDO_FIXTURES = {name: getattr(fx, name)()
                   for name in ("pseudo_z2", "pseudo_swap", "pseudo_not_flat")}
ON_THE_ARROW = {name: d for name, d in {**DIAGRAMS, **PSEUDO_FIXTURES}.items()
                if d.source == fx.arrow_2cat()}
PSEUDO_PAIRS = [(w, p) for w in sorted(ON_THE_ARROW) for p in sorted(ON_THE_ARROW)
                if w in PSEUDO_FIXTURES or p in PSEUDO_FIXTURES]


@pytest.mark.parametrize("weight,diagram", PSEUDO_PAIRS)
def test_pseudo_fixture_pairs_match_hom_eps(weight, diagram):
    """Every pair over the walking arrow with a pseudo weight or diagram,
    whose structure cells are not identities, in the lax, pseudo and
    σ(f) flavours, and refused in the strict one."""
    assert_matches_hom_eps(ON_THE_ARROW[weight], ON_THE_ARROW[diagram],
                           [STRICT, LAX, PSEUDO, sigma_flavor({"f"})])


@pytest.mark.parametrize("weight,diagram", [("pseudo_z2", "pseudo_z2"),
                                            ("pseudo_swap", "pseudo_z2"),
                                            ("representable_0.json", "pseudo_swap")])
def test_each_cone_is_keyed_by_its_transformation(weight, diagram):
    """The key a cone is sorted by is ``Transformation.key`` of the
    transformation it stands for: θ_A(a) is read at (1_A, a∘α⁻¹_x), after
    P's unit at θ_A(x), not merely in the same order."""
    W, P = ON_THE_ARROW[weight], ON_THE_ARROW[diagram]
    el = elements._Elements(W, False, Meter())
    cone_key, _ = colimits._transformation_order(W, P, el)
    limit = weighted_sigma_limit(W, P, LAX)
    keys = {name: cone_key(cone) for cone, name in limit.objects.items()}
    assert keys == {name: t.key() for name, t in hom_eps(W, P, LAX).transfs.items()}


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
    """Pseudo input only in the strict flavour, and diagrams on different
    bases; pseudo input in the other flavours is answered."""
    P, Z = fx.diagram_pick0(), fx.pseudo_z2()
    for W, Q in ((Z, Z), (Z, P), (P, Z)):
        with pytest.raises(PreconditionFailed, match="^strict flavor requires strict diagrams$"):
            weighted_sigma_limit(W, Q, STRICT)
        for fl in (LAX, PSEUDO, sigma_flavor({"f"})):
            assert weighted_sigma_limit(W, Q, fl).cat.objects
    with pytest.raises(PreconditionFailed, match="^the diagrams live on different bases$"):
        weighted_sigma_limit(P, fx.weight_on_op_arrow(), LAX)


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


def test_pseudo_input_reaches_no_hom_eps(monkeypatch):
    """Pseudo weighted limits, bilimits and Yoneda checks answer with
    ``hom_eps`` and the transformation enumerators refusing, as
    ``hom_eps`` answered them before; the strict flavour is refused."""
    P = fx.diagram_pick0()
    cases = [(fx.pseudo_z2(), fx.pseudo_z2(), PSEUDO),
             (fx.pseudo_swap(), fx.pseudo_z2(), sigma_flavor({"f"})),
             (representable(P.source, "0"), fx.pseudo_swap(), LAX)]
    expected = [table_digest(hom_eps(W, Q, fl).cat) for W, Q, fl in cases]
    inserter = reinterpret_as_pseudo(corpus_biinserter())
    expected_bilimit = table_digest(hom_eps(BIINSERTER.weight, inserter, PSEUDO).cat)
    refuse_hom_enumeration(monkeypatch)
    assert [table_digest(weighted_limit_cat(W, Q, fl).cat) for W, Q, fl in cases] == expected
    assert table_digest(bilimit_cat(BIINSERTER.weight, inserter).cat) == expected_bilimit
    with pytest.raises(PreconditionFailed, match="^strict flavor requires strict diagrams$"):
        weighted_limit_cat(fx.pseudo_z2(), fx.pseudo_z2(), STRICT)
    for Q in PSEUDO_FIXTURES.values():
        for A in sorted(Q.source.objects):
            rep = yoneda_check(Q, A)
            assert (rep.verdict, rep.witness) == (True, "")


def test_strict_limits_build_no_2category_of_elements(monkeypatch, capsys):
    """No El W is assembled, no projection and no composite diagram built:
    with ``elements._build`` refusing, strict weighted limits in the four
    flavours, ``weighted_limit_cat``, strict ``yoneda_check`` and the CLI's
    ``limit``, ``yoneda`` and ``hom`` on strict fixtures answer as before:
    the categories are ``hom_eps``'s table for table, the Yoneda reports
    are unchanged and the CLI reports are the goldens, byte for byte."""
    diamond = fx.diamond_2cat()
    pairs = [(representable(diamond, A), constant_diagram(diamond, arrow_category()))
             for A in sorted(diamond.objects)]
    pairs += [(DIAGRAMS[w], DIAGRAMS[p]) for w, p in (
        ("weight_on_op_arrow", "weight_on_op_arrow"), ("diagram_pick0", "diagram_collapse"),
        ("diagram_on_free2cell", "delta_arrow_free2cell"))]
    flavors = [(W, P, fl) for W, P in pairs for fl in reduced_flavors(W.source)]
    expected = [table_digest(hom_eps(W, P, fl).cat) for W, P, fl in flavors]
    yonedas = [(Q, A) for Q in (fx.diagram_collapse(), fx.diagram_pick0(), pairs[0][1])
               for A in sorted(Q.source.objects)]
    expected_yoneda = [yoneda_check(Q, A) for Q, A in yonedas]
    assert all(rep.verdict for rep in expected_yoneda)

    def refuse(*args, **kwargs):
        raise AssertionError("a 2-category of elements was built")

    for module, attr in ((elements, "_build"), (elements, "mk_fin2cat"),
                         (colimits, "compose_diagram"), (elements, "compose_diagram")):
        monkeypatch.setattr(module, attr, refuse)
    assert [table_digest(weighted_sigma_limit(W, P, fl).cat)
            for W, P, fl in flavors] == expected
    assert [table_digest(weighted_limit_cat(W, P, fl).cat)
            for W, P, fl in flavors] == expected
    assert [yoneda_check(Q, A) for Q, A in yonedas] == expected_yoneda
    for command in ("hom", "limit"):
        for source, target in HOM_PAIRS:
            for flavor, flags in FLAVOR_FLAGS.items():
                code, out = invoke(capsys, command, str(FIXTURES / f"{source}.json"),
                                   str(FIXTURES / f"{target}.json"), *flags)
                assert (code, out) == (0, (GOLDEN / f"{command}_{source}_{target}_{flavor}"
                                           ".json").read_text())
    for base, obj, against in YONEDA_CASES:
        code, out = invoke(capsys, "yoneda", str(FIXTURES / f"{base}.json"), "--object", obj,
                           "--against", str(FIXTURES / f"{against}.json"))
        assert (code, out) == (0, (GOLDEN / f"yoneda_{against}_{obj}.json").read_text())
