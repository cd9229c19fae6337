"""π0 of the 1-cell dual of Γ(Q), read off Q's tables.

``elements.dual_pi0`` must return what the assembled route gives:
``pi0(op_dual(gamma_dual(Q).cat))`` table for table and in the same
order, its class map, the cartesian 1-cells, the decoding tables, and
the same ticks; and a conical σ-colimit must not build the 2-category of
elements at all.
"""

import pytest
from hypothesis import given, settings

from helpers import (chain_2cat, colimit_rungs, discrete_diagram, posets,
                     strict_fixture_diagrams)
from pi0_reference import pi0, pi0_class_map
from sigmacat import elements
from sigmacat.colimits import conical_sigma_colimit, induced_from_colimit
from sigmacat.config import Meter
from sigmacat.elements import dual_pi0, gamma_dual
from sigmacat.errors import PreconditionFailed
from sigmacat.fincat import (Functor, arrow_category, discrete_category,
                             mk_fincat, terminal_category)
from sigmacat.fixtures import diamond_2cat, idn, pseudo_z2
from sigmacat.flatness import representable
from sigmacat.transforms import CatDiagram, constant_diagram
from sigmacat.two_cat import (free_2cell_2cat, op_dual, two_cat_from_cat,
                              wide_all, wide_identities)


def ladder_diagrams() -> dict:
    """The diagrams of the benchmark's colimit ladder that the fixtures do
    not hold: Δ1, Δ(walking arrow), Δ(discrete pair) and every
    representable, over the chains of 1 to 4 objects, the diamond and the
    free 2-cell."""
    values = {"one": terminal_category, "arrow": arrow_category,
              "pair": lambda: discrete_category(["x", "y"])}
    bases = {f"chain{n}": chain_2cat(n) for n in (1, 2, 3, 4)}
    bases.update(diamond=diamond_2cat(), free2cell=free_2cell_2cat())
    out = {}
    for name, base in bases.items():
        for vname, value in values.items():
            out[f"{name}/{vname}"] = constant_diagram(base, value())
        for A in sorted(base.objects):
            out[f"{name}/repr{A}"] = representable(base, A)
    return out


DIAGRAMS = {**strict_fixture_diagrams(), **ladder_diagrams(),
            **{f"rung/{k}": P for k, (P, _) in colimit_rungs().items()}}


def assert_reader_is_the_assembled_pi0(Q):
    read, assembled = Meter(), Meter()
    got = dual_pi0(Q, read)
    gamma = gamma_dual(Q, assembled)
    gop = op_dual(gamma.cat)
    want = pi0(gop)
    assert read.count == assembled.count
    assert got.pi0 == want
    for table in ("arrows", "identity", "compose"):
        assert list(getattr(got.pi0, table).items()) == \
            list(getattr(want, table).items())
    assert got.classes == pi0_class_map(gop)
    assert got.cart == gamma.cart.arrows
    assert (got.points, got.pairs1) == (gamma.points, gamma.pairs1)
    assert got.ends == {m: gamma.cat.hom_of_1cell(m) for m in gamma.pairs1}


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_the_reader_is_the_assembled_pi0(name):
    assert_reader_is_the_assembled_pi0(DIAGRAMS[name])


@settings(derandomize=True, max_examples=25, deadline=None)
@given(c=posets(5))
def test_the_reader_is_the_assembled_pi0_on_posets(c):
    base = two_cat_from_cat(c)
    assert_reader_is_the_assembled_pi0(constant_diagram(base, arrow_category()))
    for A in sorted(base.objects):
        assert_reader_is_the_assembled_pi0(representable(base, A))


def colliding_1cells() -> CatDiagram:
    """u, "u,v" : A -> B, Q(A) = 1 and Q(B) with arrows w, "v,w" : o -> p,
    both 1-cells sending * to p: the element 1-cells (u, "v,w") and
    ("u,v", w) out of * are both named (u,v,w)@*."""
    arrows = {"id_A": ("A", "A"), "id_B": ("B", "B"), "u": ("A", "B"),
              "u,v": ("A", "B")}
    compose = {("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B"}
    for f in ("u", "u,v"):
        compose[(f, "id_A")] = compose[("id_B", f)] = f
    base = two_cat_from_cat(mk_fincat(("A", "B"), arrows,
                                      {"A": "id_A", "B": "id_B"}, compose))
    one = terminal_category()
    QB = mk_fincat(("o", "p"), {"id_o": ("o", "o"), "id_p": ("p", "p"),
                                "w": ("o", "p"), "v,w": ("o", "p")},
                   {"o": "id_o", "p": "id_p"},
                   {("id_o", "id_o"): "id_o", ("id_p", "id_p"): "id_p",
                    ("w", "id_o"): "w", ("id_p", "w"): "w",
                    ("v,w", "id_o"): "v,w", ("id_p", "v,w"): "v,w"})
    to_p = Functor(one, QB, {"*": "p"}, {"id_*": "id_p"})
    on_1 = {"id_A": Functor(one, one, {"*": "*"}, {"id_*": "id_*"}),
            "id_B": Functor(QB, QB, {x: x for x in QB.objects},
                            {a: a for a in QB.arrows}),
            "u": to_p, "u,v": to_p}
    on_2 = {base.id2(f): idn(F) for f, F in on_1.items()}
    return CatDiagram(base, {"A": one, "B": QB}, on_1, on_2)


@pytest.mark.parametrize("Q,name", [
    (discrete_diagram({"c": ["a,b"], "b,c": ["a"]}), "(a,b,c)"),
    (colliding_1cells(), "(u,v,w)@*"),
], ids=["elements", "1-cells"])
def test_the_reader_refuses_colliding_names_as_gamma_dual_does(Q, name):
    refusals = []
    for build in (gamma_dual, dual_pi0):
        meter = Meter()
        with pytest.raises(PreconditionFailed) as err:
            build(Q, meter)
        refusals.append((str(err.value), meter.count))
    assert refusals[0] == refusals[1]
    assert f"name {name} is minted" in refusals[0][0]


def test_the_reader_refuses_a_pseudo_diagram():
    with pytest.raises(PreconditionFailed, match="strict"):
        dual_pi0(pseudo_z2())


def test_a_conical_colimit_builds_no_2category_of_elements(monkeypatch):
    """Neither the colimit nor the functor induced out of it assembles
    Γ(Q): the π0 they read comes from ``dual_pi0`` alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("a 2-category of elements was built")

    monkeypatch.setattr(elements, "_build", refuse)
    monkeypatch.setattr(elements, "mk_fin2cat", refuse)
    for P, marking in ((DIAGRAMS["diagram_pick0.json"], wide_all),
                       (DIAGRAMS["diamond/reprbot"], wide_all),
                       (DIAGRAMS["chain3/arrow"], wide_identities)):
        res = conical_sigma_colimit(P, marking(P.source))
        assert res.certificate == [("classifier", True)]
        F = induced_from_colimit(res, res.cone)
        assert all(F.obj_map[o] == o for o in res.category.objects)
