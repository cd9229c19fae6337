"""The canonical expression and weighted σ-colimits read on El_P's reader.

``flatness.canonical_expression`` and ``colimits.weighted_sigma_colimit``
run their conical σ-colimits on the 1-cell dual of El_P's reader
(``elements._Elements.dual``), with the diagram bound along the reader's
cells.  They must give what the assembled routes of
``construction_reference`` give: the same colimit categories table for
table, the same universal cones, the same certificates and verdicts, and
the same ticks, or the same refusal.  The inputs are the fixtures, the
diagrams the benchmark's colimit ladder asks about, and generated posets.
Neither route builds a 2-category of elements.
"""

import pytest
from hypothesis import given, settings

from construction_reference import (assembled_canonical_expression,
                                    assembled_weighted_sigma_colimit)
from helpers import chain_2cat, posets, strict_fixture_diagrams
from sigmacat import elements, flatness
from sigmacat.config import Meter
from sigmacat.colimits import weighted_sigma_colimit
from sigmacat.elements import _Elements, elements_of
from sigmacat.errors import PreconditionFailed, SigmacatError
from sigmacat.fincat import arrow_category, discrete_category, terminal_category
from sigmacat.fixtures import (arrow_2cat, diagram_collapse, diagram_pick0, diamond_2cat,
                               pseudo_swap, pseudo_z2, weight_constant_terminal_op,
                               weight_on_op_arrow)
from sigmacat.flatness import canonical_expression, representable
from sigmacat.transforms import constant_diagram
from sigmacat.two_cat import (free_2cell_2cat, op_dual, two_cat_from_cat, wide_all,
                              wide_identities)


def outcome(route, *args):
    """What ``route`` answers, or None and the refusal it raises, with its
    ticks."""
    meter = Meter()
    try:
        return route(*args, meter=meter), None, meter.count
    except SigmacatError as e:
        return None, (type(e), str(e)), meter.count


def colimit_tables(colim) -> tuple:
    """Everything a conical σ-colimit answers but the diagram it ran on."""
    cone = colim.cone
    return (colim.status, colim.category, colim.certificate, colim.gamma,
            None if cone is None else (cone.marked, cone.vertex, cone.components,
                                       cone.structural))


def read_canonical(P, monkeypatch) -> tuple:
    """``canonical_expression`` with the colimit it computed per base object."""
    colimits = []

    def recorded(*args):
        colimits.append(colim := conical(*args))
        return colim

    conical = flatness.conical_sigma_colimit
    with monkeypatch.context() as m:
        m.setattr(flatness, "conical_sigma_colimit", recorded)
        got = outcome(canonical_expression, P)
    return got, colimits


def assert_canonical_is_the_assembled(P, monkeypatch):
    (got, refused, ticks), colimits = read_canonical(P, monkeypatch)
    want, want_refused, want_ticks = outcome(assembled_canonical_expression, P)
    assert (refused, ticks) == (want_refused, want_ticks)
    if want is None:
        return
    want, want_colimits = want
    assert (got.verdict, got.per_object) == (want.verdict, want.per_object)
    assert [colimit_tables(c) for c in colimits] == \
        [colimit_tables(c) for c in want_colimits]


def assert_weighted_is_the_assembled(W, P, sigma):
    got, refused, ticks = outcome(weighted_sigma_colimit, W, P, sigma)
    want, want_refused, want_ticks = outcome(assembled_weighted_sigma_colimit, W, P, sigma)
    assert (refused, ticks) == (want_refused, want_ticks)
    if want is None:
        return
    assert got.certificate == want.certificate
    assert colimit_tables(got.conical) == colimit_tables(want.conical)


def ladder_canonical() -> dict:
    """The canonical expressions the benchmark's colimit ladder asks for,
    and every strict fixture."""
    a2, c3, c4 = arrow_2cat(), chain_2cat(3), chain_2cat(4)
    f2, dm = free_2cell_2cat(), diamond_2cat()
    out = {f"arrow/repr{A}": representable(a2, A) for A in ("0", "1")}
    for vname, mk in (("one", terminal_category), ("arrow", arrow_category),
                      ("pair", lambda: discrete_category(["x", "y"]))):
        out[f"arrow/{vname}"] = constant_diagram(a2, mk())
    out.update({f"chain3/repr{A}": representable(c3, A) for A in ("c0", "c1", "c2")})
    out["chain3/one"] = constant_diagram(c3, terminal_category())
    out.update({f"chain4/repr{A}": representable(c4, A) for A in ("c1", "c2", "c3")})
    out.update({f"free2cell/repr{A}": representable(f2, A) for A in ("a", "b")})
    out["free2cell/one"] = constant_diagram(f2, terminal_category())
    out.update({f"diamond/repr{A}": representable(dm, A) for A in ("bot", "a", "b", "top")})
    out.update(strict_fixture_diagrams())
    return out


CANONICAL = ladder_canonical()


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_expression_reads_what_the_assembled_route_built(name, monkeypatch):
    assert_canonical_is_the_assembled(CANONICAL[name], monkeypatch)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_the_dual_holds_every_composite_before_any_lookup(name):
    """The classifier iterates ``hcomp1``, so the dual a colimit runs on
    holds every composable pair of the assembled 1-cell dual from the
    start, and nothing else."""
    P = CANONICAL[name]
    assert dict(_Elements(P, False, Meter()).dual().hcomp1) == \
        op_dual(elements_of(P).cat).hcomp1


def ladder_weighted() -> dict:
    """The weighted σ-colimits of the benchmark's colimit ladder, the other
    weights on the dual of the walking arrow, and representable weights
    over the 3-chain and the diamond, under both markings."""
    op_arrow = op_dual(arrow_2cat())
    weights = {"w_arrow": weight_on_op_arrow(), "terminal": weight_constant_terminal_op(),
               **{f"repr{A}": representable(op_arrow, A) for A in ("0", "1")}}
    out = {}
    for wname, W in weights.items():
        for pname, P in (("pick0", diagram_pick0()), ("collapse", diagram_collapse())):
            for mname, mark in (("all", wide_all), ("ids", wide_identities)):
                out[f"{wname}/{pname}/{mname}"] = (W, P, mark(P.source))
    for bname, base in (("chain3", chain_2cat(3)), ("diamond", diamond_2cat())):
        for A in sorted(base.objects):
            W = representable(op_dual(base), A)
            for pname, P in (("arrow", constant_diagram(base, arrow_category())),
                             ("repr", representable(base, min(base.objects)))):
                out[f"{bname}/repr{A}/{pname}/all"] = (W, P, wide_all(base))
    return out


WEIGHTED = ladder_weighted()


@pytest.mark.parametrize("name", sorted(WEIGHTED))
def test_weighted_colimit_reads_what_the_assembled_route_built(name):
    assert_weighted_is_the_assembled(*WEIGHTED[name])


@settings(derandomize=True, max_examples=15, deadline=None)
@given(c=posets(4))
def test_both_routes_read_what_the_assembled_routes_built_on_posets(c):
    base = two_cat_from_cat(c)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_canonical_is_the_assembled(constant_diagram(base, terminal_category()),
                                          monkeypatch)
        for A in sorted(base.objects):
            assert_canonical_is_the_assembled(representable(base, A), monkeypatch)
    bottom = min(base.objects)
    for A in sorted(base.objects):
        W = representable(op_dual(base), A)
        for P in (constant_diagram(base, arrow_category()), representable(base, bottom)):
            for mark in (wide_all, wide_identities):
                assert_weighted_is_the_assembled(W, P, mark(base))


@pytest.mark.parametrize("P", [pseudo_z2(), pseudo_swap()], ids=["pseudo_z2", "pseudo_swap"])
def test_canonical_expression_refuses_a_pseudo_diagram(P):
    """The reader serves pseudo input, so the refusal is the expression's
    own, with ``elements_of``'s message and no tick."""
    meter = Meter()
    with pytest.raises(PreconditionFailed, match="use elements_of_pseudo for pseudofunctors"):
        canonical_expression(P, meter=meter)
    assert meter.count == 0


def test_neither_route_builds_a_2category_of_elements(monkeypatch):
    """With ``elements._build`` refused, every canonical expression and
    weighted σ-colimit above is still answered, and as before."""
    canonical = {name: canonical_expression(P) for name, P in CANONICAL.items()}
    weighted = {name: weighted_sigma_colimit(*args) for name, args in WEIGHTED.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a 2-category of elements was built")

    monkeypatch.setattr(elements, "_build", refuse)
    for name, P in CANONICAL.items():
        assert canonical_expression(P) == canonical[name]
    for name, args in WEIGHTED.items():
        res = weighted_sigma_colimit(*args)
        assert (res.status, res.category, res.certificate) == \
            (weighted[name].status, weighted[name].category, weighted[name].certificate)
