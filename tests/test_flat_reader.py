"""Flatness decided on P's own tables.

``two_cat.OpView`` of ``elements._Elements`` is what the filteredness scan
reads of the 1-cell dual of El_P.  Scanning it must give what the assembled route gives,
``check_sigma_cofiltered`` on ``elements_of(P)``, or on
``elements_of_pseudo(P)`` for a pseudo P, with its cartesian marking: the
verdict, every witness in order, the counterexample and the ticks.  Its
tables must be those of the assembled El_P's 1-cell dual entry for entry,
and ``check_flat`` must answer with no 2-category of elements built.
"""

import pytest
from hypothesis import given, settings

from helpers import (chain_2cat, discrete_diagram, grid_2cat, posets,
                     strict_fixture_diagrams)
from sigmacat import elements, two_cat
from sigmacat.config import Meter
from sigmacat.elements import _Elements, elements_of, elements_of_pseudo
from sigmacat.errors import PreconditionFailed
from sigmacat.filteredness import (AXIOM_F2, check_sigma_cofiltered,
                                   check_sigma_filtered)
from sigmacat.fincat import (Functor, NatTransf, arrow_category,
                             discrete_category, identity_functor, mk_fincat,
                             terminal_category)
from sigmacat.fixtures import (diamond_2cat, idn, pseudo_not_flat, pseudo_swap,
                               pseudo_z2)
from sigmacat.flatness import check_flat, representable
from sigmacat.transforms import CatDiagram, constant_diagram
from sigmacat.two_cat import (Marked2Cat, OpView, WideSub, co_dual, mk_fin2cat,
                              op_dual, parallel_2cells_2cat, two_cat_from_cat,
                              validate_2category)


def reader(P, meter=None):
    """The 1-cell dual of El_P that ``check_flat`` scans."""
    return OpView(_Elements(P, False, meter or Meter()))


def twice_stepped() -> CatDiagram:
    """Two parallel 2-cells th, th2 : u ⇒ v, both sent to the step 0 → 1:
    El_P has the two 2-cells (u, f) ⇒ (v, id_1) out of the element * over
    a, the second leg cartesian, and only the identity marked into *, so
    the scan reaches a σ-F2 instance and it fails there."""
    base = parallel_2cells_2cat(("th", "th2"))
    two, one = arrow_category(), terminal_category()
    pick0 = Functor(one, two, {"*": "0"}, {"id_*": "id_0"})
    pick1 = Functor(one, two, {"*": "1"}, {"id_*": "id_1"})
    return CatDiagram(
        base, {"a": one, "b": two},
        {"id_a": identity_functor(one), "id_b": identity_functor(two),
         "u": pick0, "v": pick1},
        {"i2_id_a": idn(identity_functor(one)), "i2_id_b": idn(identity_functor(two)),
         "i2_u": idn(pick0), "i2_v": idn(pick1),
         "th": NatTransf(pick0, pick1, {"*": "f"}),
         "th2": NatTransf(pick0, pick1, {"*": "f"})})


def retract_2cat():
    """Two objects and hom(a, b) the split idempotent: s : u ⇒ v and
    r : v ⇒ u with r·s = 1_u and s·r = e ≠ 1_v, so s has an inverse on
    one side only; the other homs are trivial."""
    def single(f):
        return mk_fincat((f,), {f"i2_{f}": (f, f)}, {f: f"i2_{f}"},
                         {(f"i2_{f}", f"i2_{f}"): f"i2_{f}"})

    arrows = {"i2_u": ("u", "u"), "i2_v": ("v", "v"), "s": ("u", "v"),
              "r": ("v", "u"), "e": ("v", "v")}
    compose = {("r", "s"): "i2_u", ("s", "r"): "e", ("e", "e"): "e",
               ("e", "s"): "s", ("r", "e"): "r"}
    for x, (src, tgt) in arrows.items():
        compose[(x, f"i2_{src}")] = compose[(f"i2_{tgt}", x)] = x
    hom = {("a", "a"): single("id_a"), ("b", "b"): single("id_b"),
           ("a", "b"): mk_fincat(("u", "v"), arrows, {"u": "i2_u", "v": "i2_v"}, compose),
           ("b", "a"): mk_fincat((), {}, {}, {})}
    hcomp1 = {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b"}
    hcomp2 = {("i2_id_a", "i2_id_a"): "i2_id_a", ("i2_id_b", "i2_id_b"): "i2_id_b"}
    for f in ("u", "v"):
        hcomp1[(f, "id_a")] = hcomp1[("id_b", f)] = f
    for x in arrows:
        hcomp2[(x, "i2_id_a")] = hcomp2[("i2_id_b", x)] = x
    return mk_fin2cat(("a", "b"), hom, {"a": "id_a", "b": "id_b"}, hcomp1, hcomp2)


def ladder_bases() -> dict:
    """Chains, grids, the diamond, the split idempotent and its co-dual,
    and the bases with parallel 2-cells and their duals."""
    bases = {f"chain{n}": chain_2cat(n) for n in (1, 2, 4, 6)}
    bases.update(grid2x2=grid_2cat(2, 2), grid2x3=grid_2cat(2, 3),
                 diamond=diamond_2cat(), retract=retract_2cat(),
                 **{"retract/co": co_dual(retract_2cat())})
    for k, cells in enumerate(((), ("th",), ("th", "th2"))):
        b = parallel_2cells_2cat(cells)
        bases.update({f"parallel{k}": b, f"parallel{k}/op": op_dual(b),
                      f"parallel{k}/co": co_dual(b),
                      f"parallel{k}/coop": co_dual(op_dual(b))})
    return bases


def ladder_diagrams() -> dict:
    """Δ1, Δ(walking arrow), Δ(discrete pair) and every representable over
    each of ``ladder_bases``."""
    values = {"one": terminal_category, "arrow": arrow_category,
              "pair": lambda: discrete_category(["x", "y"])}
    out = {}
    for name, base in ladder_bases().items():
        for vname, value in values.items():
            out[f"{name}/{vname}"] = constant_diagram(base, value())
        for A in sorted(base.objects):
            out[f"{name}/repr{A}"] = representable(base, A)
    return out


DIAGRAMS = {**strict_fixture_diagrams(), **ladder_diagrams(),
            "twice_stepped": twice_stepped()}


def assert_reader_is_the_assembled_scan(P, build=elements_of):
    read, assembled = Meter(), Meter()
    view = reader(P, read)
    got = check_sigma_filtered(Marked2Cat(view, WideSub(view, view.op.cart)), read)
    el = build(P, assembled)
    want = check_sigma_cofiltered(Marked2Cat(el.cat, el.cart), assembled)
    assert (got.verdict, got.witnesses, got.counterexample) == \
        (want.verdict, want.witnesses, want.counterexample)
    assert read.count == assembled.count
    return got


def assert_reads_as(view, dual):
    """Every table the scan may read, entry for entry."""
    assert view.objects == dual.objects
    for A in dual.objects:
        for B in dual.objects:
            assert view.one_cells(A, B) == dual.one_cells(A, B)
    for f in dual.all_one_cells():
        assert (view.src1(f), view.tgt1(f), view.id2(f)) == \
            (dual.src1(f), dual.tgt1(f), dual.id2(f))
        for g in dual.one_cells(dual.src1(f), dual.tgt1(f)):
            assert view.two_cells_between(f, g) == dual.two_cells_between(f, g)
    for x in dual.all_two_cells():
        assert (view.src2(x), view.tgt2(x), view.is_invertible_2cell(x)) == \
            (dual.src2(x), dual.tgt2(x), dual.is_invertible_2cell(x))
    for key, value in dual.hcomp1.items():
        assert view.hcomp1[key] == value
    for key, value in dual.hcomp2.items():
        assert view.hcomp2[key] == value


def assert_reader_reads_the_dual(P, build=elements_of):
    view, el = reader(P), build(P)
    assert view.op.cart == el.cart.arrows
    assert_reads_as(view, op_dual(el.cat))


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_the_reader_is_the_assembled_scan(name):
    P = DIAGRAMS[name]
    rep = assert_reader_is_the_assembled_scan(P)
    assert check_flat(P).evidence == rep


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_the_reader_reads_the_dual_table_for_table(name):
    assert_reader_reads_the_dual(DIAGRAMS[name])


LADDER_BASES = ladder_bases()


@pytest.mark.parametrize("name", sorted(LADDER_BASES))
def test_the_op_view_reads_the_dual_table_for_table(name):
    """``OpView`` reads as the copy ``op_dual``, and twice as the base."""
    a = LADDER_BASES[name]
    assert_reads_as(OpView(a), op_dual(a))
    assert_reads_as(OpView(OpView(a)), a)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(c=posets(5))
def test_the_reader_is_the_assembled_scan_on_posets(c):
    base = two_cat_from_cat(c)
    for value in (terminal_category(), discrete_category(["x", "y"])):
        assert_reader_is_the_assembled_scan(constant_diagram(base, value))
    for A in sorted(base.objects):
        assert_reader_is_the_assembled_scan(representable(base, A))


def test_parallel_2cells_with_one_action_reach_sigma_f2():
    rep = assert_reader_is_the_assembled_scan(DIAGRAMS["twice_stepped"])
    assert not rep.verdict and rep.counterexample.axiom == AXIOM_F2
    f, g, alpha, beta = rep.counterexample.instance
    assert {alpha.split(":")[0], beta.split(":")[0]} == {"th", "th2"}


def test_the_inputs_hold_one_sided_inverses():
    """The split idempotent is a 2-category, and its El_P holds a 2-cell
    with an inverse on one side only, so the table test above tells a
    two-sided inverse test from a one-sided one."""
    assert validate_2category(retract_2cat()).ok
    el = _Elements(DIAGRAMS["retract/repra"], False, Meter())
    base = el.base
    one_sided = [x for x in el.ends2 if not el.is_invertible_2cell(x) and any(
        base.vcomp(el.pairs2[b], el.pairs2[x]) == base.id2(el.pairs1[el.src2(x)][0])
        for b in el.two_cells_between(el.tgt2(x), el.src2(x)))]
    assert one_sided


def colliding_1cells() -> CatDiagram:
    """u, "u,v" : A -> B, P(A) = 1 and P(B) with arrows w, "v,w" : o -> p,
    both 1-cells sending * to o: the element 1-cells (u, "v,w") and
    ("u,v", w) out of * are both named (u,v,w)@*."""
    arrows = {"id_A": ("A", "A"), "id_B": ("B", "B"), "u": ("A", "B"),
              "u,v": ("A", "B")}
    compose = {("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B"}
    for f in ("u", "u,v"):
        compose[(f, "id_A")] = compose[("id_B", f)] = f
    base = two_cat_from_cat(mk_fincat(("A", "B"), arrows,
                                      {"A": "id_A", "B": "id_B"}, compose))
    one = terminal_category()
    PB = mk_fincat(("o", "p"), {"id_o": ("o", "o"), "id_p": ("p", "p"),
                                "w": ("o", "p"), "v,w": ("o", "p")},
                   {"o": "id_o", "p": "id_p"},
                   {("id_o", "id_o"): "id_o", ("id_p", "id_p"): "id_p",
                    ("w", "id_o"): "w", ("id_p", "w"): "w",
                    ("v,w", "id_o"): "v,w", ("id_p", "v,w"): "v,w"})
    to_o = Functor(one, PB, {"*": "o"}, {"id_*": "id_o"})
    on_1 = {"id_A": identity_functor(one), "id_B": identity_functor(PB),
            "u": to_o, "u,v": to_o}
    on_2 = {base.id2(f): idn(F) for f, F in on_1.items()}
    return CatDiagram(base, {"A": one, "B": PB}, on_1, on_2)


@pytest.mark.parametrize("P,name", [
    (discrete_diagram({"c": ["a,b"], "b,c": ["a"]}), "(a,b,c)"),
    (colliding_1cells(), "(u,v,w)@*"),
], ids=["elements", "1-cells"])
def test_the_reader_refuses_colliding_names_as_elements_of_does(P, name):
    refusals = []
    for build in (elements_of, reader):
        meter = Meter()
        with pytest.raises(PreconditionFailed) as err:
            build(P, meter)
        refusals.append((str(err.value), meter.count))
    assert refusals[0] == refusals[1]
    assert f"name {name} is minted" in refusals[0][0]


def test_the_reader_refuses_a_pseudo_diagram():
    """``elements_of`` refuses a pseudo P; the reader serves it."""
    with pytest.raises(PreconditionFailed, match="elements_of_pseudo"):
        elements_of(pseudo_z2())


PSEUDO_DIAGRAMS = {"pseudo_z2": pseudo_z2, "pseudo_swap": pseudo_swap,
                   "pseudo_not_flat": pseudo_not_flat}


@pytest.mark.parametrize("name", sorted(PSEUDO_DIAGRAMS))
def test_the_reader_reads_the_pseudo_dual_table_for_table(name):
    P = PSEUDO_DIAGRAMS[name]()
    assert_reader_reads_the_dual(P, elements_of_pseudo)
    assert_reader_is_the_assembled_scan(P, elements_of_pseudo)


def test_check_flat_builds_no_2category_of_elements(monkeypatch):
    """No 2-category of elements, hom category of elements or dual copy is
    assembled: the verdicts come from El_P's reader alone."""
    names = ("diagram_pick0.json", "diamond/reprbot", "diamond/pair",
             "parallel1/co/repra", "twice_stepped", "chain6/one")
    want = {name: check_flat(DIAGRAMS[name]).evidence for name in names}

    def refuse(*args, **kwargs):
        raise AssertionError("a 2-category of elements was built")

    for module, attr in ((elements, "_build"), (elements, "mk_fin2cat"),
                         (elements, "mk_fincat"), (two_cat, "mk_fin2cat"),
                         (two_cat, "op_dual")):
        monkeypatch.setattr(module, attr, refuse)
    for name in names:
        assert check_flat(DIAGRAMS[name]).evidence == want[name]
