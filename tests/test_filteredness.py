"""Filteredness, cofinality, and the three probe shapes."""

import pytest
from hypothesis import given, settings

from cone_reference import (cone_category_equiv, cone_existence,
                            explicit_shape_category, probe, shape_diagram_1,
                            shape_diagram_2, shape_diagram_3)
from helpers import posets
from witness_reference import check_filtered_witnesses
from sigmacat import two_cat
from sigmacat.config import Meter
from sigmacat.errors import PreconditionFailed
from sigmacat.fincat import validate_category
from sigmacat.fixtures import (arrow_2cat, diamond_2cat, iso_2cat,
                               marked_fixtures, parallel_2cat)
from sigmacat.two_cat import (Marked2Cat, WideSub, op_dual,
                              parallel_2cells_2cat, terminal_2cat,
                              two_cat_from_cat, wide_all, wide_from,
                              wide_identities)
from sigmacat.transforms import TwoFunctor, identity_twofunctor
from sigmacat.filteredness import (Witness, check_sigma_cofiltered,
                                   check_sigma_cofinal, check_sigma_filtered,
                                   cofinal_via_ff)


@pytest.mark.parametrize("label,m,expect", marked_fixtures())
def test_fixture_verdicts(label, m, expect):
    rep = check_sigma_filtered(m)
    assert rep.verdict == expect
    if not expect:
        assert rep.counterexample is not None
    else:
        assert rep.counterexample is None
        assert rep.witnesses


def test_negative_counterexamples_name_the_axiom():
    by_label = {label: (m, expect) for label, m, expect in marked_fixtures()}
    m, _ = by_label["discrete-pair/ids"]
    assert check_sigma_filtered(m).counterexample.axiom == "sigma-F0"
    m, _ = by_label["parallel/all"]
    assert check_sigma_filtered(m).counterexample.axiom == "sigma-F1"
    m, _ = by_label["free2cell/all"]
    assert check_sigma_filtered(m).counterexample.axiom == "sigma-F1"


def scan(check, m) -> tuple:
    """The verdict, the witnesses in order, the counterexample and the ticks."""
    meter = Meter()
    rep = check(m, meter)
    return rep.verdict, rep.witnesses, rep.counterexample, meter.count


def assert_cofiltered_is_filtered_of_the_dual(m):
    """The reference is the scan of the copied 1-cell dual."""
    dual = op_dual(m.cat)
    assert scan(check_sigma_cofiltered, m) == \
        scan(check_sigma_filtered, Marked2Cat(dual, WideSub(dual, m.sigma.arrows)))


def test_cofiltered_is_filtered_of_the_dual():
    for label, m, expect in marked_fixtures():
        assert_cofiltered_is_filtered_of_the_dual(m)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(c=posets(5))
def test_cofiltered_is_filtered_of_the_dual_on_posets(c):
    a = two_cat_from_cat(c)
    markings = [wide_identities(a), wide_all(a)]
    first = sorted(set(a.all_one_cells()) - set(a.id1.values()))[:1]
    markings += [wide_from(a, first)] if first else []
    for sigma in markings:
        assert_cofiltered_is_filtered_of_the_dual(Marked2Cat(a, sigma))


def test_cofiltered_copies_nothing(monkeypatch):
    """The 1-cell dual is read through a view: with no dual copy and no
    2-category assembled, every answer is the same."""
    cases = [m for _, m, _ in marked_fixtures()]
    want = [scan(check_sigma_cofiltered, m) for m in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a dual copy was built")

    monkeypatch.setattr(two_cat, "op_dual", refuse)
    monkeypatch.setattr(two_cat, "mk_fin2cat", refuse)
    assert [scan(check_sigma_cofiltered, m) for m in cases] == want


def _all_shape_instances(m):
    a = m.cat
    sig = m.sigma.arrows
    for C in sorted(a.objects):
        for D in sorted(a.objects):
            yield shape_diagram_1(m, C, D)
    for A in sorted(a.objects):
        for B in sorted(a.objects):
            for f in a.one_cells(A, B):
                for g in a.one_cells(A, B):
                    if g not in sig:
                        continue
                    yield shape_diagram_2(m, f, g)
                    cells = a.two_cells_between(f, g)
                    for al in cells:
                        for be in cells:
                            if al != be:
                                yield shape_diagram_3(m, f, g, al, be)


@pytest.mark.parametrize("label,m,expect", marked_fixtures())
def test_characterization_by_shape_cones(label, m, expect):
    # verdict agreement: filtered iff every probe shape admits a cone
    # whose structure arrows are marked
    if not m.cat.objects:
        return
    all_cones = all(cone_existence(sd, m.sigma) is not None
                    for sd in _all_shape_instances(m))
    assert all_cones == check_sigma_filtered(m).verdict


def test_general_diagram_direction_one_instance():
    # a filtered fixture admits a marked cone over a diagram with two
    # objects, two arrows, and a connecting 2-cell
    m = dict((l, mm) for l, mm, _ in marked_fixtures())["free2cell/ids+v"]
    sd = probe(m, identity_twofunctor(m.cat))
    got = cone_existence(sd, m.sigma)
    assert got is not None
    E, comp, struct = got
    assert all(t in m.sigma.arrows for t in comp.values())


def test_cone_existence_shape_three_negative():
    # two distinct parallel 2-cells with nothing to merge them
    a = parallel_2cells_2cat(("th", "et"))
    m = Marked2Cat(a, wide_all(a))
    sd = shape_diagram_3(m, "u", "v", "th", "et")
    assert cone_existence(sd, m.sigma) is None


def test_cone_existence_marked_first_leg_gives_invertible_cell():
    # when the first leg is marked too, the connecting cell of the found
    # cone is invertible
    m = dict((l, mm) for l, mm, _ in marked_fixtures())["iso/all"]
    a = m.cat
    sd = shape_diagram_2(m, "u", "u")
    got = cone_existence(sd, m.sigma)
    assert got is not None
    E, comp, struct = got
    for u, cell in struct.items():
        if u in sd.marked:
            assert a.is_invertible_2cell(cell)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_cone_category_equivalences(which):
    m = dict((l, mm) for l, mm, _ in marked_fixtures())["free2cell/ids+v"]
    a = m.cat
    if which == 1:
        sd = shape_diagram_1(m, "a", "b")
    elif which == 2:
        sd = shape_diagram_2(m, "u", "v")
    else:
        sd = shape_diagram_3(m, "u", "v", "th", "th")
    for E in sorted(a.objects):
        cat, explicit, F = cone_category_equiv(sd, E, which, m)
        assert len(cat.objects) == 0 and len(explicit.objects) == 0 or \
            F is not None


def test_shape_two_arrow_condition_enforced():
    # arrows of the explicit description must satisfy the compatibility
    # between connecting cells
    m = dict((l, mm) for l, mm, _ in marked_fixtures())["free2cell/ids+v"]
    sd = shape_diagram_2(m, "u", "v")
    explicit = explicit_shape_category(sd, "b", 2, m)
    assert validate_category(explicit).ok


def test_cofinal_identity_on_filtered():
    m = dict((l, mm) for l, mm, _ in marked_fixtures())["arrow/all"]
    T = identity_twofunctor(m.cat)
    rep = check_sigma_cofinal(T, m.sigma, m.sigma)
    assert rep.verdict


def test_cofinal_inclusion_positive():
    # include the terminal 2-category at the top of the walking arrow
    a = arrow_2cat()
    t2 = terminal_2cat()
    T = TwoFunctor(t2, a, {"*": "1"}, {"id_*": "id_1"}, {"i2_id_*": "i2_id_1"})
    rep = check_sigma_cofinal(T, wide_identities(t2), wide_all(a))
    assert rep.verdict


def test_cofinal_inclusion_negative_names_the_object():
    # include at the bottom instead: nothing maps from 1 into the image
    a = arrow_2cat()
    t2 = terminal_2cat()
    T = TwoFunctor(t2, a, {"*": "0"}, {"id_*": "id_0"}, {"i2_id_*": "i2_id_0"})
    rep = check_sigma_cofinal(T, wide_identities(t2), wide_all(a))
    assert not rep.verdict
    assert rep.counterexample.axiom == "sigma-C0"
    assert rep.counterexample.instance == ("1",)


def _point_at_b(cells):
    """The terminal 2-category picking b in the parallel pair u, v : a -> b
    with the named 2-cells u => v; identities marked on the source, v on
    the target."""
    t2, p = terminal_2cat(), parallel_2cells_2cat(cells)
    T = TwoFunctor(t2, p, {"*": "b"}, {"id_*": "id_b"}, {"i2_id_*": "i2_id_b"})
    return T, wide_identities(t2), wide_from(p, ["v"])


def test_cofinal_coequalizes_into_the_image():
    rep = check_sigma_cofinal(*_point_at_b(("th",)))
    assert rep.verdict and rep.counterexample is None
    assert [(w.axiom, w.instance, w.data) for w in rep.witnesses] == [
        ("sigma-C0", ("a",), ("*", "v")),
        ("sigma-C0", ("b",), ("*", "id_b")),
        ("sigma-C1", ("u", "v", "*"), ("id_*", "th")),
        ("sigma-C1", ("v", "v", "*"), ("id_*", "i2_v")),
        ("sigma-C1", ("id_b", "id_b", "*"), ("id_*", "i2_id_b"))]


def test_cofinal_names_two_cells_that_no_marked_arrow_merges():
    rep = check_sigma_cofinal(*_point_at_b(("th", "et")))
    assert not rep.verdict
    assert rep.witnesses[2] == Witness("sigma-C1", ("u", "v", "*"), ("id_*", "et"))
    assert rep.counterexample == Witness("sigma-C2", ("u", "v", "et", "th", "*"), ())


def test_cofinal_requires_filtered_source():
    from sigmacat.fincat import discrete_category
    from sigmacat.two_cat import two_cat_from_cat
    d2 = two_cat_from_cat(discrete_category(["x", "y"]))
    T = TwoFunctor(d2, d2, {"x": "x", "y": "y"},
                   {f: f for f in d2.all_one_cells()},
                   {x: x for x in d2.all_two_cells()})
    with pytest.raises(PreconditionFailed):
        check_sigma_cofinal(T, wide_identities(d2), wide_identities(d2))


def test_cofinal_via_embedding_is_reverified():
    # full inclusion of the top of the walking arrow, marking everything
    a = arrow_2cat()
    t2 = terminal_2cat()
    T = TwoFunctor(t2, a, {"*": "1"}, {"id_*": "id_1"}, {"i2_id_*": "i2_id_1"})
    rep = cofinal_via_ff(T, wide_all(a))
    assert rep.verdict
    # identity embedding of a filtered fixture
    m = dict((l, mm) for l, mm, _ in marked_fixtures())["free2cell/ids+v"]
    rep2 = cofinal_via_ff(identity_twofunctor(m.cat), m.sigma)
    assert rep2.verdict
    # bottom inclusion violates the reach condition
    Tb = TwoFunctor(t2, a, {"*": "0"}, {"id_*": "id_0"}, {"i2_id_*": "i2_id_0"})
    with pytest.raises(PreconditionFailed):
        cofinal_via_ff(Tb, wide_all(a))


def test_witnesses_revalidate():
    """The test-side checker re-checks every witness the scan records, and
    refuses a witness that does not hold."""
    for label, m, expect in marked_fixtures():
        rep = check_sigma_filtered(m)
        check_filtered_witnesses(m, rep)
        for w in rep.witnesses:
            assert w.axiom in ("nonempty", "sigma-F0", "sigma-F1", "sigma-F2")
    m = next(m for label, m, _ in marked_fixtures() if label == "arrow/all")
    rep = check_sigma_filtered(m)
    (A, B), legs = next((w.instance, w.data) for w in rep.witnesses
                        if w.axiom == "sigma-F0" and w.instance[0] != w.instance[1])
    for bad in (Witness("nonempty", (), ("nowhere",)), Witness("sigma-F0", (B, A), legs)):
        rep.witnesses = [bad]
        with pytest.raises(AssertionError):
            check_filtered_witnesses(m, rep)
