"""Budget ticks and results of the enumeration kernels, pinned.

The meter is the contract that decides where an input is refused, so a
change that only makes the kernels cheaper must leave every count here,
and every table, exactly as it is.  A change that alters the search
itself moves these figures on purpose and says so where it lands.
"""

import hashlib

import pytest

from certificate_reference import end_eps
from cone_reference import (base_cone_category, cocone_category, cone_existence,
                            shape_diagram_1, shape_diagram_2, shape_diagram_3)
from dicone_reference import internal_hom_diagram
from helpers import (chain_2cat, colimit_rungs, corpus_biinserter, grid_2cat,
                     table_digest)
from sigmacat.colimits import (bilimit_cat, cones_sigma, conical_sigma_colimit,
                               point_cone_homs, weighted_sigma_colimit,
                               weighted_sigma_limit)
from sigmacat.config import DEFAULT_BUDGET, Meter
from sigmacat.errors import PreconditionFailed
from sigmacat.filteredness import (check_sigma_cofiltered, check_sigma_cofinal,
                                   check_sigma_filtered)
from sigmacat.fincat import (arrow_category, discrete_category,
                             functor_category_full, iso_pair_category,
                             product_category, terminal_category)
from sigmacat.fixtures import (arrow_2cat, diagram_collapse, diagram_on_free2cell,
                               diagram_pick0, diamond_2cat, marked_fixtures,
                               poset_category, pseudo_not_flat, pseudo_swap,
                               pseudo_z2, weight_on_op_arrow)
from sigmacat.flatness import (canonical_expression, check_flat, check_flat_pseudo,
                               check_left_exact, generate_bilimit_cones,
                               representable)
from sigmacat.presented import localize
from sigmacat.shapes import BIINSERTER
from sigmacat.transforms import (LAX, PSEUDO, STRICT, TwoFunctor, constant_diagram,
                                 hom_eps, identity_twofunctor, sigma_flavor)
from sigmacat.two_cat import (Marked2Cat, free_2cell_2cat, parallel_2cells_2cat,
                              terminal_2cat, two_cat_from_cat, wide_all,
                              wide_from, wide_identities)


def chain(n, prefix=""):
    objs = [f"{prefix}{i}" for i in range(n)]
    return poset_category(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


def fingerprint(meter, c):
    return (meter.count, len(c.objects), len(c.arrows), len(c.compose),
            table_digest(c))


CASES = {
    "fun-arrow-iso_pair": lambda m: functor_category_full(
        arrow_category(), iso_pair_category(), m).cat,
    "fun-chain2-chain3": lambda m: functor_category_full(chain(2), chain(3), m).cat,
    "fun-chain3-chain4": lambda m: functor_category_full(chain(3), chain(4), m).cat,
    "cones-pick0-iso_pair": lambda m: cones_sigma(
        diagram_pick0(), frozenset(wide_all(arrow_2cat()).arrows),
        iso_pair_category(), m).cat,
    "localize-arrow-f": lambda m: localize(arrow_category(), {"f"}, meter=m).realization,
    "localize-chain3-all": lambda m: localize(
        chain(3), {"0<1", "1<2"}, meter=m).realization,
    "localize-square-two": lambda m: localize(
        product_category(arrow_category(), arrow_category()),
        {"(f,id_0)", "(id_1,f)"}, meter=m).realization,
    "conical-pick0-all": lambda m: conical_sigma_colimit(
        diagram_pick0(), wide_all(arrow_2cat()), meter=m).category,
    "hom-s-pick0-delta_arrow": lambda m: hom_eps(
        diagram_pick0(), constant_diagram(arrow_2cat(), arrow_category()),
        STRICT, m).cat,
    "hom-sigma-free2cell-u": lambda m: hom_eps(
        diagram_on_free2cell(),
        constant_diagram(free_2cell_2cat(), arrow_category()),
        sigma_flavor({"u"}), m).cat,
    "hom-l-free2cell": lambda m: hom_eps(
        diagram_on_free2cell(),
        constant_diagram(free_2cell_2cat(), arrow_category()), LAX, m).cat,
    "hom-p-pseudo_z2-pseudo_z2": lambda m: hom_eps(
        pseudo_z2(), pseudo_z2(), PSEUDO, m).cat,
    "hom-l-pseudo_swap-pseudo_z2": lambda m: hom_eps(
        pseudo_swap(), pseudo_z2(), LAX, m).cat,
    "end-l-delta_arrow-delta_arrow": lambda m: end_eps(
        internal_hom_diagram(constant_diagram(arrow_2cat(), arrow_category()),
                             constant_diagram(arrow_2cat(), arrow_category()))[0],
        arrow_2cat(), LAX, m).cat,
    "weighted-w_arrow-pick0-all": lambda m: weighted_sigma_colimit(
        weight_on_op_arrow(), diagram_pick0(), wide_all(arrow_2cat()), meter=m).category,
    "weighted-w_arrow-collapse-all": lambda m: weighted_sigma_colimit(
        weight_on_op_arrow(), diagram_collapse(), wide_all(arrow_2cat()),
        meter=m).category,
}

# (ticks, objects, arrows, composable pairs, table digest)
EXPECTED = {
    "fun-arrow-iso_pair": (88, 4, 16, 64, "47ba3bccd2aadb58"),
    "fun-chain2-chain3": (85, 6, 20, 50, "b7f2e2fb73bf173f"),
    "fun-chain3-chain4": (1239, 20, 175, 980, "3d7dda3da6006b89"),
    "cones-pick0-iso_pair": (632, 8, 64, 512, "e204e570e8de4e94"),
    "localize-arrow-f": (8, 2, 4, 8, "a8766173a21e9366"),
    "localize-chain3-all": (24, 3, 9, 27, "48fe927c6f128b67"),
    "localize-square-two": (41, 4, 17, 73, "a4b770df3a0b7bd6"),
    "conical-pick0-all": (35, 3, 7, 15, "dbdd782538462259"),
    "hom-s-pick0-delta_arrow": (49, 3, 6, 10, "4eb0be34087b9cf2"),
    "hom-sigma-free2cell-u": (56, 3, 6, 10, "4eb0be34087b9cf2"),
    "hom-l-free2cell": (83, 4, 10, 20, "335d5fd468a95cc7"),
    "hom-p-pseudo_z2-pseudo_z2": (182, 4, 16, 64, "0b751bc33008244a"),
    "hom-l-pseudo_swap-pseudo_z2": (2854, 8, 128, 2048, "dbde37d6009e4081"),
    "end-l-delta_arrow-delta_arrow": (35, 6, 20, 50, "3ee6b5da0ebcf55d"),
    "weighted-w_arrow-pick0-all": (181, 5, 18, 58, "237ee44e8199f1fe"),
    "weighted-w_arrow-collapse-all": (289, 4, 16, 64, "da9a62f7a933edb2"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ticks_and_tables_are_pinned(case):
    meter = Meter()
    result = CASES[case](meter)
    assert fingerprint(meter, result) == EXPECTED[case]


# Weighted limits through the conical reduction.  The digests are those of
# hom_eps on the same inputs, where these took 58,929, 1,387 and 38 ticks.
WEIGHTED_LIMIT_CASES = {
    "limit-l-one-chain8-delta_chain3": lambda m: weighted_sigma_limit(
        constant_diagram(chain_2cat(8), terminal_category()),
        constant_diagram(chain_2cat(8), chain(3)), LAX, m).cat,
    "limit-p-repr_g0_0-grid3x3-delta_chain2": lambda m: weighted_sigma_limit(
        representable(grid_2cat(3, 3), "g0_0"),
        constant_diagram(grid_2cat(3, 3), chain(2)), PSEUDO, m).cat,
    "bilimit-biinserter": lambda m: bilimit_cat(
        BIINSERTER.weight, corpus_biinserter(), m).cat,
}

WEIGHTED_LIMIT_EXPECTED = {
    "limit-l-one-chain8-delta_chain3": (16578, 45, 825, 9075, "ed122009426e1441"),
    "limit-p-repr_g0_0-grid3x3-delta_chain2": (593, 2, 3, 4, "00d3901e01c0ebea"),
    "bilimit-biinserter": (31, 2, 3, 4, "00d3901e01c0ebea"),
}


@pytest.mark.parametrize("case", sorted(WEIGHTED_LIMIT_CASES))
def test_weighted_limit_ticks_and_tables_are_pinned(case):
    meter = Meter()
    result = WEIGHTED_LIMIT_CASES[case](meter)
    assert fingerprint(meter, result) == WEIGHTED_LIMIT_EXPECTED[case]


def test_the_lax_grid_limit_is_read_within_the_default_budget():
    """σ-Nat(Δ1, Δ(3-chain)) over the 3×3 grid, lax: its 175 cones are the
    monotone maps from the grid to the 3-chain, MacMahon's count of plane
    partitions in a 3×3×2 box.  hom_eps is refused at the default budget
    here; the kernel reads every cone and every hom-set within it.
    Assembling the category costs another 211,250 composition ticks."""
    grid = grid_2cat(3, 3)
    meter = Meter(DEFAULT_BUDGET)
    cones, hom = point_cone_homs(constant_diagram(grid, chain(3)), frozenset(), meter)
    morphisms = sum(len(hom(p, q)) for p in range(len(cones)) for q in range(len(cones)))
    assert (len(cones), morphisms, meter.count) == (175, 8790, 28648)


# Constant diagrams over the 3-chain c0 < c1 < c2, relative to the identity
# marking (lax) and to every 1-cell (pseudo): the classifier certificate
# decides them within the default budget.
CHAIN3_RUNGS = {
    "chain3/arrow/ids": (arrow_category, wide_identities, (101, 6, 18)),
    "chain3/pair/ids": (lambda: discrete_category(["x", "y"]), wide_identities,
                        (58, 6, 12)),
    "chain3/pair/all": (lambda: discrete_category(["x", "y"]), wide_all,
                        (176, 6, 18)),
    "chain3/arrow/all": (arrow_category, wide_all, (330, 6, 27)),
}


@pytest.mark.parametrize("rung", sorted(CHAIN3_RUNGS))
def test_chain3_colimits_are_certified_within_the_default_budget(rung):
    value, marking, expected = CHAIN3_RUNGS[rung]
    base = two_cat_from_cat(chain(3, prefix="c"))
    meter = Meter(DEFAULT_BUDGET)
    res = conical_sigma_colimit(constant_diagram(base, value()), marking(base),
                                meter=meter)
    assert res.finite
    assert res.certificate == [("classifier", True)]
    assert (meter.count, len(res.category.objects), len(res.category.arrows)) == \
        expected


# Pseudo colimits (every 1-cell marked) whose answer is the codiscrete
# groupoid on the base's objects, with (ticks, objects, arrows, composable
# pairs, table digest), and F1, the canonical expression of the
# diamond's bottom representable: the coset enumeration decides them within
# the default budget, where the bounded word closure refused.
FULLY_MARKED_RUNGS = {
    "chain4/one/all": (lambda: constant_diagram(two_cat_from_cat(chain(4, prefix="c")),
                                                terminal_category()),
                       (262, 4, 16, 64, "2f3565e7625f52e8")),
    "diamond/one/all": (lambda: constant_diagram(diamond_2cat(), terminal_category()),
                        (198, 4, 16, 64, "9761daaf19e67344")),
    "chain4/reprc0/all": (lambda: representable(two_cat_from_cat(chain(4, prefix="c")),
                                                "c0"),
                          (262, 4, 16, 64, "b3b478f53cb63368")),
    "diamond/reprbot/all": (lambda: representable(diamond_2cat(), "bot"),
                            (198, 4, 16, 64, "8dbf2d474fcac688")),
}


@pytest.mark.parametrize("rung", sorted(FULLY_MARKED_RUNGS))
def test_fully_marked_colimits_are_certified_within_the_default_budget(rung):
    diagram, expected = FULLY_MARKED_RUNGS[rung]
    P = diagram()
    meter = Meter(DEFAULT_BUDGET)
    res = conical_sigma_colimit(P, wide_all(P.source), meter=meter)
    assert res.finite
    assert res.certificate == [("classifier", True)]
    assert fingerprint(meter, res.category) == expected


# The 21 rungs left out of the benchmark's colimit ladder for the cost of
# the test-family certificate (1,045 to 201,725 ticks), all certified by
# the classifier: (ticks, objects, arrows, table digest).  The tables are
# the ones the test-family certificate accepted with a budget of 10^8.
COLIMIT_RUNGS = {
    "chain3/arrow/ids": (101, 6, 18, "7ff4890cc4877057"),
    "chain3/arrow/mid": (155, 6, 21, "6e375eab9e3761ca"),
    "chain3/pair/all": (176, 6, 18, "ad20b67140d85d28"),
    "chain3/pair/ids": (58, 6, 12, "4b40dfca52169f81"),
    "chain3/pair/mid": (88, 6, 14, "8dec4da729e70d5d"),
    "chain4/arrow/all": (1018, 8, 48, "ba871ebd1e6b7dea"),
    "chain4/arrow/ids": (206, 8, 30, "0c1099f032067d43"),
    "chain4/arrow/mid": (276, 8, 33, "565743d8f1b69193"),
    "chain4/one/all": (262, 4, 16, "2f3565e7625f52e8"),
    "chain4/pair/all": (534, 8, 32, "dfa5f1d1750bdfdd"),
    "chain4/pair/ids": (112, 8, 20, "5369d3dee4b86d6c"),
    "chain4/pair/mid": (150, 8, 22, "2f2ccc4040ca331e"),
    "chain4/reprc0/all": (262, 4, 16, "b3b478f53cb63368"),
    "diamond/arrow/all": (746, 8, 48, "50c01c15acfa5fbe"),
    "diamond/arrow/ids": (159, 8, 27, "d5be33de08728524"),
    "diamond/arrow/mid": (235, 8, 33, "104ff1a873b8e35c"),
    "diamond/one/all": (198, 4, 16, "9761daaf19e67344"),
    "diamond/pair/all": (396, 8, 32, "aa74fd62c9728bf9"),
    "diamond/pair/ids": (90, 8, 18, "18197f04ad1f2799"),
    "diamond/pair/mid": (132, 8, 22, "1cfa843f32b8fa1d"),
    "diamond/reprbot/all": (198, 4, 16, "8dbf2d474fcac688"),
}


def test_the_pinned_rungs_are_the_shared_ones():
    assert sorted(COLIMIT_RUNGS) == sorted(colimit_rungs())


@pytest.mark.parametrize("rung", sorted(COLIMIT_RUNGS))
def test_every_rung_is_certified_within_the_default_budget(rung):
    P, marking = colimit_rungs()[rung]
    meter = Meter(DEFAULT_BUDGET)
    res = conical_sigma_colimit(P, marking, meter=meter)
    assert res.certificate == [("classifier", True)]
    assert (meter.count, len(res.category.objects), len(res.category.arrows),
            table_digest(res.category)) == COLIMIT_RUNGS[rung]


def test_canonical_expression_of_the_diamond_bottom_representable_is_pinned():
    """The comparison out of each colimit reads the π0 tables the colimit
    was built from, so no tick goes to a second read of them."""
    meter = Meter(DEFAULT_BUDGET)
    res = canonical_expression(representable(diamond_2cat(), "bot"), meter=meter)
    assert res.verdict == "equivalent"
    assert [(B, st, ok) for B, st, ok in res.per_object] == \
        [(B, "finite", True) for B in ("a", "b", "bot", "top")]
    assert meter.count == 280


@pytest.mark.parametrize("n,ticks", [(4, 101), (8, 1444), (16, 21148)])
def test_fully_marked_chain_localizes_to_the_codiscrete_groupoid(n, ticks):
    """Scaling guard: the old word closure needed more than 3,000,000
    ticks at n = 4; the coset table defines one coset per arrow here."""
    c = chain(n)
    meter = Meter(DEFAULT_BUDGET)
    loc = localize(c, [a for a in c.arrows if not c.is_identity(a)], meter=meter)
    assert loc.finite
    assert sorted(loc.realization.arrows.values()) == \
        sorted((x, y) for x in c.objects for y in c.objects)
    assert meter.count == ticks


def test_left_exactness_on_the_diamond_is_pinned():
    """Ticks, verdict and per-shape answers of the bilimit cone search and
    the comparisons it feeds, both decided on hom-sets."""
    meter = Meter()
    base = diamond_2cat()
    rep = check_left_exact(representable(base, "bot"),
                           generate_bilimit_cones(base, meter), meter)
    digest = hashlib.sha256(repr(rep.per_shape).encode()).hexdigest()[:16]
    assert (meter.count, rep.verdict, len(rep.per_shape), digest) == \
        (363, True, 44, "c5c724cbf5d422b6")


# ---------------------------------------------------------------------------
# Cone searches inside a finite 2-category.  Each case records the ticks
# and one digest of the cones found, in order, and of the sorted tables of
# every cone category built; cocone categories with their names replaced
# by positions, so that the digest does not depend on the name prefixes.


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def diamond_base_cones(m, which):
    """base_cone_category of every biproduct (which = 1) or biequalizer
    (which = 2) diagram in the diamond, at every vertex."""
    a = diamond_2cat()
    full = Marked2Cat(a, wide_all(a))
    if which == 1:
        diagrams = [(shape_diagram_1(full, C, D).diagram, frozenset())
                    for C in sorted(a.objects) for D in sorted(a.objects)]
    else:
        diagrams = [(shape_diagram_2(full, f, g).diagram, frozenset({"u", "v"}))
                    for A in sorted(a.objects) for B in sorted(a.objects)
                    for f in a.one_cells(A, B) for g in a.one_cells(A, B)]
    rows = []
    for D, marked in diagrams:
        for X in sorted(a.objects):
            cat, cones, data = base_cone_category(D, marked, X, m)
            rows.append(([(n, sorted(c.comp.items()), sorted(c.struct.items()))
                          for n, c in cones.items()],
                         sorted((n, sorted(rho.items())) for n, rho in data.items()),
                         table_digest(cat)))
    return rows


def free2cell_shapes():
    m = dict((l, mm) for l, mm, _ in marked_fixtures())["free2cell/ids+v"]
    return m, [shape_diagram_1(m, "a", "b"), shape_diagram_2(m, "u", "v"),
               shape_diagram_3(m, "u", "v", "th", "th")]


def positional_tables(c) -> tuple:
    """The sorted tables with every name replaced by its position in the
    sorted names, so that renaming the cocone category's objects and
    arrows, in an order-preserving way, leaves them unchanged."""
    ob = {x: i for i, x in enumerate(sorted(c.objects))}
    ar = {a: i for i, a in enumerate(sorted(c.arrows))}
    return (len(ob), sorted((ar[a], ob[s], ob[t]) for a, (s, t) in c.arrows.items()),
            sorted((ob[x], ar[a]) for x, a in c.identity.items()),
            sorted((ar[g], ar[f], ar[h]) for (g, f), h in c.compose.items()))


def free2cell_cocones(m):
    fx, shapes = free2cell_shapes()
    rows = []
    for sd in shapes:
        for E in sorted(fx.cat.objects):
            cat, cones = cocone_category(sd, E, m)
            rows.append(([(sorted(comp.items()), sorted(struct.items()))
                          for comp, struct in cones.values()], positional_tables(cat)))
    return rows


def free2cell_cone_existence(m):
    fx, shapes = free2cell_shapes()
    rows = []
    for sd in shapes:
        got = cone_existence(sd, fx.sigma, m)
        rows.append(None if got is None else
                    (got[0], sorted(got[1].items()), sorted(got[2].items())))
    return rows


def bilimit_cones(base):
    """The rows of the cones ``generate_bilimit_cones`` finds in ``base()``."""
    return lambda m: [(label, c.vertex, sorted(c.comp.items()),
                       sorted(c.struct.items()), sorted(c.marked))
                      for label, c in generate_bilimit_cones(base(), m)]


CONE_CASES = {
    "base-cones-diamond-biproducts": lambda m: diamond_base_cones(m, 1),
    "base-cones-diamond-biequalizers": lambda m: diamond_base_cones(m, 2),
    "cocones-free2cell-ids+v": free2cell_cocones,
    "cone-existence-free2cell-ids+v": free2cell_cone_existence,
    "bilimit-cones-diamond": bilimit_cones(diamond_2cat),
    "bilimit-cones-chain8": bilimit_cones(lambda: chain_2cat(8)),
    "bilimit-cones-grid3x3": bilimit_cones(lambda: grid_2cat(3, 3)),
}

# (ticks, number of rows, digest of the rows)
CONE_EXPECTED = {
    "base-cones-diamond-biequalizers": (64, 36, "a0af0a49479d9f50"),
    "base-cones-diamond-biproducts": (100, 64, "76eed562399096db"),
    "bilimit-cones-chain8": (1716, 173, "a21c183bb890e390"),
    "bilimit-cones-diamond": (231, 44, "85abf3966c065e81"),
    "bilimit-cones-grid3x3": (1515, 190, "cdaa8b8952aab59b"),
    "cocones-free2cell-ids+v": (21, 6, "0d3a7961ed08e797"),
    "cone-existence-free2cell-ids+v": (6, 3, "34d60c7a7254de5f"),
}


@pytest.mark.parametrize("case", sorted(CONE_CASES))
def test_cone_search_ticks_and_results_are_pinned(case):
    meter = Meter()
    rows = CONE_CASES[case](meter)
    assert (meter.count, len(rows), digest(rows)) == CONE_EXPECTED[case]


# Filteredness, cofinality and flatness scans.  Each case records the ticks
# and one digest of the verdict, the witnesses in order and the
# counterexample; a cofinality whose source is not filtered records the
# refusal instead, with the ticks spent before it.


def scan_result(rep) -> tuple:
    return rep.verdict, rep.witnesses, rep.counterexample


def cofinal_result(T, sigma, sigma_prime):
    def run(m):
        try:
            return scan_result(check_sigma_cofinal(T, sigma, sigma_prime, m))
        except PreconditionFailed as e:
            return ("refused", str(e))
    return run


def flat_result(check, P):
    def run(m):
        v = check(P, m)
        return v.verdict, v.route, scan_result(v.evidence)
    return run


def point_at_b(cells):
    """The terminal 2-category picking b in the parallel pair with the
    named 2-cells; identities marked on the source, v on the target."""
    t2, p = terminal_2cat(), parallel_2cells_2cat(cells)
    T = TwoFunctor(t2, p, {"*": "b"}, {"id_*": "id_b"}, {"i2_id_*": "i2_id_b"})
    return T, wide_identities(t2), wide_from(p, ["v"])


def scan_cases() -> dict:
    marked = {label: m for label, m, _ in marked_fixtures()}
    for name, base, first in (("diamond", diamond_2cat(), "bot<a"),
                              ("grid2x3", grid_2cat(2, 3), "g0_0<g1_0")):
        marked.update({f"{name}/ids": Marked2Cat(base, wide_identities(base)),
                       f"{name}/mid": Marked2Cat(base, wide_from(base, [first])),
                       f"{name}/all": Marked2Cat(base, wide_all(base))})
    cases = {}
    for label, m in marked.items():
        cases[f"filtered-{label}"] = lambda meter, m=m: scan_result(
            check_sigma_filtered(m, meter))
        cases[f"cofiltered-{label}"] = lambda meter, m=m: scan_result(
            check_sigma_cofiltered(m, meter))
        cases[f"cofinal-identity-{label}"] = cofinal_result(
            identity_twofunctor(m.cat), m.sigma, m.sigma)
    cases["cofinal-point-th"] = cofinal_result(*point_at_b(("th",)))
    cases["cofinal-point-th-et"] = cofinal_result(*point_at_b(("th", "et")))
    for name, base in (("chain6", chain_2cat(6)), ("diamond", diamond_2cat())):
        cases[f"flat-{name}-one"] = flat_result(
            check_flat, constant_diagram(base, terminal_category()))
        for A in sorted(base.objects):
            cases[f"flat-{name}-repr{A}"] = flat_result(check_flat, representable(base, A))
    for name, P in (("pseudo_swap", pseudo_swap()), ("pseudo_z2", pseudo_z2()),
                    ("pseudo_not_flat", pseudo_not_flat())):
        cases[f"flat-pseudo-{name}"] = flat_result(check_flat_pseudo, P)
    return cases


SCAN_CASES = scan_cases()

# (ticks, digest of the result)
SCAN_EXPECTED = {
    "cofiltered-arrow/all": (7, "75018e7d4e00ebae"),
    "cofiltered-arrow/ids": (2, "fe3c9597e7acb0ed"),
    "cofiltered-diamond/all": (25, "f5b8c7ba248efb17"),
    "cofiltered-diamond/ids": (1, "496c495e1d430eb5"),
    "cofiltered-diamond/mid": (2, "496c495e1d430eb5"),
    "cofiltered-discrete-pair/ids": (1, "d580d652e8d91982"),
    "cofiltered-free2cell/all": (7, "c918691833f0f26a"),
    "cofiltered-free2cell/ids+v": (10, "32cbe41b17cfc2eb"),
    "cofiltered-grid2x3/all": (54, "711fa4f47490eab7"),
    "cofiltered-grid2x3/ids": (2, "0f9ab1279c859b7d"),
    "cofiltered-grid2x3/mid": (2, "0f9ab1279c859b7d"),
    "cofiltered-iso/all": (8, "9b0257f7cbca52d4"),
    "cofiltered-parallel/all": (6, "c918691833f0f26a"),
    "cofiltered-span/all": (14, "07fc25abf8f58276"),
    "cofiltered-terminal/ids": (2, "5780cfce31c7d491"),
    "cofinal-identity-arrow/all": (12, "8d5a6457f38b6045"),
    "cofinal-identity-arrow/ids": (1, "a9b00bbcc37ab101"),
    "cofinal-identity-diamond/all": (38, "ab6b746fcd577533"),
    "cofinal-identity-diamond/ids": (1, "a9b00bbcc37ab101"),
    "cofinal-identity-diamond/mid": (1, "a9b00bbcc37ab101"),
    "cofinal-identity-discrete-pair/ids": (1, "a9b00bbcc37ab101"),
    "cofinal-identity-free2cell/all": (7, "a9b00bbcc37ab101"),
    "cofinal-identity-free2cell/ids+v": (15, "25aed0e80d297133"),
    "cofinal-identity-grid2x3/all": (78, "311cfed789642b0d"),
    "cofinal-identity-grid2x3/ids": (1, "a9b00bbcc37ab101"),
    "cofinal-identity-grid2x3/mid": (1, "a9b00bbcc37ab101"),
    "cofinal-identity-iso/all": (14, "a0891355f0e92607"),
    "cofinal-identity-parallel/all": (6, "a9b00bbcc37ab101"),
    "cofinal-identity-span/all": (1, "a9b00bbcc37ab101"),
    "cofinal-identity-terminal/ids": (4, "4406ce6b8fda3201"),
    "cofinal-point-th": (8, "64e89dc95e11b9fe"),
    "cofinal-point-th-et": (9, "753e8b3b9fa35cba"),
    "filtered-arrow/all": (7, "e30816787a3a842d"),
    "filtered-arrow/ids": (1, "fe3c9597e7acb0ed"),
    "filtered-diamond/all": (25, "43e74c9b3e10eded"),
    "filtered-diamond/ids": (1, "496c495e1d430eb5"),
    "filtered-diamond/mid": (1, "496c495e1d430eb5"),
    "filtered-discrete-pair/ids": (1, "d580d652e8d91982"),
    "filtered-free2cell/all": (7, "c9814e02790a0815"),
    "filtered-free2cell/ids+v": (9, "e5fcd2d67a2fda39"),
    "filtered-grid2x3/all": (54, "980646a098bf9816"),
    "filtered-grid2x3/ids": (1, "0f9ab1279c859b7d"),
    "filtered-grid2x3/mid": (1, "0f9ab1279c859b7d"),
    "filtered-iso/all": (8, "d773223e301e0c9c"),
    "filtered-parallel/all": (6, "c9814e02790a0815"),
    "filtered-span/all": (1, "496c495e1d430eb5"),
    "filtered-terminal/ids": (2, "5780cfce31c7d491"),
    "flat-chain6-one": (99, "c83cbde72bc41161"),
    "flat-chain6-reprc0": (99, "aa0cc6d122cb9dd2"),
    "flat-chain6-reprc1": (70, "7efa7bd33fcf7e29"),
    "flat-chain6-reprc2": (46, "22a316181bbe36bd"),
    "flat-chain6-reprc3": (27, "04028626acf80b6a"),
    "flat-chain6-reprc4": (13, "24b6d2fb5ab63da4"),
    "flat-chain6-reprc5": (4, "f296eb700f4a8726"),
    "flat-diamond-one": (43, "8a8606f89152d7a4"),
    "flat-diamond-repra": (13, "e3da6536290fde7b"),
    "flat-diamond-reprb": (13, "ebef573332f28a96"),
    "flat-diamond-reprbot": (43, "9551a9c653a473f2"),
    "flat-diamond-reprtop": (4, "a08ddb331c5909c9"),
    "flat-pseudo-pseudo_not_flat": (44, "d71bf0d1b4382a95"),
    "flat-pseudo-pseudo_swap": (192, "6d37b739cf11ea52"),
    "flat-pseudo-pseudo_z2": (85, "37ad08855fd83422"),
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_ticks_and_reports_are_pinned(case):
    meter = Meter()
    result = SCAN_CASES[case](meter)
    assert (meter.count, digest(result)) == SCAN_EXPECTED[case]
