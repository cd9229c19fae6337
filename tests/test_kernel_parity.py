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
from helpers import (arrow_tensor_factors, chain_2cat, colimit_rungs,
                     corpus_biinserter, external_product, grid_2cat,
                     shape_digest, table_digest, tensor_factors)
from test_flat_reader import DIAGRAMS as FLAT_READER_DIAGRAMS
from test_enumeration_oracles import CONES as ENUMERATION_CONES
from sigmacat.colimits import (_morphism_key, bilimit_cat, coend_eps, cones_sigma,
                               conical_sigma_colimit,
                               diagram_binding, point_cone_homs, weighted_sigma_colimit,
                               weighted_sigma_limit)
from sigmacat.config import DEFAULT_BUDGET, Meter
from sigmacat.elements import elements_of, elements_of_pseudo, gamma_dual
from sigmacat.errors import PreconditionFailed, SizeLimitExceeded
from sigmacat.filteredness import (check_sigma_cofiltered, check_sigma_cofinal,
                                   check_sigma_filtered)
from sigmacat.fincat import (arrow_category, discrete_category,
                             functor_category_full, iso_pair_category,
                             product_category, terminal_category)
from sigmacat.fixtures import (arrow_2cat, chain3_2cat, diagram_collapse,
                               diagram_on_free2cell, diagram_pick0, diamond_2cat,
                               marked_fixtures, poset_category, pseudo_not_flat,
                               pseudo_swap, pseudo_z2, weight_on_op_arrow)
from sigmacat.flatness import (canonical_expression, check_flat, check_flat_pseudo,
                               check_left_exact, generate_bilimit_cones,
                               representable, strictify)
from sigmacat.io import diagram_to_doc, transformation_to_doc
from sigmacat.presented import localize
from sigmacat.shapes import BIINSERTER, generating_diagrams
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
    "cones-pick0-iso_pair": (696, 8, 64, 512, "e204e570e8de4e94"),
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


# σ-cocones under Q with vertex E in Cat: the cases of the brute-force
# comparison in test_enumeration_oracles and the pick0 case above, with
# digests of each cone's key and of each morphism's ends and key, by name.
CONE_CATEGORY_CASES = dict(ENUMERATION_CONES, **{
    "pick0-iso_pair-all": lambda: (diagram_pick0(),
                                   frozenset(wide_all(arrow_2cat()).arrows),
                                   iso_pair_category())})

# (ticks, objects, arrows, composable pairs, table digest, cone keys,
# morphism keys)
CONE_CATEGORY_EXPECTED = {
    "collapse-iso_pair-all": (696, 8, 64, 512, "e204e570e8de4e94", "0fa9f633c9a1d3af",
                              "3c535b1c57c2b2a0"),
    "free2cell-arrow-ids": (74, 4, 10, 20, "325114d1e5a2e3f2", "72006c62b1cc88aa",
                            "f4ce5b16ab0afcab"),
    "free2cell-arrow-u": (49, 2, 3, 4, "428eae98ac374b9b", "948fbdb835a15377",
                          "cf081af4d052da6d"),
    "pick0-arrow-all": (59, 3, 6, 10, "d94deabe701c3be3", "5d041cbd30fe5f16",
                        "83122acfedbda9c8"),
    "pick0-arrow-ids": (89, 5, 14, 30, "db7412539b383373", "fcc16b3a52863fa8",
                        "90771102c395ae49"),
    "pick0-iso_pair-all": (696, 8, 64, 512, "e204e570e8de4e94", "6027adb85c417341",
                           "1ebfa40f14b4bbaa"),
}


@pytest.mark.parametrize("case", sorted(CONE_CATEGORY_CASES))
def test_cone_categories_in_cat_are_pinned(case):
    meter = Meter()
    cc = cones_sigma(*CONE_CATEGORY_CASES[case](), meter)
    cone_keys = [(n, cc.cones[n].key()) for n in sorted(cc.cones)]
    morphism_keys = [(n, cc.cat.arrows[n], _morphism_key(cc.morphisms[n]))
                     for n in sorted(cc.morphisms)]
    assert (*fingerprint(meter, cc.cat), digest(cone_keys), digest(morphism_keys)) == \
        CONE_CATEGORY_EXPECTED[case]


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
    cones, hom = point_cone_homs(*diagram_binding(constant_diagram(grid, chain(3))),
                                 frozenset(), meter)
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
    "bilimit-cones-chain2": bilimit_cones(lambda: chain_2cat(2)),
    "bilimit-cones-chain4": bilimit_cones(lambda: chain_2cat(4)),
    "bilimit-cones-chain8": bilimit_cones(lambda: chain_2cat(8)),
    "bilimit-cones-grid2x2": bilimit_cones(lambda: grid_2cat(2, 2)),
    "bilimit-cones-grid3x3": bilimit_cones(lambda: grid_2cat(3, 3)),
}

# (ticks, number of rows, digest of the rows)
CONE_EXPECTED = {
    "base-cones-diamond-biequalizers": (64, 36, "a0af0a49479d9f50"),
    "base-cones-diamond-biproducts": (100, 64, "76eed562399096db"),
    "bilimit-cones-chain2": (57, 14, "513ad7474a6ce4d2"),
    "bilimit-cones-chain4": (282, 47, "100a99e18953fad9"),
    "bilimit-cones-chain8": (1716, 173, "a21c183bb890e390"),
    "bilimit-cones-diamond": (231, 44, "85abf3966c065e81"),
    "bilimit-cones-grid2x2": (231, 44, "92c2aa008295bf01"),
    "bilimit-cones-grid3x3": (1515, 190, "cdaa8b8952aab59b"),
    "cocones-free2cell-ids+v": (21, 6, "0d3a7961ed08e797"),
    "cone-existence-free2cell-ids+v": (6, 3, "34d60c7a7254de5f"),
}


@pytest.mark.parametrize("case", sorted(CONE_CASES))
def test_cone_search_ticks_and_results_are_pinned(case):
    meter = Meter()
    rows = CONE_CASES[case](meter)
    assert (meter.count, len(rows), digest(rows)) == CONE_EXPECTED[case]


# The bilimit search on a budget one tick short of its pinned total is
# refused, and on exactly that budget answers: where the budget runs out
# stays where it was.


@pytest.mark.parametrize("name", ["chain8", "grid3x3"])
def test_the_bilimit_search_needs_exactly_its_pinned_budget(name):
    total = CONE_EXPECTED[f"bilimit-cones-{name}"][0]
    search = CONE_CASES[f"bilimit-cones-{name}"]
    with pytest.raises(SizeLimitExceeded):
        search(Meter(limit=total - 1))
    meter = Meter(limit=total)
    assert len(search(meter)) == CONE_EXPECTED[f"bilimit-cones-{name}"][1]
    assert meter.count == total


# Left exactness of the benchmark's exactness inputs: Δ1, the bottom
# representable and Δ of the discrete pair, over the cones the search finds
# in the six bases the benchmark asks about.  Each case records the ticks of
# ``check_left_exact`` alone, on a fresh meter, its verdict and one digest of
# its per-shape answers, in order.


def left_exact_inputs(a) -> dict:
    return {"one": constant_diagram(a, terminal_category()),
            "repr-bottom": representable(a, sorted(a.objects)[0]),
            "pair": constant_diagram(a, discrete_category(["x", "y"]))}


LEFT_EXACT_BASES = {"chain2": lambda: chain_2cat(2), "chain4": lambda: chain_2cat(4),
                    "chain8": lambda: chain_2cat(8), "diamond": diamond_2cat,
                    "grid2x2": lambda: grid_2cat(2, 2), "grid3x3": lambda: grid_2cat(3, 3)}

# (ticks, verdict, number of shapes, digest of the per-shape answers)
LEFT_EXACT_EXPECTED = {
    "chain2-one": (42, True, 14, "a21de52c3e065ce2"),
    "chain2-pair": (115, False, 14, "f2333f708a65a570"),
    "chain2-repr-bottom": (42, True, 14, "a21de52c3e065ce2"),
    "chain4-one": (141, True, 47, "cc0bce45b004c416"),
    "chain4-pair": (403, False, 47, "e7baebee8be9b3e6"),
    "chain4-repr-bottom": (141, True, 47, "cc0bce45b004c416"),
    "chain8-one": (519, True, 173, "7155cdd2c27ac78a"),
    "chain8-pair": (1507, False, 173, "d6827ddacf097982"),
    "chain8-repr-bottom": (519, True, 173, "7155cdd2c27ac78a"),
    "diamond-one": (132, True, 44, "c5c724cbf5d422b6"),
    "diamond-pair": (379, False, 44, "c5355a029d34c5c4"),
    "diamond-repr-bottom": (42, True, 44, "c5c724cbf5d422b6"),
    "grid2x2-one": (132, True, 44, "e25e350c75b545f8"),
    "grid2x2-pair": (379, False, 44, "c86800d1c1fba13e"),
    "grid2x2-repr-bottom": (132, True, 44, "e25e350c75b545f8"),
    "grid3x3-one": (570, True, 190, "3e48fadd31821c57"),
    "grid3x3-pair": (1677, False, 190, "977060f1006ec185"),
    "grid3x3-repr-bottom": (570, True, 190, "3e48fadd31821c57"),
}


@pytest.mark.parametrize("case", sorted(LEFT_EXACT_EXPECTED))
def test_left_exactness_ticks_and_answers_are_pinned(case):
    name, label = case.split("-", 1)
    a = LEFT_EXACT_BASES[name]()
    cones = generate_bilimit_cones(a)
    meter = Meter()
    rep = check_left_exact(left_exact_inputs(a)[label], cones, meter)
    assert (meter.count, rep.verdict, len(rep.per_shape), digest(rep.per_shape)) == \
        LEFT_EXACT_EXPECTED[case]


# The generating diagrams of the same bases: per diagram its label, the
# items of its object, 1-cell and 2-cell maps in their order, and its
# marking; (number of diagrams, digest of the rows).
GENERATING_EXPECTED = {
    "chain2": (14, "39165cafa6ccd66f"),
    "chain4": (47, "e0e9ae06e7a8a2ea"),
    "chain8": (173, "a1b5f0ab0b28644f"),
    "diamond": (44, "b60868e1595bf7ce"),
    "grid2x2": (44, "8af8ad405ce094fe"),
    "grid3x3": (190, "5127f9d4bb3ff395"),
}


@pytest.mark.parametrize("name", sorted(LEFT_EXACT_BASES))
def test_generating_diagrams_are_pinned(name):
    rows = [(label, list(D.obj_map.items()), list(D.map1.items()), list(D.map2.items()),
             sorted(marked))
            for label, D, marked in generating_diagrams(LEFT_EXACT_BASES[name]())]
    assert (len(rows), digest(rows)) == GENERATING_EXPECTED[name]


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


# Coends of W ⊗ P, (A, B) ↦ W(A) × P(B) on the product of the base's 1-cell
# dual with the base, in every flavour, the σ one marking the base's first
# non-identity 1-cell: (ticks, status, objects, arrows, composable pairs,
# shape digest).  The shape digest holds the object names but not the arrow
# names, which spell words in the presentation's generators.
def coend_cases() -> dict:
    out = {}
    for bname, base, factors in (("arrow", arrow_2cat(), arrow_tensor_factors()),
                                 ("chain3", chain3_2cat(),
                                  tensor_factors(chain3_2cat(), "ab"))):
        first = sorted(set(base.all_one_cells()) - set(base.id1.values()))[0]
        for name, (W, P) in factors.items():
            for fname, flavor in (("s", STRICT), ("l", LAX), ("p", PSEUDO),
                                  ("sigma", sigma_flavor({first}))):
                out[f"{bname}/{name}/{fname}"] = (external_product(W, P), base, flavor)
    return out


COEND_CASES = coend_cases()

COEND_EXPECTED = {
    "arrow/w_arrow/collapse/l": (16, 'finite', 4, 10, 20, 'b331da13bd149238'),
    "arrow/w_arrow/collapse/p": (81, 'finite', 4, 16, 64, '91d95671e1ffd106'),
    "arrow/w_arrow/collapse/s": (7, 'finite', 1, 1, 1, '5b7be2e036263b66'),
    "arrow/w_arrow/collapse/sigma": (81, 'finite', 4, 16, 64, '91d95671e1ffd106'),
    "arrow/w_arrow/pick0/l": (15, 'finite', 5, 12, 22, '89fed9ae4ded28a9'),
    "arrow/w_arrow/pick0/p": (45, 'finite', 5, 18, 58, 'a5eea496dcbfad98'),
    "arrow/w_arrow/pick0/s": (10, 'finite', 3, 6, 10, '281ad69722080b6e'),
    "arrow/w_arrow/pick0/sigma": (45, 'finite', 5, 18, 58, 'a5eea496dcbfad98'),
    "arrow/w_one/collapse/l": (7, 'finite', 3, 6, 10, 'cd97a8f08d870dab'),
    "arrow/w_one/collapse/p": (24, 'finite', 3, 9, 27, '787e90024aebbab8'),
    "arrow/w_one/collapse/s": (2, 'finite', 1, 1, 1, '025548c7a47963a8'),
    "arrow/w_one/collapse/sigma": (24, 'finite', 3, 9, 27, '787e90024aebbab8'),
    "arrow/w_one/pick0/l": (5, 'finite', 3, 5, 7, '1449125f11040545'),
    "arrow/w_one/pick0/p": (11, 'finite', 3, 7, 15, '7aed137cd9e4ef4f'),
    "arrow/w_one/pick0/s": (3, 'finite', 2, 3, 4, '40201f0c5b660fec'),
    "arrow/w_one/pick0/sigma": (11, 'finite', 3, 7, 15, '7aed137cd9e4ef4f'),
    "chain3/one/arrow/l": (25, 'finite', 6, 18, 40, 'c04b97c522d3d3e4'),
    "chain3/one/arrow/p": (121, 'finite', 6, 27, 108, '90f9b4dcf6b4f0c2'),
    "chain3/one/arrow/s": (6, 'finite', 2, 3, 4, 'bc6a790a8a7e408f'),
    "chain3/one/arrow/sigma": (49, 'finite', 6, 21, 60, 'f6bb26cc019f4fa2'),
    "chain3/one/repra/l": (7, 'finite', 3, 6, 10, '7b2cb2e68f3b9b7e'),
    "chain3/one/repra/p": (35, 'finite', 3, 9, 27, '8d05124f01f97077'),
    "chain3/one/repra/s": (1, 'finite', 1, 1, 1, 'f4016ba5c068be30'),
    "chain3/one/repra/sigma": (14, 'finite', 3, 7, 15, 'c796576dd5c12450'),
    "chain3/one/reprb/l": (3, 'finite', 2, 3, 4, '0fed690922c5ef06'),
    "chain3/one/reprb/p": (8, 'finite', 2, 4, 8, '6c8df0c443c75dda'),
    "chain3/one/reprb/s": (1, 'finite', 1, 1, 1, '011b369e8039edf3'),
    "chain3/one/reprb/sigma": (3, 'finite', 2, 3, 4, '0fed690922c5ef06'),
    "chain3/repra/arrow/l": (3, 'finite', 2, 3, 4, '7f624d7ad205ec94'),
    "chain3/repra/arrow/p": (3, 'finite', 2, 3, 4, '7f624d7ad205ec94'),
    "chain3/repra/arrow/s": (3, 'finite', 2, 3, 4, '7f624d7ad205ec94'),
    "chain3/repra/arrow/sigma": (3, 'finite', 2, 3, 4, '7f624d7ad205ec94'),
    "chain3/repra/repra/l": (1, 'finite', 1, 1, 1, '1297728d7fafd852'),
    "chain3/repra/repra/p": (1, 'finite', 1, 1, 1, '1297728d7fafd852'),
    "chain3/repra/repra/s": (1, 'finite', 1, 1, 1, '1297728d7fafd852'),
    "chain3/repra/repra/sigma": (1, 'finite', 1, 1, 1, '1297728d7fafd852'),
    "chain3/repra/reprb/l": (0, 'finite', 0, 0, 0, '068ba53caf4bb89b'),
    "chain3/repra/reprb/p": (0, 'finite', 0, 0, 0, '068ba53caf4bb89b'),
    "chain3/repra/reprb/s": (0, 'finite', 0, 0, 0, '068ba53caf4bb89b'),
    "chain3/repra/reprb/sigma": (0, 'finite', 0, 0, 0, '068ba53caf4bb89b'),
    "chain3/reprb/arrow/l": (10, 'finite', 4, 9, 16, '421a83ddf3fc3e8c'),
    "chain3/reprb/arrow/p": (27, 'finite', 4, 12, 32, 'a74cf829d090ae7c'),
    "chain3/reprb/arrow/s": (4, 'finite', 2, 3, 4, '329ff76e16ea0af0'),
    "chain3/reprb/arrow/sigma": (27, 'finite', 4, 12, 32, 'a74cf829d090ae7c'),
    "chain3/reprb/repra/l": (3, 'finite', 2, 3, 4, 'cedec412c9f96657'),
    "chain3/reprb/repra/p": (8, 'finite', 2, 4, 8, '12b67307febdc156'),
    "chain3/reprb/repra/s": (1, 'finite', 1, 1, 1, '24e4ca23cdb493a2'),
    "chain3/reprb/repra/sigma": (8, 'finite', 2, 4, 8, '12b67307febdc156'),
    "chain3/reprb/reprb/l": (1, 'finite', 1, 1, 1, '1cf40e8a069604e6'),
    "chain3/reprb/reprb/p": (1, 'finite', 1, 1, 1, '1cf40e8a069604e6'),
    "chain3/reprb/reprb/s": (1, 'finite', 1, 1, 1, '1cf40e8a069604e6'),
    "chain3/reprb/reprb/sigma": (1, 'finite', 1, 1, 1, '1cf40e8a069604e6'),
}


@pytest.mark.parametrize("case", sorted(COEND_CASES))
def test_coend_ticks_and_realizations_are_pinned(case):
    T, base, flavor = COEND_CASES[case]
    meter = Meter()
    out = coend_eps(T, base, flavor, meter=meter)
    R = out.realization
    assert (meter.count, out.status, len(R.objects), len(R.arrows), len(R.compose),
            shape_digest(R)) == COEND_EXPECTED[case]


# The 2-category of elements, the dual construction and the pseudo one over
# the flat reader's diagrams and the pseudo fixtures: (ticks, digest of the
# objects, each hom's table digest, the identity 1-cells, both horizontal
# composition tables, the cartesian 1-cells and the projection), or the
# refusal with the ticks spent before it.
def elements_result(build, P):
    def run(m):
        try:
            el = build(P, m)
        except PreconditionFailed as e:
            return ("refused", str(e))
        c, pr = el.cat, el.projection
        return (c.objects, [(pair, table_digest(h)) for pair, h in sorted(c.hom.items())],
                sorted(c.id1.items()), sorted(c.hcomp1.items()),
                sorted(c.hcomp2.items()), sorted(el.cart.arrows),
                sorted(pr.obj_map.items()), sorted(pr.map1.items()),
                sorted(pr.map2.items()))
    return run


def elements_cases() -> dict:
    cases = {}
    for name, P in FLAT_READER_DIAGRAMS.items():
        cases[f"elements-{name}"] = elements_result(elements_of, P)
        cases[f"gamma-{name}"] = elements_result(gamma_dual, P)
    for name, P in (("pseudo_swap", pseudo_swap()), ("pseudo_z2", pseudo_z2()),
                    ("pseudo_not_flat", pseudo_not_flat())):
        cases[f"pseudo-{name}"] = elements_result(elements_of_pseudo, P)
    return cases


ELEMENTS_CASES = elements_cases()

ELEMENTS_EXPECTED = {
    "elements-chain1/arrow": (6, "aa64ff3e35cbea25"),
    "elements-chain1/one": (2, "76469e5d5faadb4d"),
    "elements-chain1/pair": (4, "1e3b35c6f3d2325d"),
    "elements-chain1/reprc0": (2, "44532b61fc1c4aa9"),
    "elements-chain2/arrow": (18, "2155abc7820346a4"),
    "elements-chain2/one": (6, "2fbedc07b0948fc2"),
    "elements-chain2/pair": (12, "96f5df49eebb9818"),
    "elements-chain2/reprc0": (6, "89635793124dbfcf"),
    "elements-chain2/reprc1": (2, "4054af166cb6cdbe"),
    "elements-chain4/arrow": (60, "50c5d70830c300c3"),
    "elements-chain4/one": (20, "2f82ee5f4b789de9"),
    "elements-chain4/pair": (40, "56dc98466d148181"),
    "elements-chain4/reprc0": (20, "93d3a642d797d656"),
    "elements-chain4/reprc1": (12, "c855ca2a52fb7f69"),
    "elements-chain4/reprc2": (6, "2b2cf23bbb9abb72"),
    "elements-chain4/reprc3": (2, "84168ca77d74da01"),
    "elements-chain6/arrow": (126, "cd90d4abd10d5c15"),
    "elements-chain6/one": (42, "ed81d3272de9cfb5"),
    "elements-chain6/pair": (84, "f4da4a50ee262afd"),
    "elements-chain6/reprc0": (42, "2170f7e2deb93554"),
    "elements-chain6/reprc1": (30, "c1de74f16e02e046"),
    "elements-chain6/reprc2": (20, "dff0ce7b3eb47f66"),
    "elements-chain6/reprc3": (12, "db014059300c5ca1"),
    "elements-chain6/reprc4": (6, "cf3faf56880f5f64"),
    "elements-chain6/reprc5": (2, "af99f0f169426514"),
    "elements-const_discrete_pair.json": (4, "5062b393642163da"),
    "elements-const_terminal.json": (6, "c5c7b8b2d40a519c"),
    "elements-const_terminal_parallel.json": (8, "43c4edd9ed1cedba"),
    "elements-delta_arrow_free2cell": (27, "7b39b86e857204bc"),
    "elements-diagram_chain_to_pp": (32, "9ccff62bc59ea53d"),
    "elements-diagram_collapse": (12, "852444dd3f1bc0bd"),
    "elements-diagram_collapse.json": (12, "852444dd3f1bc0bd"),
    "elements-diagram_on_free2cell": (15, "8604b01861ceab33"),
    "elements-diagram_pick0": (12, "f68f0b2bc1a10e68"),
    "elements-diagram_pick0.json": (12, "f68f0b2bc1a10e68"),
    "elements-diamond/arrow": (54, "a4758ee2cfa3b62e"),
    "elements-diamond/one": (18, "96d7b1a51d4283cb"),
    "elements-diamond/pair": (36, "6716b39821796a20"),
    "elements-diamond/repra": (6, "f03440361c6b6122"),
    "elements-diamond/reprb": (6, "256179da66c54617"),
    "elements-diamond/reprbot": (18, "43c5de01a63142dd"),
    "elements-diamond/reprtop": (2, "7b7817020a179268"),
    "elements-grid2x2/arrow": (54, "b662203bcdba7fdf"),
    "elements-grid2x2/one": (18, "8389cc726b7c8307"),
    "elements-grid2x2/pair": (36, "43f3dd6c482b536c"),
    "elements-grid2x2/reprg0_0": (18, "e1bf2db49db124d7"),
    "elements-grid2x2/reprg0_1": (6, "497eb46ad365d8d6"),
    "elements-grid2x2/reprg1_0": (6, "4005e56c44410bc8"),
    "elements-grid2x2/reprg1_1": (2, "af00514dd990d37d"),
    "elements-grid2x3/arrow": (108, "0181f61b286ad270"),
    "elements-grid2x3/one": (36, "a8e731dec196bae1"),
    "elements-grid2x3/pair": (72, "92f3c137226bf215"),
    "elements-grid2x3/reprg0_0": (36, "c57dfdb43b596912"),
    "elements-grid2x3/reprg0_1": (18, "98aa9843b8733fd1"),
    "elements-grid2x3/reprg0_2": (6, "2db3e896ddacad16"),
    "elements-grid2x3/reprg1_0": (12, "cab3e0d829b967b1"),
    "elements-grid2x3/reprg1_1": (6, "2415479ff7a2b5ee"),
    "elements-grid2x3/reprg1_2": (2, "7adb1bedd851100f"),
    "elements-parallel0/arrow": (24, "7ac62977bb53bc3b"),
    "elements-parallel0/co/arrow": (24, "7ac62977bb53bc3b"),
    "elements-parallel0/co/one": (8, "43c4edd9ed1cedba"),
    "elements-parallel0/co/pair": (16, "c4a7bbd6690da098"),
    "elements-parallel0/co/repra": (10, "4365aafed2c20369"),
    "elements-parallel0/co/reprb": (2, "3de30ba22a6553c2"),
    "elements-parallel0/coop/arrow": (24, "94fda3a3ac50c6bd"),
    "elements-parallel0/coop/one": (8, "7f95eca6cc36f749"),
    "elements-parallel0/coop/pair": (16, "9060c46c37fbaaa7"),
    "elements-parallel0/coop/repra": (2, "569fe69f28a8f6c5"),
    "elements-parallel0/coop/reprb": (10, "6fdf3d7faa297c6a"),
    "elements-parallel0/one": (8, "43c4edd9ed1cedba"),
    "elements-parallel0/op/arrow": (24, "94fda3a3ac50c6bd"),
    "elements-parallel0/op/one": (8, "7f95eca6cc36f749"),
    "elements-parallel0/op/pair": (16, "9060c46c37fbaaa7"),
    "elements-parallel0/op/repra": (2, "569fe69f28a8f6c5"),
    "elements-parallel0/op/reprb": (10, "6fdf3d7faa297c6a"),
    "elements-parallel0/pair": (16, "c4a7bbd6690da098"),
    "elements-parallel0/repra": (10, "4365aafed2c20369"),
    "elements-parallel0/reprb": (2, "3de30ba22a6553c2"),
    "elements-parallel1/arrow": (27, "7b39b86e857204bc"),
    "elements-parallel1/co/arrow": (27, "2a0cf8836e6f2d42"),
    "elements-parallel1/co/one": (9, "6a385299346650e4"),
    "elements-parallel1/co/pair": (18, "8d1745fd18d37009"),
    "elements-parallel1/co/repra": (15, "5e21a52b0751feeb"),
    "elements-parallel1/co/reprb": (2, "3de30ba22a6553c2"),
    "elements-parallel1/coop/arrow": (27, "01031aa01569f950"),
    "elements-parallel1/coop/one": (9, "129205a28c24637e"),
    "elements-parallel1/coop/pair": (18, "28c8e45d06c1cbd1"),
    "elements-parallel1/coop/repra": (2, "569fe69f28a8f6c5"),
    "elements-parallel1/coop/reprb": (15, "52a5a21ea4cd5355"),
    "elements-parallel1/one": (9, "0a27fb9fbc6ea32e"),
    "elements-parallel1/op/arrow": (27, "f5f9409798e4d7f4"),
    "elements-parallel1/op/one": (9, "ebc88a522111fadf"),
    "elements-parallel1/op/pair": (18, "93750b49b27a5f1a"),
    "elements-parallel1/op/repra": (2, "569fe69f28a8f6c5"),
    "elements-parallel1/op/reprb": (15, "97555fde0e24ad57"),
    "elements-parallel1/pair": (18, "1e8c6952bee94abe"),
    "elements-parallel1/repra": (15, "321e48174cc24d64"),
    "elements-parallel1/reprb": (2, "3de30ba22a6553c2"),
    "elements-parallel2/arrow": (30, "ed29a97d57e9069a"),
    "elements-parallel2/co/arrow": (30, "87f30e900d4eab23"),
    "elements-parallel2/co/one": (10, "753ad3676b2d55da"),
    "elements-parallel2/co/pair": (20, "2c08a1a5592c8b71"),
    "elements-parallel2/co/repra": (26, "5073b15e03058289"),
    "elements-parallel2/co/reprb": (2, "3de30ba22a6553c2"),
    "elements-parallel2/coop/arrow": (30, "377ef3a8cefd6153"),
    "elements-parallel2/coop/one": (10, "c2df15974068aed2"),
    "elements-parallel2/coop/pair": (20, "6a7cc52dcb8d782b"),
    "elements-parallel2/coop/repra": (2, "569fe69f28a8f6c5"),
    "elements-parallel2/coop/reprb": (26, "c363215fbbdf0959"),
    "elements-parallel2/one": (10, "b5bb9b05b07cc881"),
    "elements-parallel2/op/arrow": (30, "65e77d41817b5873"),
    "elements-parallel2/op/one": (10, "4b948be1262a26a0"),
    "elements-parallel2/op/pair": (20, "5199693213688da9"),
    "elements-parallel2/op/repra": (2, "569fe69f28a8f6c5"),
    "elements-parallel2/op/reprb": (26, "e66ef383e3498ac1"),
    "elements-parallel2/pair": (20, "faf3538e2b694581"),
    "elements-parallel2/repra": (26, "f7228a9ad2bd93cc"),
    "elements-parallel2/reprb": (2, "3de30ba22a6553c2"),
    "elements-parallel_diagram.json": (15, "8604b01861ceab33"),
    "elements-repr_diamond_a.json": (6, "f03440361c6b6122"),
    "elements-representable_0.json": (6, "3fcbc4edcf7be805"),
    "elements-representable_diamond_top.json": (2, "7b7817020a179268"),
    "elements-retract/arrow": (33, "9f37004b0180a91b"),
    "elements-retract/co/arrow": (33, "d710731eddc2a637"),
    "elements-retract/co/one": (11, "afc5ba0b7513d849"),
    "elements-retract/co/pair": (22, "d74980cf906eb685"),
    "elements-retract/co/repra": (37, "6d8ef85dd18dcf34"),
    "elements-retract/co/reprb": (2, "3de30ba22a6553c2"),
    "elements-retract/one": (11, "0ac88c0f373813f2"),
    "elements-retract/pair": (22, "3f9402cac2a10af0"),
    "elements-retract/repra": (37, "73acd3cf7ec3fed8"),
    "elements-retract/reprb": (2, "3de30ba22a6553c2"),
    "elements-twice_stepped": (16, "fe2cd315893973d6"),
    "elements-weight_constant_terminal_op": (6, "350e077a63ef6467"),
    "elements-weight_on_op_arrow": (12, "a38e400cea7ed3fa"),
    "elements-weight_on_op_arrow.json": (12, "a38e400cea7ed3fa"),
    "gamma-chain1/arrow": (6, "fbed4c28cd649c9e"),
    "gamma-chain1/one": (2, "76469e5d5faadb4d"),
    "gamma-chain1/pair": (4, "1e3b35c6f3d2325d"),
    "gamma-chain1/reprc0": (2, "44532b61fc1c4aa9"),
    "gamma-chain2/arrow": (18, "194429fd782d7199"),
    "gamma-chain2/one": (6, "2fbedc07b0948fc2"),
    "gamma-chain2/pair": (12, "96f5df49eebb9818"),
    "gamma-chain2/reprc0": (6, "89635793124dbfcf"),
    "gamma-chain2/reprc1": (2, "4054af166cb6cdbe"),
    "gamma-chain4/arrow": (60, "9f4bb4b3c6d1345c"),
    "gamma-chain4/one": (20, "2f82ee5f4b789de9"),
    "gamma-chain4/pair": (40, "56dc98466d148181"),
    "gamma-chain4/reprc0": (20, "93d3a642d797d656"),
    "gamma-chain4/reprc1": (12, "c855ca2a52fb7f69"),
    "gamma-chain4/reprc2": (6, "2b2cf23bbb9abb72"),
    "gamma-chain4/reprc3": (2, "84168ca77d74da01"),
    "gamma-chain6/arrow": (126, "8051aba29a76b3ad"),
    "gamma-chain6/one": (42, "ed81d3272de9cfb5"),
    "gamma-chain6/pair": (84, "f4da4a50ee262afd"),
    "gamma-chain6/reprc0": (42, "2170f7e2deb93554"),
    "gamma-chain6/reprc1": (30, "c1de74f16e02e046"),
    "gamma-chain6/reprc2": (20, "dff0ce7b3eb47f66"),
    "gamma-chain6/reprc3": (12, "db014059300c5ca1"),
    "gamma-chain6/reprc4": (6, "cf3faf56880f5f64"),
    "gamma-chain6/reprc5": (2, "af99f0f169426514"),
    "gamma-const_discrete_pair.json": (4, "5062b393642163da"),
    "gamma-const_terminal.json": (6, "c5c7b8b2d40a519c"),
    "gamma-const_terminal_parallel.json": (8, "43c4edd9ed1cedba"),
    "gamma-delta_arrow_free2cell": (27, "5a0144127f1da45c"),
    "gamma-diagram_chain_to_pp": (20, "b176136702a10245"),
    "gamma-diagram_collapse": (12, "42f4d49ddd9c4bee"),
    "gamma-diagram_collapse.json": (12, "42f4d49ddd9c4bee"),
    "gamma-diagram_on_free2cell": (15, "6c20dd2d3ca3d9d3"),
    "gamma-diagram_pick0": (10, "88fee6886ae58d7f"),
    "gamma-diagram_pick0.json": (10, "88fee6886ae58d7f"),
    "gamma-diamond/arrow": (54, "b5d299b5b548bd88"),
    "gamma-diamond/one": (18, "96d7b1a51d4283cb"),
    "gamma-diamond/pair": (36, "6716b39821796a20"),
    "gamma-diamond/repra": (6, "f03440361c6b6122"),
    "gamma-diamond/reprb": (6, "256179da66c54617"),
    "gamma-diamond/reprbot": (18, "43c5de01a63142dd"),
    "gamma-diamond/reprtop": (2, "7b7817020a179268"),
    "gamma-grid2x2/arrow": (54, "90536bda737eac24"),
    "gamma-grid2x2/one": (18, "8389cc726b7c8307"),
    "gamma-grid2x2/pair": (36, "43f3dd6c482b536c"),
    "gamma-grid2x2/reprg0_0": (18, "e1bf2db49db124d7"),
    "gamma-grid2x2/reprg0_1": (6, "497eb46ad365d8d6"),
    "gamma-grid2x2/reprg1_0": (6, "4005e56c44410bc8"),
    "gamma-grid2x2/reprg1_1": (2, "af00514dd990d37d"),
    "gamma-grid2x3/arrow": (108, "e207e2a81cfbb579"),
    "gamma-grid2x3/one": (36, "a8e731dec196bae1"),
    "gamma-grid2x3/pair": (72, "92f3c137226bf215"),
    "gamma-grid2x3/reprg0_0": (36, "c57dfdb43b596912"),
    "gamma-grid2x3/reprg0_1": (18, "98aa9843b8733fd1"),
    "gamma-grid2x3/reprg0_2": (6, "2db3e896ddacad16"),
    "gamma-grid2x3/reprg1_0": (12, "cab3e0d829b967b1"),
    "gamma-grid2x3/reprg1_1": (6, "2415479ff7a2b5ee"),
    "gamma-grid2x3/reprg1_2": (2, "7adb1bedd851100f"),
    "gamma-parallel0/arrow": (24, "8a423443975906c9"),
    "gamma-parallel0/co/arrow": (24, "8a423443975906c9"),
    "gamma-parallel0/co/one": (8, "43c4edd9ed1cedba"),
    "gamma-parallel0/co/pair": (16, "c4a7bbd6690da098"),
    "gamma-parallel0/co/repra": (10, "4365aafed2c20369"),
    "gamma-parallel0/co/reprb": (2, "3de30ba22a6553c2"),
    "gamma-parallel0/coop/arrow": (24, "0db5b059da8138fe"),
    "gamma-parallel0/coop/one": (8, "7f95eca6cc36f749"),
    "gamma-parallel0/coop/pair": (16, "9060c46c37fbaaa7"),
    "gamma-parallel0/coop/repra": (2, "569fe69f28a8f6c5"),
    "gamma-parallel0/coop/reprb": (10, "6fdf3d7faa297c6a"),
    "gamma-parallel0/one": (8, "43c4edd9ed1cedba"),
    "gamma-parallel0/op/arrow": (24, "0db5b059da8138fe"),
    "gamma-parallel0/op/one": (8, "7f95eca6cc36f749"),
    "gamma-parallel0/op/pair": (16, "9060c46c37fbaaa7"),
    "gamma-parallel0/op/repra": (2, "569fe69f28a8f6c5"),
    "gamma-parallel0/op/reprb": (10, "6fdf3d7faa297c6a"),
    "gamma-parallel0/pair": (16, "c4a7bbd6690da098"),
    "gamma-parallel0/repra": (10, "4365aafed2c20369"),
    "gamma-parallel0/reprb": (2, "3de30ba22a6553c2"),
    "gamma-parallel1/arrow": (27, "5a0144127f1da45c"),
    "gamma-parallel1/co/arrow": (27, "9b328d074a7b7588"),
    "gamma-parallel1/co/one": (9, "6a385299346650e4"),
    "gamma-parallel1/co/pair": (18, "8d1745fd18d37009"),
    "gamma-parallel1/co/repra": (15, "80ee8a27e3bb2e06"),
    "gamma-parallel1/co/reprb": (2, "3de30ba22a6553c2"),
    "gamma-parallel1/coop/arrow": (27, "fcf893dec4fbfbe0"),
    "gamma-parallel1/coop/one": (9, "129205a28c24637e"),
    "gamma-parallel1/coop/pair": (18, "28c8e45d06c1cbd1"),
    "gamma-parallel1/coop/repra": (2, "569fe69f28a8f6c5"),
    "gamma-parallel1/coop/reprb": (15, "6f3dcc9e23d5ccd5"),
    "gamma-parallel1/one": (9, "0a27fb9fbc6ea32e"),
    "gamma-parallel1/op/arrow": (27, "f54ee11000a93625"),
    "gamma-parallel1/op/one": (9, "ebc88a522111fadf"),
    "gamma-parallel1/op/pair": (18, "93750b49b27a5f1a"),
    "gamma-parallel1/op/repra": (2, "569fe69f28a8f6c5"),
    "gamma-parallel1/op/reprb": (15, "d1d5c3c3f93e3085"),
    "gamma-parallel1/pair": (18, "1e8c6952bee94abe"),
    "gamma-parallel1/repra": (15, "9474a6ca64eb1376"),
    "gamma-parallel1/reprb": (2, "3de30ba22a6553c2"),
    "gamma-parallel2/arrow": (30, "9c289db905de52a8"),
    "gamma-parallel2/co/arrow": (30, "238d8ee4830b61a3"),
    "gamma-parallel2/co/one": (10, "753ad3676b2d55da"),
    "gamma-parallel2/co/pair": (20, "2c08a1a5592c8b71"),
    "gamma-parallel2/co/repra": (26, "31183ea39d7f9bec"),
    "gamma-parallel2/co/reprb": (2, "3de30ba22a6553c2"),
    "gamma-parallel2/coop/arrow": (30, "15f296269c28a1e9"),
    "gamma-parallel2/coop/one": (10, "c2df15974068aed2"),
    "gamma-parallel2/coop/pair": (20, "6a7cc52dcb8d782b"),
    "gamma-parallel2/coop/repra": (2, "569fe69f28a8f6c5"),
    "gamma-parallel2/coop/reprb": (26, "218f961547b79e06"),
    "gamma-parallel2/one": (10, "b5bb9b05b07cc881"),
    "gamma-parallel2/op/arrow": (30, "df551be14d955683"),
    "gamma-parallel2/op/one": (10, "4b948be1262a26a0"),
    "gamma-parallel2/op/pair": (20, "5199693213688da9"),
    "gamma-parallel2/op/repra": (2, "569fe69f28a8f6c5"),
    "gamma-parallel2/op/reprb": (26, "55ab65e5baa30b78"),
    "gamma-parallel2/pair": (20, "faf3538e2b694581"),
    "gamma-parallel2/repra": (26, "67eb8d2c157c7fad"),
    "gamma-parallel2/reprb": (2, "3de30ba22a6553c2"),
    "gamma-parallel_diagram.json": (15, "6c20dd2d3ca3d9d3"),
    "gamma-repr_diamond_a.json": (6, "f03440361c6b6122"),
    "gamma-representable_0.json": (6, "3fcbc4edcf7be805"),
    "gamma-representable_diamond_top.json": (2, "7b7817020a179268"),
    "gamma-retract/arrow": (33, "8f57680db8e13548"),
    "gamma-retract/co/arrow": (33, "eaad847536640633"),
    "gamma-retract/co/one": (11, "afc5ba0b7513d849"),
    "gamma-retract/co/pair": (22, "d74980cf906eb685"),
    "gamma-retract/co/repra": (37, "9e7b0955901ad6c5"),
    "gamma-retract/co/reprb": (2, "3de30ba22a6553c2"),
    "gamma-retract/one": (11, "0ac88c0f373813f2"),
    "gamma-retract/pair": (22, "3f9402cac2a10af0"),
    "gamma-retract/repra": (37, "d105380543da85d4"),
    "gamma-retract/reprb": (2, "3de30ba22a6553c2"),
    "gamma-twice_stepped": (16, "dab06cea4b1759f6"),
    "gamma-weight_constant_terminal_op": (6, "350e077a63ef6467"),
    "gamma-weight_on_op_arrow": (12, "075934bea0e28113"),
    "gamma-weight_on_op_arrow.json": (12, "075934bea0e28113"),
    "pseudo-pseudo_not_flat": (12, "d6c010482028dd92"),
    "pseudo-pseudo_swap": (24, "7846e950a59235ae"),
    "pseudo-pseudo_z2": (18, "7c16a158054ac667"),
}


@pytest.mark.parametrize("case", sorted(ELEMENTS_CASES))
def test_elements_ticks_and_tables_are_pinned(case):
    meter = Meter()
    result = ELEMENTS_CASES[case](meter)
    assert (meter.count, digest(result)) == ELEMENTS_EXPECTED[case]


# ---------------------------------------------------------------------------
# Strictification, pinned on the flat reader's diagrams and the pseudo
# fixtures: (ticks, digest of P̃, η and ε as documents, digest of the
# insertion order of every table they hold), or the refusal with the
# ticks spent before it.


def insertion_orders(tilde, eta, eps) -> tuple:
    cats = [(B, list(c.objects), list(c.arrows), list(c.identity), list(c.compose))
            for B, c in tilde.on_obj.items()]
    maps = [(g, list(F.obj_map), list(F.arr_map)) for g, F in tilde.on_1.items()]
    cells = [(x, list(n.components)) for x, n in tilde.on_2.items()]
    transfs = [([(A, list(F.obj_map), list(F.arr_map)) for A, F in t.components.items()],
                [(f, list(n.components)) for f, n in t.structural.items()])
               for t in (eta, eps)]
    return cats, maps, cells, transfs


def strictify_result(P):
    def run(m):
        try:
            tilde, eta, eps = strictify(P, m)
        except PreconditionFailed as e:
            return ("refused", str(e))
        docs = (diagram_to_doc(tilde), transformation_to_doc(eta),
                transformation_to_doc(eps))
        return digest(docs), digest(insertion_orders(tilde, eta, eps))
    return run


def strictify_cases() -> dict:
    cases = {f"strictify-{name}": strictify_result(P)
             for name, P in FLAT_READER_DIAGRAMS.items()}
    for name, P in (("pseudo_swap", pseudo_swap()), ("pseudo_z2", pseudo_z2()),
                    ("pseudo_not_flat", pseudo_not_flat())):
        cases[f"strictify-{name}"] = strictify_result(P)
    return cases


STRICTIFY_CASES = strictify_cases()

STRICTIFY_EXPECTED = {
    "strictify-chain1/arrow": (3, ("c8af87a544125416", "6f230d3b6f9ec843")),
    "strictify-chain1/one": (1, ("3f26dd303cfefe79", "1f6f9aba1eb4c03c")),
    "strictify-chain1/pair": (2, ("697f2a51fdf46618", "0ac29b79ed701b70")),
    "strictify-chain1/reprc0": (1, ("390411bbf8566a7c", "81d6850dbba1616a")),
    "strictify-chain2/arrow": (15, ("ba86dab277f7112e", "03e7b7808e4500e5")),
    "strictify-chain2/one": (5, ("4bd1b28fa321b389", "063bcf43449261e1")),
    "strictify-chain2/pair": (10, ("e868e191a7ee0a0d", "704bf0c6e3a902f2")),
    "strictify-chain2/reprc0": (5, ("ad4ed239172881c3", "392bfef8e5268a5b")),
    "strictify-chain2/reprc1": (1, ("2615025761689633", "a35708ed75d1acab")),
    "strictify-chain4/arrow": (90, ("9dd35069c5e04c9a", "2528f726827d1e19")),
    "strictify-chain4/one": (30, ("0da5357ad29c4b22", "b7929a3bede29d63")),
    "strictify-chain4/pair": (60, ("1451fa668f6449ce", "1cd314362264edb0")),
    "strictify-chain4/reprc0": (30, ("ad1910db1d7e00da", "230569d731bee025")),
    "strictify-chain4/reprc1": (14, ("62e9b02d03a152e9", "876d5bd93930e8f9")),
    "strictify-chain4/reprc2": (5, ("7c7f75e4d7697f74", "556f1612e16e00bf")),
    "strictify-chain4/reprc3": (1, ("cc8076e108b11c9a", "fc817a1e50e5ace2")),
    "strictify-chain6/arrow": (273, ("e9f0a8525df5e60b", "8a40bf8380ce75d9")),
    "strictify-chain6/one": (91, ("036b31d5468646d6", "cf0e29639da8f85a")),
    "strictify-chain6/pair": (182, ("35272aeffc340ff4", "31530d148106d962")),
    "strictify-chain6/reprc0": (91, ("b7390c2c56a92ae4", "d8d1ee8ca29d1288")),
    "strictify-chain6/reprc1": (55, ("693fe2ad09586596", "1b4010fd9b3e44e6")),
    "strictify-chain6/reprc2": (30, ("ca66c6e01b1f4ba4", "93154e7ed6580b08")),
    "strictify-chain6/reprc3": (14, ("a5c98f1813d68723", "165942690f30caed")),
    "strictify-chain6/reprc4": (5, ("ef46ea7dae2b84c9", "71ac706a2401dd85")),
    "strictify-chain6/reprc5": (1, ("fbc7580764590f81", "0c192e324b03260d")),
    "strictify-const_discrete_pair.json": (2, ("acb003989db956ac", "1e8c64324fc2819e")),
    "strictify-const_terminal.json": (5, ("30592c702906ec64", "aed4540655e22cba")),
    "strictify-const_terminal_parallel.json":
        (10, ("55c93f9c283ce618", "acde991c3f78da5c")),
    "strictify-delta_arrow_free2cell": (30, ("7ae29b5666bfba4c", "8419a01c3a96ff65")),
    "strictify-diagram_chain_to_pp": (21, ("749802d73b8a42b1", "c34985fa788d6de8")),
    "strictify-diagram_collapse": (12, ("d039cc55ee5df6e3", "ca02dabac3705feb")),
    "strictify-diagram_collapse.json": (12, ("d039cc55ee5df6e3", "ca02dabac3705feb")),
    "strictify-diagram_on_free2cell": (13, ("9a962d3e5d3d1a30", "a97d6e03a52eee01")),
    "strictify-diagram_pick0": (8, ("a19f1e72b03556f1", "f5b0297bf3d75df4")),
    "strictify-diagram_pick0.json": (8, ("a19f1e72b03556f1", "f5b0297bf3d75df4")),
    "strictify-diamond/arrow": (75, ("a352242130f7c5de", "c7e4fb856e93f065")),
    "strictify-diamond/one": (25, ("bbc8ce12949dec43", "443808d172528980")),
    "strictify-diamond/pair": (50, ("c49eb0c2d5977624", "7d90f47d660063c9")),
    "strictify-diamond/repra": (5, ("41be30fd9c8797c1", "5ff501a1d3483abc")),
    "strictify-diamond/reprb": (5, ("1d159be8aa5fcadf", "6119e23861700d96")),
    "strictify-diamond/reprbot": (25, ("88c2dd9c87d0673d", "79748dc0914a06e8")),
    "strictify-diamond/reprtop": (1, ("7e34c038b14525e4", "8da1aea24472b707")),
    "strictify-grid2x2/arrow": (75, ("d1cbb7d4370b8ac6", "ccd7b040da693c07")),
    "strictify-grid2x2/one": (25, ("9db9079988082480", "15295e9cd2d4e7f0")),
    "strictify-grid2x2/pair": (50, ("3cba67b568c12732", "c6216752983537ee")),
    "strictify-grid2x2/reprg0_0": (25, ("bdc80c20ca581c61", "6298e1ccbd151aaf")),
    "strictify-grid2x2/reprg0_1": (5, ("99ca78062c35a376", "a61e1ecb972885d9")),
    "strictify-grid2x2/reprg1_0": (5, ("234345f1acfcbda2", "9e6e223287723366")),
    "strictify-grid2x2/reprg1_1": (1, ("73ecf935ab1bf3c4", "493b1afecebfe3a5")),
    "strictify-grid2x3/arrow": (210, ("ab2316b4c3fc3a9d", "f8dbe07bae3396c3")),
    "strictify-grid2x3/one": (70, ("93b645496d5ad796", "89c77a1b0334f95a")),
    "strictify-grid2x3/pair": (140, ("02899915353d3f34", "6a5c892229cab8fd")),
    "strictify-grid2x3/reprg0_0": (70, ("9edfb941d48b5e3a", "aed47327d2db849e")),
    "strictify-grid2x3/reprg0_1": (25, ("91e709cba4d0990a", "dcaa0c0b64dbe929")),
    "strictify-grid2x3/reprg0_2": (5, ("0a99a2a792731bef", "71df9388570ee0f9")),
    "strictify-grid2x3/reprg1_0": (14, ("26975986e30fcb4f", "03217a7d053ae184")),
    "strictify-grid2x3/reprg1_1": (5, ("0612b3f8cff3af7e", "f4ae76abe754e964")),
    "strictify-grid2x3/reprg1_2": (1, ("be43fa621de48c6e", "bc05b78118a76ab6")),
    "strictify-parallel0/arrow": (30, ("bdd1c8cd8705b113", "fc434a8e4b83c2f6")),
    "strictify-parallel0/co/arrow": (30, ("bdd1c8cd8705b113", "fc434a8e4b83c2f6")),
    "strictify-parallel0/co/one": (10, ("55c93f9c283ce618", "acde991c3f78da5c")),
    "strictify-parallel0/co/pair": (20, ("2b38ae6ceab406c7", "1dc221bbe6ffadbd")),
    "strictify-parallel0/co/repra": (9, ("6db9710f35f10741", "eb57b72fb23c5f84")),
    "strictify-parallel0/co/reprb": (1, ("be7e047e80ff698f", "27e40c72fd541795")),
    "strictify-parallel0/coop/arrow": (30, ("f34f0856c9aaaf84", "7842cfbf76f5bee1")),
    "strictify-parallel0/coop/one": (10, ("ddd03f51c701fe92", "fe5881c797383538")),
    "strictify-parallel0/coop/pair": (20, ("8d73e0100d36fbc3", "e9a8d56208638e7d")),
    "strictify-parallel0/coop/repra": (1, ("2ea5e050f2eafa7d", "9724cb940ab0e0c8")),
    "strictify-parallel0/coop/reprb": (9, ("1d672b1d4c87ffa0", "8f3777a95cd0abd1")),
    "strictify-parallel0/one": (10, ("55c93f9c283ce618", "acde991c3f78da5c")),
    "strictify-parallel0/op/arrow": (30, ("f34f0856c9aaaf84", "7842cfbf76f5bee1")),
    "strictify-parallel0/op/one": (10, ("ddd03f51c701fe92", "fe5881c797383538")),
    "strictify-parallel0/op/pair": (20, ("8d73e0100d36fbc3", "e9a8d56208638e7d")),
    "strictify-parallel0/op/repra": (1, ("2ea5e050f2eafa7d", "9724cb940ab0e0c8")),
    "strictify-parallel0/op/reprb": (9, ("1d672b1d4c87ffa0", "8f3777a95cd0abd1")),
    "strictify-parallel0/pair": (20, ("2b38ae6ceab406c7", "1dc221bbe6ffadbd")),
    "strictify-parallel0/repra": (9, ("6db9710f35f10741", "eb57b72fb23c5f84")),
    "strictify-parallel0/reprb": (1, ("be7e047e80ff698f", "27e40c72fd541795")),
    "strictify-parallel1/arrow": (30, ("7ae29b5666bfba4c", "8419a01c3a96ff65")),
    "strictify-parallel1/co/arrow": (30, ("6e478271f96d2efa", "8419a01c3a96ff65")),
    "strictify-parallel1/co/one": (10, ("8ab1a57691653bb3", "3efd3e27786bc0ba")),
    "strictify-parallel1/co/pair": (20, ("1a54e096bbab8fe1", "641c4906f336368e")),
    "strictify-parallel1/co/repra": (13, ("5423a18ee0a17383", "760711696e5bd205")),
    "strictify-parallel1/co/reprb": (1, ("643f54188ff9ade1", "cde11fdbe1be66ac")),
    "strictify-parallel1/coop/arrow": (30, ("f89c4e2c0b8e434c", "f03e31af29b60172")),
    "strictify-parallel1/coop/one": (10, ("fd2013b02f55fb42", "0e9551d49415d864")),
    "strictify-parallel1/coop/pair": (20, ("f9f4dc845fe8e363", "cac63d00ffeb6f66")),
    "strictify-parallel1/coop/repra": (1, ("364e87632910a0fc", "482c408912697251")),
    "strictify-parallel1/coop/reprb": (13, ("539e9d701ac52c1d", "0572698a692677ef")),
    "strictify-parallel1/one": (10, ("749607ef33ab1721", "3efd3e27786bc0ba")),
    "strictify-parallel1/op/arrow": (30, ("796168a981e1f7e2", "f03e31af29b60172")),
    "strictify-parallel1/op/one": (10, ("06fbefca6f8fb5e7", "0e9551d49415d864")),
    "strictify-parallel1/op/pair": (20, ("c1c7368b307bd731", "cac63d00ffeb6f66")),
    "strictify-parallel1/op/repra": (1, ("523039fbf9e91d55", "482c408912697251")),
    "strictify-parallel1/op/reprb": (13, ("2707063df367bb86", "01be924e70538355")),
    "strictify-parallel1/pair": (20, ("a98e656812ec1625", "641c4906f336368e")),
    "strictify-parallel1/repra": (13, ("d211d1253e2b3482", "835b507ba70d1933")),
    "strictify-parallel1/reprb": (1, ("fba700de1ac4aeab", "cde11fdbe1be66ac")),
    "strictify-parallel2/arrow": (30, ("e2c26cefef410180", "383fc4de837fb98a")),
    "strictify-parallel2/co/arrow": (30, ("f32f8bebe07ca28e", "383fc4de837fb98a")),
    "strictify-parallel2/co/one": (10, ("92488a2860c1e999", "ff53498f9c6f8b0d")),
    "strictify-parallel2/co/pair": (20, ("0df8b6eb6a4ceeb2", "efc2d717e08660fd")),
    "strictify-parallel2/co/repra": (17, ("66d9e5550943f4a6", "b5d360fdf7978eb8")),
    "strictify-parallel2/co/reprb": (1, ("8922c70a40e9a2e3", "6b7e8fbf1ab5b7e2")),
    "strictify-parallel2/coop/arrow": (30, ("41c31e66dc88f9f7", "314e5df40a823685")),
    "strictify-parallel2/coop/one": (10, ("dd4b349124059873", "e06c2949559f0b7c")),
    "strictify-parallel2/coop/pair": (20, ("fa21d6f189125add", "2ef8578839864c05")),
    "strictify-parallel2/coop/repra": (1, ("9e06090a2383db3f", "eb4e1d1cc71f71cd")),
    "strictify-parallel2/coop/reprb": (17, ("0efb44e35933f94b", "6eb36fd226b24aba")),
    "strictify-parallel2/one": (10, ("04ae954f8dcf329d", "ff53498f9c6f8b0d")),
    "strictify-parallel2/op/arrow": (30, ("e038e7c08b31b8d8", "314e5df40a823685")),
    "strictify-parallel2/op/one": (10, ("0bb9887d6a8787ed", "e06c2949559f0b7c")),
    "strictify-parallel2/op/pair": (20, ("994955a11ad3056a", "2ef8578839864c05")),
    "strictify-parallel2/op/repra": (1, ("c585d5cef9a7eeb4", "eb4e1d1cc71f71cd")),
    "strictify-parallel2/op/reprb": (17, ("81b6fb293c7a5b05", "14671aa81daa94eb")),
    "strictify-parallel2/pair": (20, ("2fd222e6f08518a2", "efc2d717e08660fd")),
    "strictify-parallel2/repra": (17, ("5188eacb209b45fd", "a9dcd37e0a0cfa91")),
    "strictify-parallel2/reprb": (1, ("cf801db7dcd3589f", "6b7e8fbf1ab5b7e2")),
    "strictify-parallel_diagram.json": (13, ("9a962d3e5d3d1a30", "a97d6e03a52eee01")),
    "strictify-pseudo_not_flat": (7, ("a38364293bf72dfd", "181711eed6935a0f")),
    "strictify-pseudo_swap": (20, ("a681a3ee14ee7e33", "1489f4c220f0883d")),
    "strictify-pseudo_z2": (10, ("8005795225633171", "269f0ee82f081ff8")),
    "strictify-repr_diamond_a.json": (5, ("41be30fd9c8797c1", "5ff501a1d3483abc")),
    "strictify-representable_0.json": (5, ("1929d68b2ab57eb6", "92cb484e690e9849")),
    "strictify-representable_diamond_top.json":
        (1, ("7e34c038b14525e4", "8da1aea24472b707")),
    "strictify-retract/arrow": (30, ("bb89591d2139c91b", "07c43a542d935d33")),
    "strictify-retract/co/arrow": (30, ("ab1dc3fdf7e09dab", "07c43a542d935d33")),
    "strictify-retract/co/one": (10, ("230d4ea5170843fd", "6a55e3843e04a44e")),
    "strictify-retract/co/pair": (20, ("842b4374fd85b86c", "aa7127c2c901f980")),
    "strictify-retract/co/repra": (21, ("96a68b1739a593d9", "1e44b64f48bf3e3f")),
    "strictify-retract/co/reprb": (1, ("f1f1682af44fd648", "89827d9c2e8f0a4f")),
    "strictify-retract/one": (10, ("46329865101c3048", "6a55e3843e04a44e")),
    "strictify-retract/pair": (20, ("2d489cfdbb9d9657", "aa7127c2c901f980")),
    "strictify-retract/repra": (21, ("52c5a37d62a07e7d", "591d9519af780f5c")),
    "strictify-retract/reprb": (1, ("0be444364fe3aa7c", "89827d9c2e8f0a4f")),
    "strictify-twice_stepped": (13, ("72e3343b21257b53", "8d5efd93988cc47c")),
    "strictify-weight_constant_terminal_op":
        (5, ("4a2d514955cc4bb2", "70475cb056b4b59b")),
    "strictify-weight_on_op_arrow": (12, ("3e37fc36191507f7", "b4784d48568067bb")),
    "strictify-weight_on_op_arrow.json": (12, ("3e37fc36191507f7", "b4784d48568067bb")),
}


@pytest.mark.parametrize("case", sorted(STRICTIFY_CASES))
def test_strictify_ticks_tables_and_orders_are_pinned(case):
    meter = Meter()
    result = STRICTIFY_CASES[case](meter)
    assert (meter.count, result) == STRICTIFY_EXPECTED[case]
