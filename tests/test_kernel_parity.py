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
from sigmacat.colimits import (bilimit_cat, coend_eps, cones_sigma,
                               conical_sigma_colimit,
                               point_cone_homs, weighted_sigma_colimit,
                               weighted_sigma_limit)
from sigmacat.config import DEFAULT_BUDGET, Meter
from sigmacat.elements import elements_of, elements_of_pseudo, gamma_dual
from sigmacat.errors import PreconditionFailed
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
