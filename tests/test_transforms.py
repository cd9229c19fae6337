"""Transformations, Hom categories, ends, and the axiom checkers.

The mutation tests drive the acceptance requirement that every axiom
checker detects every broken fixture: each mutation flips exactly one
cell and the corresponding axiom must be named in the report.
"""

import pytest

from certificate_reference import end_eps
from dicone_reference import (Dicone, check_dicone, check_dicone_morphism,
                              cotensor_diagram, internal_hom_diagram)
from sigmacat.config import Meter
from sigmacat.fincat import (Functor, NatTransf, arrow_category,
                             find_isomorphism, functor_category,
                             identity_functor, iso_pair_category,
                             terminal_category, validate_category)
from sigmacat.fixtures import (arrow_2cat, diagram_on_free2cell,
                               diagram_pick0, idn, iso_2cat, pseudo_swap,
                               pseudo_z2)
from sigmacat.two_cat import (free_2cell_2cat, op_dual, pair_name,
                              two_cat_product, wide_all, wide_from,
                              wide_identities)
from sigmacat.transforms import (LAX, PSEUDO, STRICT, CatDiagram,
                                 Modification, Transformation,
                                 check_modification, check_transformation,
                                 constant_diagram, enumerate_transformations,
                                 flavor_inclusions, hom_eps,
                                 identity_transformation,
                                 reinterpret_as_pseudo, sigma_flavor,
                                 validate_diagram)


@pytest.fixture(scope="module")
def base():
    return arrow_2cat()


@pytest.fixture(scope="module")
def P(base):
    return diagram_pick0()


@pytest.fixture(scope="module")
def K1(base):
    return constant_diagram(base, terminal_category())


@pytest.fixture(scope="module")
def K2(base):
    return constant_diagram(base, arrow_category())


# ---------------------------------------------------------------------------
# Transformation axioms


def test_identity_transformation_checks(P):
    assert check_transformation(identity_transformation(P, LAX)).ok


def test_lax_example_counts(K1, K2, base):
    h = hom_eps(K1, K2, LAX)
    assert len(h.cat.objects) == 3
    h2 = hom_eps(K1, K2, sigma_flavor(wide_all(base)))
    assert len(h2.cat.objects) == 2
    hs = hom_eps(K1, K1, STRICT)
    assert len(hs.cat.objects) >= 1
    assert validate_category(h.cat).ok


def _mutate_structural(t, base, values):
    """Yield every transformation obtained by rewiring one structural cell."""
    for f in base.all_one_cells():
        n = t.structural[f]
        tgt_cat = values(base.tgt1(f))
        for comp in tgt_cat.hom(n.source.obj_map["*"], n.target.obj_map["*"]):
            if comp == n.components["*"]:
                continue
            st = dict(t.structural)
            st[f] = NatTransf(n.source, n.target, {"*": comp})
            yield Transformation(t.source, t.target, t.components, st, t.flavor)


def test_mutated_composition_coherence_detected():
    # the chain base has a genuine composite, so an incoherent cell at the
    # long arrow must trip the composition axiom
    from sigmacat.fixtures import chain3_2cat, diagram_chain_to_pp
    ch = chain3_2cat()
    Q = diagram_chain_to_pp()
    K = constant_diagram(ch, terminal_category())
    ts = enumerate_transformations(K, Q, LAX)
    assert ts
    hits = {"LN1": 0}
    for t in ts:
        for bad in _mutate_structural(t, ch, lambda A: Q.on_obj[A]):
            rep = check_transformation(bad)
            assert not rep.ok  # every single-cell rewiring is incoherent
            for v in rep.violations:
                if v.code in hits:
                    hits[v.code] += 1
    assert hits["LN1"] > 0


def test_mutated_identity_cell_detected(K1, P, base):
    t = identity_transformation(P, LAX)
    idA = base.id1["1"]
    n = t.structural[idA]
    two = P.on_obj["1"]
    st = dict(t.structural)
    st[idA] = NatTransf(n.source, n.target, {"0": "id_0", "1": "f"})
    bad = Transformation(t.source, t.target, t.components, st, t.flavor)
    rep = check_transformation(bad)
    assert not rep.ok
    assert any(v.code in ("LN0", "structural-typing", "structural-natural")
               for v in rep.violations)


def test_mutated_two_cell_compatibility_detected():
    # a base with a nonidentity 2-cell and parallel-pair values exercises
    # the per-2-cell axiom with room to rewire
    from sigmacat.two_cat import free_2cell_2cat
    from sigmacat.fincat import parallel_pair_category
    fc = free_2cell_2cat()
    pp = parallel_pair_category()
    one = terminal_category()
    pick_a = Functor(one, pp, {"*": "a"}, {"id_*": "id_a"})
    pick_b = Functor(one, pp, {"*": "b"}, {"id_*": "id_b"})
    step = NatTransf(pick_a, pick_b, {"*": "u"})
    Q = CatDiagram(fc, {"a": one, "b": pp},
                   {"id_a": identity_functor(one), "id_b": identity_functor(pp),
                    "u": pick_a, "v": pick_b},
                   {"i2_id_a": idn(identity_functor(one)),
                    "i2_id_b": idn(identity_functor(pp)),
                    "i2_u": idn(pick_a), "i2_v": idn(pick_b), "th": step})
    assert validate_diagram(Q).ok
    K = constant_diagram(fc, terminal_category())
    ts = enumerate_transformations(K, Q, LAX)
    assert ts
    hits = 0
    for t in ts:
        for bad in _mutate_structural(t, fc, lambda A: Q.on_obj[A]):
            rep = check_transformation(bad)
            if not rep.ok and any(v.code == "LN2" for v in rep.violations):
                hits += 1
    assert hits > 0


def test_flavor_invertibility_violation_reported(K1, K2, base):
    lax_only = [t for t in enumerate_transformations(K1, K2, LAX)
                if any(not K2.on_obj["1"].is_iso(n.components["*"])
                       for n in t.structural.values())]
    assert lax_only
    t = lax_only[0]
    bad = Transformation(t.source, t.target, t.components, t.structural,
                         sigma_flavor(wide_all(base)))
    rep = check_transformation(bad)
    assert not rep.ok
    assert any(v.code == "invertibility" for v in rep.violations)


def test_modification_axiom_detected(base, K1):
    # constant parallel-pair target: two transformations share components
    # but differ in the structural cell, so the identity family between
    # them must fail the modification square
    from sigmacat.fincat import parallel_pair_category
    KPP = constant_diagram(base, parallel_pair_category())
    ts = enumerate_transformations(K1, KPP, LAX)
    by_comp = {}
    for t in ts:
        key = tuple((A, t.components[A].key()) for A in sorted(t.components))
        by_comp.setdefault(key, []).append(t)
    twins = [v for v in by_comp.values() if len(v) >= 2]
    assert twins
    t1, t2 = twins[0][0], twins[0][1]
    comps = {}
    for A in base.objects:
        n = t1.components[A]
        cat = n.target
        comps[A] = NatTransf(t1.components[A], t2.components[A],
                             {"*": cat.identity[n.obj_map["*"]]})
    rep = check_modification(Modification(t1, t2, comps))
    assert not rep.ok
    assert any(v.code == "LNM" for v in rep.violations)
    # and legitimate modifications do check out
    h = hom_eps(K1, KPP, LAX)
    for m in h.mods.values():
        assert check_modification(m).ok


# ---------------------------------------------------------------------------
# Pseudofunctor axioms


def test_pseudo_fixture_validates_and_mutations_fail():
    P = pseudo_z2()
    assert validate_diagram(P).ok
    # break one unit cell: alpha at 0 becomes the identity while the
    # composition cells still expect the involution
    idf = P.on_1["id_0"]
    bad_alpha = dict(P.alpha_obj)
    bad_alpha["0"] = idn(idf)
    broken = CatDiagram(P.source, P.on_obj, P.on_1, P.on_2, "pseudo",
                        bad_alpha, P.alpha_comp)
    rep = validate_diagram(broken)
    assert not rep.ok
    assert any(v.code == "LF0" for v in rep.violations)


def test_alpha_mutations_detected():
    # every well-typed invertible rewiring of a single structure cell of a
    # valid pseudofunctor must break a coherence axiom; the swap fixture
    # has singleton hom-sets so only the involution fixture can be rewired
    for P in (pseudo_z2(),):
        assert validate_diagram(P).ok
        mutations = 0
        for key, n in P.alpha_comp.items():
            cat = n.source.target
            pools = {}
            for x in n.components:
                pools[x] = [a for a in cat.hom(n.source.obj_map[x],
                                               n.target.obj_map[x])
                            if cat.is_iso(a)]
            import itertools
            keys = sorted(pools)
            for combo in itertools.product(*(pools[k] for k in keys)):
                comps = dict(zip(keys, combo))
                if comps == n.components:
                    continue
                bad_comp = dict(P.alpha_comp)
                bad_comp[key] = NatTransf(n.source, n.target, comps)
                broken = CatDiagram(P.source, P.on_obj, P.on_1, P.on_2,
                                    "pseudo", P.alpha_obj, bad_comp)
                rep = validate_diagram(broken)
                assert not rep.ok
                assert any(v.code in ("LF0", "LF1", "alpha-natural",
                                      "alpha-typing") for v in rep.violations)
                mutations += 1
        assert mutations > 0


def test_ill_typed_alpha_reported_not_crashing():
    P = pseudo_swap()
    n = P.alpha_comp[("id_0", "id_0")]
    bad_comp = dict(P.alpha_comp)
    bad_comp[("id_0", "id_0")] = NatTransf(
        n.source, n.target,
        {k: ("u" if v != "u" else "u_inv") for k, v in n.components.items()})
    broken = CatDiagram(P.source, P.on_obj, P.on_1, P.on_2, "pseudo",
                        P.alpha_obj, bad_comp)
    rep = validate_diagram(broken)
    assert not rep.ok
    assert any(v.code == "alpha-typing" for v in rep.violations)


def test_strict_reinterpretation_passes_pseudo_checks(P):
    assert validate_diagram(reinterpret_as_pseudo(P)).ok


# ---------------------------------------------------------------------------
# Flavor collapse and inclusions


def test_inclusion_chain_and_collapse(K1, P, base):
    chain = flavor_inclusions(K1, P, wide_from(base, ["f"]))
    assert chain.report.ok
    ns = {k: len(v.cat.objects) for k, v in chain.homs.items()}
    assert ns["s"] <= ns["p"] <= ns["sigma"] <= ns["l"]
    all_chain = flavor_inclusions(K1, P, wide_all(base))
    assert len(all_chain.homs["p"].cat.objects) == \
        len(all_chain.homs["sigma"].cat.objects)
    assert len(all_chain.homs["p"].cat.arrows) == \
        len(all_chain.homs["sigma"].cat.arrows)
    id_chain = flavor_inclusions(K1, P, wide_identities(base))
    assert len(id_chain.homs["sigma"].cat.objects) == \
        len(id_chain.homs["l"].cat.objects)
    assert len(id_chain.homs["sigma"].cat.arrows) == \
        len(id_chain.homs["l"].cat.arrows)


# ---------------------------------------------------------------------------
# Ends and dicones


def fixture_pairs(base):
    K1 = constant_diagram(base, terminal_category())
    K2 = constant_diagram(base, arrow_category())
    P = diagram_pick0()
    KI = constant_diagram(base, iso_pair_category())
    return [(K1, K2), (K1, P), (P, K2), (K2, K2), (P, P), (KI, P)]


def all_flavors(base):
    return [STRICT, PSEUDO, sigma_flavor(wide_from(base, ["f"])), LAX]


def test_end_formula_matches_hom_categories(base):
    # the end of the hom diagram realizes the transformation category
    for P, Q in fixture_pairs(base):
        T, _prod = internal_hom_diagram(P, Q)
        for fl in all_flavors(base):
            h = hom_eps(P, Q, fl)
            e = end_eps(T, base, fl)
            assert len(h.cat.objects) == len(e.cat.objects)
            assert len(h.cat.arrows) == len(e.cat.arrows)
            assert find_isomorphism(h.cat, e.cat) is not None


def test_end_over_one_object_base_is_the_value():
    from sigmacat.two_cat import terminal_2cat
    t2 = terminal_2cat()
    C = arrow_category()
    prod = two_cat_product(op_dual(t2), t2)
    T = CatDiagram(prod, {pair_name("*", "*"): C},
                   {pair_name("id_*", "id_*"): identity_functor(C)},
                   {pair_name("i2_id_*", "i2_id_*"): idn(identity_functor(C))})
    e = end_eps(T, t2, STRICT)
    assert find_isomorphism(e.cat, C) is not None


def _dicones_from_end(base, T, e):
    one = terminal_category()
    from sigmacat.fincat import compose_functors
    out = []
    for name in sorted(e.points):
        xs, phis = e.points[name]
        comps, structural = {}, {}
        for A in base.objects:
            tcat = T.on_obj[pair_name(A, A)]
            comps[A] = Functor(one, tcat, {"*": xs[A]},
                               {"id_*": tcat.identity[xs[A]]})
        for f in base.all_one_cells():
            A, B = base.src1(f), base.tgt1(f)
            left = T.on_1[pair_name(base.id1[A], f)]
            right = T.on_1[pair_name(f, base.id1[B])]
            structural[f] = NatTransf(compose_functors(left, comps[A]),
                                      compose_functors(right, comps[B]),
                                      {"*": phis[f]})
        out.append(Dicone(base, T, one, comps, structural, LAX))
    return out


def _dicone_fixture(base):
    from sigmacat.fincat import parallel_pair_category
    P = diagram_pick0()
    Q = constant_diagram(base, parallel_pair_category())
    T, _ = internal_hom_diagram(P, Q)
    e = end_eps(T, base, LAX)
    dicones = _dicones_from_end(base, T, e)
    return T, dicones[0], e


def _rewire(d, f, other):
    n = d.structural[f]
    st = dict(d.structural)
    st[f] = NatTransf(n.source, n.target, {"*": other})
    return Dicone(d.base, d.diagram, d.vertex, d.components, st, d.flavor)


def test_dicone_ld0_mutation_detected(base):
    # a group-valued constant target has nonidentity endomorphisms, so the
    # identity cell can be rewired and must then fail the identity axiom
    from sigmacat.fincat import group_z2_category
    P = constant_diagram(base, terminal_category())
    Q = constant_diagram(base, group_z2_category())
    T, _ = internal_hom_diagram(P, Q)
    e = end_eps(T, base, LAX)
    dicones = _dicones_from_end(base, T, e)
    assert dicones
    hits = 0
    for d in dicones:
        assert check_dicone(d).ok
        for A in base.objects:
            idA = base.id1[A]
            n = d.structural[idA]
            tcat = n.source.target
            for other in tcat.hom(n.source.obj_map["*"], n.target.obj_map["*"]):
                if other == n.components["*"]:
                    continue
                rep = check_dicone(_rewire(d, idA, other))
                assert not rep.ok
                assert any(v.code == "LD0" for v in rep.violations)
                hits += 1
    assert hits > 0


def test_dicone_ld1_mutation_detected():
    # the chain base has a composite, which pins the long structural cell
    from sigmacat.fixtures import chain3_2cat, diagram_chain_to_pp
    ch = chain3_2cat()
    P = constant_diagram(ch, terminal_category())
    Q = diagram_chain_to_pp()
    T, _ = internal_hom_diagram(P, Q)
    e = end_eps(T, ch, LAX)
    dicones = _dicones_from_end(ch, T, e)
    assert dicones
    hits = 0
    for d in dicones:
        for f in ("a<c",):
            n = d.structural[f]
            tcat = n.source.target
            for other in tcat.hom(n.source.obj_map["*"], n.target.obj_map["*"]):
                if other == n.components["*"]:
                    continue
                rep = check_dicone(_rewire(d, f, other))
                assert not rep.ok
                assert any(v.code == "LD1" for v in rep.violations)
                hits += 1
    assert hits > 0


def test_dicone_ld2_mutation_detected():
    # a nonidentity 2-cell in the base relates the two structural cells
    from sigmacat.two_cat import free_2cell_2cat
    from sigmacat.fincat import parallel_pair_category
    fc = free_2cell_2cat()
    one = terminal_category()
    pp = parallel_pair_category()
    pick_a = Functor(one, pp, {"*": "a"}, {"id_*": "id_a"})
    pick_b = Functor(one, pp, {"*": "b"}, {"id_*": "id_b"})
    step = NatTransf(pick_a, pick_b, {"*": "u"})
    Q = CatDiagram(fc, {"a": one, "b": pp},
                   {"id_a": identity_functor(one), "id_b": identity_functor(pp),
                    "u": pick_a, "v": pick_b},
                   {"i2_id_a": idn(identity_functor(one)),
                    "i2_id_b": idn(identity_functor(pp)),
                    "i2_u": idn(pick_a), "i2_v": idn(pick_b), "th": step})
    P = constant_diagram(fc, terminal_category())
    T, _ = internal_hom_diagram(P, Q)
    e = end_eps(T, fc, LAX)
    dicones = _dicones_from_end(fc, T, e)
    assert dicones
    hits = 0
    for d in dicones:
        for f in ("u", "v"):
            n = d.structural[f]
            tcat = n.source.target
            for other in tcat.hom(n.source.obj_map["*"], n.target.obj_map["*"]):
                if other == n.components["*"]:
                    continue
                rep = check_dicone(_rewire(d, f, other))
                if not rep.ok:
                    assert any(v.code in ("LD2", "LD1") for v in rep.violations)
                    hits += 1
    assert hits > 0


def test_dicone_morphism_axiom(base):
    # group-valued target: endomorphism components exist, so twisting one
    # component of the identity family must fail the morphism square
    from sigmacat.fincat import group_z2_category
    P = constant_diagram(base, terminal_category())
    Q = constant_diagram(base, group_z2_category())
    T, _ = internal_hom_diagram(P, Q)
    e = end_eps(T, base, LAX)
    dicones = _dicones_from_end(base, T, e)
    d = dicones[0]
    comps = {}
    for A in base.objects:
        n = d.components[A]
        tcat = n.target
        comps[A] = NatTransf(n, n, {"*": tcat.identity[n.obj_map["*"]]})
    assert check_dicone_morphism(d, d, comps).ok
    broken = 0
    for A in base.objects:
        n = d.components[A]
        tcat = n.target
        for other in tcat.hom(n.obj_map["*"], n.obj_map["*"]):
            if tcat.is_identity(other):
                continue
            bad = dict(comps)
            bad[A] = NatTransf(n, n, {"*": other})
            rep = check_dicone_morphism(d, d, bad)
            if not rep.ok:
                assert any(v.code == "LDM" for v in rep.violations)
                broken += 1
    assert broken > 0


# ---------------------------------------------------------------------------
# Cotensors


def test_cotensor_is_pointwise(base, K1, P):
    # maps into the cotensor correspond to functors into the hom category
    C = arrow_category()
    G = P
    cot = cotensor_diagram(C, G)
    assert validate_diagram(cot).ok
    for H in (K1,):
        lhs = hom_eps(H, cot, PSEUDO)
        rhs = functor_category(C, hom_eps(H, G, PSEUDO).cat)
        assert len(lhs.cat.objects) == len(rhs.objects)
        assert find_isomorphism(lhs.cat, rhs) is not None


def test_enumerations_are_deterministic(K1, P):
    a = hom_eps(K1, P, LAX)
    b = hom_eps(K1, P, LAX)
    assert list(a.transfs) == list(b.transfs)
    assert a.cat == b.cat
