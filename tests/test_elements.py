"""The elements construction, its dual, markings, and induced 2-functors."""

import pytest

from construction_reference import compose_transformations, identity_transformation
from elements_reference import is_two_fully_faithful
from sigmacat.fincat import (Functor, NatTransf, arrow_category,
                             compose_functors, identity_functor,
                             terminal_category)
from sigmacat.fixtures import (arrow_2cat, diagram_pick0, idn, pseudo_swap,
                               pseudo_z2)
from sigmacat.two_cat import (WideSub, terminal_2cat, validate_2category,
                              validate_wide_sub, wide_all, wide_from,
                              wide_identities)
from sigmacat.transforms import (LAX, PSEUDO, Transformation, TwoFunctor,
                                 check_transformation, compose_diagram,
                                 constant_diagram, hom_eps,
                                 reinterpret_as_pseudo, sigma_flavor,
                                 validate_twofunctor)
from sigmacat.elements import (cart_sigma, elements_of, elements_of_pseudo,
                               gamma_dual, lax_dense_transport, lax_pullback_factor,
                               obj_name, preimage_marking, t_eta, t_h)
from sigmacat.flatness import representable


@pytest.fixture(scope="module")
def base():
    return arrow_2cat()


@pytest.fixture(scope="module")
def P():
    return diagram_pick0()


def test_elements_of_worked_example(P):
    el = elements_of(P)
    assert sorted(el.cat.objects) == ["(*,0)", "(0,1)", "(1,1)"]
    assert validate_2category(el.cat).ok
    assert validate_wide_sub(el.cart).ok
    assert validate_twofunctor(el.projection).ok


def test_elements_of_constant_terminal_is_the_base(base):
    K = constant_diagram(base, terminal_category())
    el = elements_of(K)
    assert len(el.cat.objects) == len(base.objects)
    # every hom matches the base hom in size
    for A in base.objects:
        for B in base.objects:
            assert len(el.cat.one_cells(obj_name("*", A), obj_name("*", B))) == \
                len(base.one_cells(A, B))


def test_elements_of_representable(base):
    r0 = representable(base, "0")
    el = elements_of(r0)
    assert sorted(el.cat.objects) == ["(f,1)", "(id_0,0)"]
    # the connecting arrow over f with an identity action is cartesian
    over_f = [nm for nm, (f, phi) in el.pairs1.items() if f == "f"]
    assert over_f and all(nm in el.cart.arrows for nm in over_f)


def test_projection_is_identity_on_base_data(P, base):
    el = elements_of(P)
    for nm, (f, phi) in el.pairs1.items():
        assert el.projection.map1[nm] == f
    for nm, th in el.pairs2.items():
        assert el.projection.map2[nm] == th


def test_pseudo_reinterpretation_gives_identical_elements(P):
    el = elements_of(P)
    elp = elements_of_pseudo(reinterpret_as_pseudo(P))
    assert elp.cat == el.cat
    assert elp.cart.arrows == el.cart.arrows


def test_pseudo_elements_validate_with_nontrivial_structure():
    for Pp in (pseudo_z2(), pseudo_swap()):
        el = elements_of_pseudo(Pp)
        assert validate_2category(el.cat).ok
        assert validate_wide_sub(el.cart).ok


def test_pseudo_identity_arrow_composes_trivially():
    Pp = pseudo_z2()
    el = elements_of_pseudo(Pp)
    for o in el.cat.objects:
        ido = el.cat.id1[o]
        for o2 in el.cat.objects:
            for m in el.cat.one_cells(o, o2):
                assert el.cat.hcomp1[(m, ido)] == m
            for m in el.cat.one_cells(o2, o):
                assert el.cat.hcomp1[(ido, m)] == m


def test_gamma_dual_reverses_the_action(P):
    g = gamma_dual(P)
    el = elements_of(P)
    assert sorted(g.cat.objects) == sorted(el.cat.objects)
    assert validate_2category(g.cat).ok
    # the action at f picks the source object, so in the dual the only
    # arrow over f into it comes from the picked element itself
    got = {(f, phi) for (f, phi) in g.pairs1.values() if f == "f"}
    assert got == {("f", "id_0")}
    fwd = {(f, phi) for (f, phi) in el.pairs1.values() if f == "f"}
    assert fwd == {("f", "id_0"), ("f", "f")}


def test_gamma_dual_of_constant(base):
    K = constant_diagram(base, terminal_category())
    g = gamma_dual(K)
    assert len(g.cat.objects) == len(base.objects)


def test_cart_sigma_full_and_trivial(P, base):
    el = elements_of(P)
    assert cart_sigma(el, wide_all(base)).arrows == el.cart.arrows
    only_ids = cart_sigma(el, wide_identities(base))
    assert all(el.pairs1[nm][0] in set(base.id1.values())
               for nm in only_ids.arrows)


def test_t_eta_identity_and_functoriality(P, base):
    el = elements_of(P)
    ide = identity_transformation(P, LAX)
    T = t_eta(ide, el, el)
    assert all(T.obj_map[o] == o for o in el.cat.objects)
    assert all(T.map1[m] == m for m in el.cat.all_one_cells())
    # composite of transformations induces the composite 2-functor
    Q = constant_diagram(base, arrow_category())
    hs = hom_eps(P, Q, LAX)
    for t in hs.transfs.values():
        elq = elements_of(Q)
        T1 = t_eta(t, el, elq)
        comp = compose_transformations(t, ide)
        T2 = t_eta(comp, el, elq)
        T12 = {o: T1.obj_map[o] for o in el.cat.objects}
        assert T2.obj_map == T12
        assert T2.map1 == T1.map1
        break


def test_t_eta_fully_faithful_components(P, base):
    Q = constant_diagram(base, arrow_category())
    one, two = terminal_category(), arrow_category()
    pick0 = Functor(one, two, {"*": "0"}, {"id_*": "id_0"})
    comps = {"0": pick0, "1": identity_functor(two)}
    structural = {}
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        src = compose_functors(Q.on_1[f], comps[A])
        tgt = compose_functors(comps[B], P.on_1[f])
        comp = {x: two.identity[comps[A].obj_map[x]] if f != "f"
                else two.identity["0"] for x in P.on_obj[A].objects}
        structural[f] = NatTransf(src, tgt, comp)
    eta = Transformation(P, Q, comps, structural, PSEUDO)
    assert check_transformation(eta).ok
    el, elq = elements_of(P), elements_of(Q)
    T = t_eta(eta, el, elq)
    assert validate_twofunctor(T).ok
    assert is_two_fully_faithful(T)
    assert preimage_marking(T, elq.cart).arrows == el.cart.arrows


def test_t_h_identity_and_inclusion(P, base):
    from sigmacat.transforms import identity_twofunctor
    el = elements_of(P)
    H = identity_twofunctor(base)
    T = t_h(H, P, el, el)
    assert all(T.obj_map[o] == o for o in el.cat.objects)
    # inclusion of the terminal 2-category at object 0
    t2 = terminal_2cat()
    H0 = TwoFunctor(t2, base, {"*": "0"}, {"id_*": "id_0"},
                    {"i2_id_*": "i2_id_0"})
    PH = compose_diagram(P, H0)
    el_ph = elements_of(PH)
    T0 = t_h(H0, P, el_ph, el)
    assert validate_twofunctor(T0).ok
    assert is_two_fully_faithful(T0)  # H0 is full on homs here
    assert preimage_marking(T0, el.cart).arrows == el_ph.cart.arrows


def test_lax_pullback_factorization(P, base):
    el = elements_of(P)
    t2 = terminal_2cat()
    F = TwoFunctor(t2, base, {"*": "0"}, {"id_*": "id_0"},
                   {"i2_id_*": "i2_id_0"})
    PF = compose_diagram(P, F)
    k1 = constant_diagram(t2, terminal_category())
    cones = hom_eps(k1, PF, LAX)
    images = set()
    for th in cones.transfs.values():
        T = lax_pullback_factor(F, th, el)
        assert validate_twofunctor(T).ok
        assert el.projection.obj_map[T.obj_map["*"]] == "0"
        images.add(tuple(sorted(T.obj_map.items())))
    assert len(images) == len(cones.transfs)  # distinct cones, distinct maps


def test_lax_density_roundtrip(P, base):
    Q = constant_diagram(base, arrow_category())
    el = elements_of(P)
    tr = lax_dense_transport(P, Q, el)
    assert len(tr.hom_pq.cat.objects) == len(tr.hom_cone.cat.objects)
    assert all(tr.backward[tr.forward[n]] == n for n in tr.hom_pq.transfs)
    assert all(tr.forward[tr.backward[n]] == n for n in tr.hom_cone.transfs)


def test_lax_density_flavor_restriction(P, base):
    # relative transformations on the base correspond to cones that are
    # relative to the induced marking on the elements
    Q = constant_diagram(base, arrow_category())
    el = elements_of(P)
    sig = wide_from(base, ["f"])
    marked = cart_sigma(el, sig)
    tr = lax_dense_transport(P, Q, el, flavor=sigma_flavor(sig),
                             cone_flavor=sigma_flavor(marked))
    assert len(tr.hom_pq.cat.objects) == len(tr.hom_cone.cat.objects)
    assert all(tr.backward[tr.forward[n]] == n for n in tr.hom_pq.transfs)
    # and the relative enumerations sit inside the lax ones
    tr_lax = lax_dense_transport(P, Q, el)
    assert len(tr.hom_pq.cat.objects) <= len(tr_lax.hom_pq.cat.objects)
