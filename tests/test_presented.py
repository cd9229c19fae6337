"""Localization by coset enumeration."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certificate_reference import default_test_family
from closure_reference import reference_localize
from helpers import colimit_rungs, idempotent_category, posets, table_digest
from sigmacat.colimits import conical_sigma_colimit
from sigmacat.config import Meter
from sigmacat.errors import SizeLimitExceeded, ValidationError
from sigmacat.fincat import (Functor, arrow_category, compose_functors,
                             enumerate_functors, find_isomorphism,
                             group_z2_category, iso_pair_category,
                             mk_fincat, parallel_pair_category,
                             validate_category)
from sigmacat.presented import (Presentation, localization_functor, localize,
                                saturate_presentation)


def zigzag_oracle_classes(c, sigma, cap):
    """Independent oracle: enumerate raw zig-zag words and close them.

    Words are alternating sequences over arrows and formal inverses with
    the obvious cancellations and the composition table applied pairwise,
    explored exhaustively up to the cap.  Only used on very small inputs.
    """
    gens = {}
    for a, (s, t) in c.arrows.items():
        if c.identity[s] != a or s != t:
            gens[("+", a)] = (s, t)
    for a in sigma:
        s, t = c.arrows[a]
        gens[("-", a)] = (t, s)

    def reduce(word):
        w = list(word)
        changed = True
        while changed:
            changed = False
            for i in range(len(w) - 1):
                (d1, a1), (d2, a2) = w[i], w[i + 1]
                if a1 == a2 and d1 != d2:
                    del w[i:i + 2]
                    changed = True
                    break
                if d1 == d2 == "+":
                    h = c.compose[(a2, a1)]
                    if c.is_identity(h):
                        del w[i:i + 2]
                    else:
                        w[i:i + 2] = [("+", h)]
                    changed = True
                    break
        return tuple(w)

    seen = {}
    for x in c.objects:
        seen[(x, ())] = (x, ())
    frontier = list(seen)
    for _ in range(cap):
        new = []
        for (src, word) in frontier:
            end = src
            for (d, a) in word:
                end = gens[(d, a)][1]
            for g, (s, t) in gens.items():
                if s != end:
                    continue
                r = reduce(word + (g,))
                key = (src, r)
                if key not in seen:
                    seen[key] = key
                    new.append(key)
        frontier = new
    return seen


def test_localize_arrow_at_f_is_the_walking_iso():
    loc = localize(arrow_category(), {"f"}, 8)
    assert loc.finite
    assert validate_category(loc.realization).ok
    assert find_isomorphism(loc.realization, iso_pair_category()) is not None
    # oracle: the reduced zig-zag words stabilize at exactly four classes
    words = zigzag_oracle_classes(arrow_category(), {"f"}, 8)
    assert len(words) == 4


def split_idempotent(h="h"):
    """f : a -> b with a section h: f∘h = id_b, and e = h∘f idempotent on a."""
    arrows = {"id_a": ("a", "a"), "id_b": ("b", "b"), "f": ("a", "b"),
              h: ("b", "a"), "e": ("a", "a")}
    compose = {(x, "id_a"): x for x in ("id_a", "f", "e")}
    compose.update({(x, "id_b"): x for x in ("id_b", h)})
    compose.update({("id_a", x): x for x in ("id_a", h, "e")})
    compose.update({("id_b", x): x for x in ("id_b", "f")})
    compose.update({("f", h): "id_b", (h, "f"): "e", ("e", "e"): "e",
                    ("f", "e"): "f", ("e", h): h})
    return mk_fincat(("a", "b"), arrows, {"a": "id_a", "b": "id_b"}, compose)


def test_localize_nothing_is_the_identity():
    # the last input names an arrow like a formal inverse; inverting
    # nothing must still leave it a plain arrow
    for c in (arrow_category(), parallel_pair_category(), group_z2_category(),
              split_idempotent(), split_idempotent("f~inv")):
        assert validate_category(c).ok
        loc = localize(c, set(), 8)
        assert loc.finite
        assert len(loc.realization.arrows) == len(c.arrows)
        assert find_isomorphism(loc.realization, c) is not None


def test_localize_refuses_a_formal_inverse_named_like_an_arrow():
    with pytest.raises(ValidationError, match="f~inv"):
        localize(split_idempotent("f~inv"), {"f"}, 8)


def test_saturate_refuses_a_relation_that_is_not_parallel():
    # f = id_a would merge an arrow a -> b with one a -> a
    pres = Presentation(("a", "b"), {"f": ("a", "b")}, {}, ((("f",), (), "a"),), ())
    with pytest.raises(ValidationError, match="not parallel"):
        saturate_presentation(pres)


def test_integers_generating_fixture_is_undecided():
    # inverting both legs of the parallel pair presents the group of
    # integers: the class count grows by a fixed amount per level
    loc = localize(parallel_pair_category(), {"u", "v"}, 16)
    assert loc.status == "undecided-at-cap"
    assert loc.realization is None
    # the growth curve: two start cosets, then, out of each object, one
    # more word in each direction of Z per defining-word length
    assert loc.growth == (2,) + (4,) * 16
    words = zigzag_oracle_classes(parallel_pair_category(), {"u", "v"}, 10)
    lengths = sorted(len(w) for (_, w) in words)
    assert lengths.count(9) > 0  # still growing at depth 9


def test_localize_involution_collapses_inverse():
    loc = localize(group_z2_category(), {"s"}, 8)
    assert loc.finite
    assert find_isomorphism(loc.realization, group_z2_category()) is not None


def test_localized_generators_become_isomorphisms():
    for c, sigma in [(arrow_category(), {"f"}),
                     (iso_pair_category(), {"u"}),
                     (group_z2_category(), {"s"})]:
        loc = localize(c, sigma, 10)
        assert loc.finite
        _, arr_map = localization_functor(c, loc)
        for s in sigma:
            assert loc.realization.is_iso(arr_map[s])


@st.composite
def marked_categories(draw):
    """A small category, a poset on at most 5 objects or one of three with
    non-identity endomorphisms, and a drawn set of arrows to invert."""
    c = draw(st.one_of(posets(5), st.sampled_from(
        [group_z2_category(), idempotent_category(), split_idempotent()])))
    plain = sorted(a for a in c.arrows if not c.is_identity(a))
    sigma = draw(st.lists(st.sampled_from(plain), unique=True)) if plain else []
    return c, set(sigma)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(marked_categories())
def test_coset_enumeration_agrees_with_the_word_closure(marked):
    """Wherever the old bounded closure decides a localization, the coset
    table gives the same tables, arrow names and representative words."""
    c, sigma = marked
    try:
        # the old closure is exponential in the cap; inputs it cannot
        # finish within this budget, which keeps the test fast, are skipped
        ref = reference_localize(c, sigma, 8, Meter(20_000))
    except SizeLimitExceeded:
        return
    if not ref.finite:
        return
    loc = localize(c, sigma, 8)
    assert loc.finite
    assert table_digest(loc.realization) == table_digest(ref.realization)
    assert loc.rep_of_arrow == ref.rep_of_arrow


@settings(derandomize=True, max_examples=25, deadline=None)
@given(marked_categories())
@example((arrow_category(), {"f"}))
@example((group_z2_category(), {"s"}))
@example((iso_pair_category(), {"u"}))
def test_universal_property_against_small_targets(marked):
    """Precomposition with the localization functor c -> R is a bijection
    from the functors R -> E onto the functors c -> E inverting sigma."""
    c, sigma = marked
    loc = localize(c, sigma, 10)
    if not loc.finite:
        return
    R = loc.realization
    ell = Functor(c, R, *localization_functor(c, loc))
    for _, e in default_test_family():
        through = [compose_functors(H, ell).key() for H in enumerate_functors(R, e)]
        direct = [F.key() for F in enumerate_functors(c, e)
                  if all(e.is_iso(F.arr_map[s]) for s in sigma)]
        assert len(set(through)) == len(through)
        assert sorted(through) == sorted(direct)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(marked_categories())
@example((arrow_category(), {"f"}))
@example((group_z2_category(), {"s"}))
@example((iso_pair_category(), {"u"}))
@example((split_idempotent(), {"f"}))
@example((split_idempotent("f~inv"), set()))
@example((parallel_pair_category(), set()))
def test_every_finite_realization_is_a_category(marked):
    """``saturate_presentation`` does not validate its realization: a
    closed coset table that passes the relation re-walk is the Cayley graph
    of a congruence, so it is a category.  The validator must agree."""
    c, sigma = marked
    loc = localize(c, sigma, 8)
    if loc.finite:
        assert validate_category(loc.realization).ok


@pytest.mark.parametrize("rung", sorted(colimit_rungs()))
def test_the_localizations_of_the_colimit_rungs_are_categories(rung):
    P, marking = colimit_rungs()[rung]
    res = conical_sigma_colimit(P, marking)
    assert validate_category(res.category).ok


def test_status_finite_has_valid_realization():
    for c, sigma in [(arrow_category(), {"f"}), (group_z2_category(), {"s"})]:
        loc = localize(c, sigma, 12)
        assert loc.finite
        assert validate_category(loc.realization).ok
