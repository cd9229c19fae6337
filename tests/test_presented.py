"""Localization by bounded word closure."""

import itertools

import pytest

from sigmacat.fincat import (arrow_category, categories_equivalent,
                             enumerate_functors, find_isomorphism,
                             group_z2_category, iso_pair_category,
                             mk_fincat, parallel_pair_category,
                             terminal_category, validate_category)
from sigmacat.errors import ValidationError
from sigmacat.presented import localize, localization_functor


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


def test_integers_generating_fixture_is_undecided():
    # inverting both legs of the parallel pair presents the group of
    # integers: the class count grows by a fixed amount per level
    loc = localize(parallel_pair_category(), {"u", "v"}, 16)
    assert loc.status == "undecided-at-cap"
    assert loc.realization is None
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


def functors_inverting(c, sigma, e):
    """All functors c -> e sending sigma to isomorphisms."""
    out = []
    for F in enumerate_functors(c, e):
        if all(e.is_iso(F.arr_map[s]) for s in sigma):
            out.append(F.key())
    return out


@pytest.mark.parametrize("c,sigma", [
    (arrow_category(), {"f"}),
    (group_z2_category(), {"s"}),
    (iso_pair_category(), {"u"}),
])
def test_universal_property_against_small_targets(c, sigma):
    loc = localize(c, sigma, 10)
    assert loc.finite
    for e in (terminal_category(), arrow_category(), iso_pair_category()):
        through = enumerate_functors(loc.realization, e)
        direct = functors_inverting(c, sigma, e)
        assert len(through) == len(direct)


def test_status_finite_has_valid_realization():
    for c, sigma in [(arrow_category(), {"f"}), (group_z2_category(), {"s"})]:
        loc = localize(c, sigma, 12)
        assert loc.finite
        assert validate_category(loc.realization).ok
