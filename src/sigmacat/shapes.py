"""The shapes that generate the finite weighted bilimits.

Kelly (Elementary observations on 2-categorical limits, 1989) builds
every finite weighted limit from finite products, inserters and
equifiers, and the finite products include the empty one, the terminal
object.  So the biterminal object, the binary biproducts, the
biinserters and the biequifiers generate every finite weighted bilimit;
the biequalizers are searched as well.  Each binary shape is one
``Shape`` here: its 2-category, built once; the weight W for which the
W-weighted bilimit is the shape's bilimit, read by the ``bilimit``
command; and the marking for which the shape's conical σ-bilimit is that
bilimit, read by the cone search of ``flatness.generate_bilimit_cones``.
The empty shape ``BITERMINAL`` has a single diagram in each 2-category,
and its bilimit is a biterminal object: an L with every hom(X, L) ≃ 1.
The ``bilimit`` command does not offer it, since it reads two documents
and the biterminal object of Cat is the terminal category.

A diagram of a binary shape is given by the images of its top
generators: the objects a, b of the biproduct, the 1-cells u, v : a -> b
of the biequalizer and the biinserter, the 2-cells th, et : u => v of the
biequifier.  The images of the lower generators are their boundaries,
and identities go to identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .fincat import (FinCat, Functor, NatTransf, arrow_category,
                     discrete_category, identity_functor, idn,
                     iso_pair_category, terminal_category)
from .two_cat import Fin2Cat, parallel_2cells_2cat, two_cat_from_cat
from .transforms import CatDiagram, TwoFunctor

# The generators of each dimension, in the order their images are given.
GENERATORS = (("a", "b"), ("u", "v"), ("th", "et"))

# What a diagram into Cat sends the generators of each dimension to.
_CAT_KINDS = ((FinCat, "category"), (Functor, "functor"),
             (NatTransf, "transformation"))


def _below(dim: int, tops, boundary) -> list:
    """The images of the generators of each dimension, from ``tops`` of
    dimension ``dim``: ``boundary(d, x)`` is the (source, target) of x."""
    images = [tops]
    for d in range(dim, 0, -1):
        images.insert(0, boundary(d, images[0][0]))
    return images + [()] * (2 - dim)


def _fill(keys: tuple, images, id1, id2) -> tuple:
    """The (object, 1-cell, 2-cell) maps on a shape's ``keys`` from the
    images of its generators; ``id1`` and ``id2`` give identities."""
    obj, one, two = images
    map1 = dict(zip(keys[0], (*map(id1, obj), *one)))
    return (dict(zip(GENERATORS[0], obj)), map1,
            dict(zip(keys[1], (*map(id2, map1.values()), *two))))


def _cat_diagram(sh: Fin2Cat, keys: tuple, dim: int, tops) -> CatDiagram:
    return CatDiagram(sh, *_fill(keys, _below(dim, tops, lambda d, x: (x.source, x.target)),
                                 identity_functor, idn))


@dataclass(frozen=True)
class Shape:
    """One generating shape; the W-weighted bilimit of a diagram of it is
    its bilimit, and so is its conical σ-bilimit for the marking."""

    name: str
    cat: Fin2Cat
    dim: int  # the dimension of the top generators
    weight: CatDiagram
    marked: frozenset  # shape 1-cells marked in the conical search
    keys: tuple  # the keys of a diagram's 1-cell and 2-cell maps, identities first

    def diagram(self, a: Fin2Cat, x: str, y: str) -> TwoFunctor:
        """The diagram in ``a`` sending the top generators to x and y."""
        def boundary(d, z):
            return (a.src2(z), a.tgt2(z)) if d == 2 else (a.src1(z), a.tgt1(z))
        return TwoFunctor(self.cat, a, *_fill(self.keys, _below(self.dim, (x, y), boundary),
                                              a.id1.__getitem__, a.id2))

    def cat_diagram(self, x, y) -> CatDiagram:
        """The diagram in Cat sending the top generators to x and y, which
        must be parallel documents of the kind the shape reads."""
        kind, noun = _CAT_KINDS[self.dim]
        if not isinstance(x, kind) or not isinstance(y, kind):
            raise ValidationError(f"{self.name} expects two {noun} documents")
        if self.dim and (x.source, x.target) != (y.source, y.target):
            raise ValidationError(f"expected parallel {noun} documents")
        return _cat_diagram(self.cat, self.keys, self.dim, (x, y))


_ONE, _TWO, _ISO = terminal_category(), arrow_category(), iso_pair_category()
_PARALLEL = parallel_2cells_2cat()


def _picks(c: FinCat) -> tuple[Functor, Functor]:
    """The objects 0 and 1 of c, as functors out of the terminal category."""
    return tuple(Functor(_ONE, c, {"*": x}, {"id_*": c.identity[x]})
                 for x in ("0", "1"))


def _shape(name: str, cat: Fin2Cat, dim: int, weight, marked) -> Shape:
    one = tuple(cat.id1[A] for A in GENERATORS[0]) + GENERATORS[1][:2 * (dim > 0)]
    keys = one, tuple(map(cat.id2, one)) + GENERATORS[2][:2 * (dim > 1)]
    return Shape(name, cat, dim, _cat_diagram(cat, keys, dim, weight), frozenset(marked), keys)


# The weights send the top generators to: the terminal category, twice; the
# objects 0 and 1 of the walking isomorphism (biequalizer) or of the walking
# arrow (biinserter); the arrow 0 -> 1 of the walking arrow, twice.
_STEP = NatTransf(*_picks(_TWO), {"*": "f"})
BIPRODUCT = _shape("biproduct", two_cat_from_cat(discrete_category(GENERATORS[0])),
                   0, (_ONE, _ONE), ())
BIEQUALIZER = _shape("biequalizer", _PARALLEL, 1, _picks(_ISO), GENERATORS[1])
BIINSERTER = _shape("biinserter", _PARALLEL, 1, _picks(_TWO), GENERATORS[1][1:])
BIEQUIFIER = _shape("biequifier", parallel_2cells_2cat(GENERATORS[2]), 2,
                    (_STEP, _STEP), GENERATORS[1])

SHAPES = {s.name: s for s in (BIPRODUCT, BIEQUALIZER, BIINSERTER, BIEQUIFIER)}

# The empty shape, whose bilimit is the empty biproduct.
BITERMINAL = two_cat_from_cat(discrete_category(()))


def generating_diagrams(a: Fin2Cat):
    """(label, diagram, marking) for every diagram of the generating shapes
    in ``a``: the one diagram of the empty shape, labelled ``biterminal``,
    then the biproducts of each pair of objects, then for each parallel
    pair f, g the biequalizer, the biinserter and the biequifier of each
    pair of 2-cells f => g.  The maps are ``Shape.diagram``'s, laid on the
    shape's ``keys`` from the images the loops hold, with no boundary read.
    The biinserter of f, g is the biequalizer's diagram with its own
    marking, and each biequifier shares the biequalizer's object and
    1-cell maps: a base keeps these diagrams in its bilimit search's plan,
    so nothing may mutate them."""
    id1, id2 = a.id1.__getitem__, {f: a.id2(f) for f in a.all_one_cells()}.__getitem__

    def of(sh, *images):
        x, y = images[sh.dim]
        return (f"{sh.name}({x},{y})",
                TwoFunctor(sh.cat, a, *_fill(sh.keys, images, id1, id2)), sh.marked)

    yield "biterminal", TwoFunctor(BITERMINAL, a, {}, {}, {}), frozenset()
    for C in sorted(a.objects):
        for D in sorted(a.objects):
            yield of(BIPRODUCT, (C, D), (), ())
    for A in sorted(a.objects):
        for B in sorted(a.objects):
            for f in a.one_cells(A, B):
                for g in a.one_cells(A, B):
                    label, D, marked = of(BIEQUALIZER, (A, B), (f, g), ())
                    yield label, D, marked
                    # the biinserter has the biequalizer's shape, so its diagram,
                    # and the biequifier its keys below the top 2-cells, so its maps
                    yield f"{BIINSERTER.name}({f},{g})", D, BIINSERTER.marked
                    for al in a.two_cells_between(f, g):
                        for be in a.two_cells_between(f, g):
                            top = dict(zip(GENERATORS[2], (al, be)))
                            yield (f"{BIEQUIFIER.name}({al},{be})",
                                   TwoFunctor(BIEQUIFIER.cat, a, D.obj_map, D.map1,
                                              {**D.map2, **top}), BIEQUIFIER.marked)
