"""Finite 2-categories with total horizontal-composition tables.

A Fin2Cat keeps one FinCat per hom (its objects are the 1-cells, its
arrows the 2-cells), a chosen identity 1-cell per object, and the whole
horizontal composition table on 1-cells and on 2-cells.  1-cell and
2-cell names are globally unique across homs so the tables can be flat.
Whiskering is not stored; it is derived from the 2-cell table with
identity 2-cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fincat import (FinCat, ValidationReport, mk_fincat, pair_name, pair_table,
                     product_category, terminal_category, validate_category)
from .errors import ValidationError


@dataclass(frozen=True)
class Fin2Cat:
    """The tables are never mutated after construction; the sorted cells,
    the shape rows and the bilimit search's plan are computed on first use
    and kept."""

    objects: tuple[str, ...]
    hom: dict  # (A, B) -> FinCat
    id1: dict  # object -> 1-cell name
    hcomp1: dict  # (g, f) -> 1-cell name of g∘f
    hcomp2: dict  # (beta, alpha) -> 2-cell name of beta*alpha

    # -- locating cells

    def hom_of_1cell(self, f: str) -> tuple[str, str]:
        return self._cell1_home[f]

    def hom_of_2cell(self, a: str) -> tuple[str, str]:
        return self._cell2_home[a]

    def __post_init__(self):
        c1, c2 = {}, {}
        for pair, h in self.hom.items():
            for f in h.objects:
                if f in c1:
                    raise ValidationError(f"1-cell name {f} reused across homs")
                c1[f] = pair
            for a in h.arrows:
                if a in c2:
                    raise ValidationError(f"2-cell name {a} reused across homs")
                c2[a] = pair
        object.__setattr__(self, "_cell1_home", c1)
        object.__setattr__(self, "_cell2_home", c2)

    def one_cells(self, A: str, B: str) -> tuple[str, ...]:
        return self._one_cells.get((A, B), ())

    def all_one_cells(self) -> tuple[str, ...]:
        return self._all_one_cells

    def all_two_cells(self) -> tuple[str, ...]:
        return self._all_two_cells

    def two_cells_between(self, f: str, g: str) -> tuple[str, ...]:
        """2-cells f => g (f, g parallel 1-cells)."""
        pair = self._cell1_home[f]
        return self.hom[pair].hom(f, g)

    def src1(self, f: str) -> str:
        return self._cell1_home[f][0]

    def tgt1(self, f: str) -> str:
        return self._cell1_home[f][1]

    def src2(self, a: str) -> str:
        pair = self._cell2_home[a]
        return self.hom[pair].src(a)

    def tgt2(self, a: str) -> str:
        pair = self._cell2_home[a]
        return self.hom[pair].tgt(a)

    def id2(self, f: str) -> str:
        pair = self._cell1_home[f]
        return self.hom[pair].identity[f]

    def vcomp(self, b: str, a: str) -> str:
        """Vertical composite b∘a (a first)."""
        pair = self._cell2_home[a]
        return self.hom[pair].compose[(b, a)]

    def is_invertible_2cell(self, a: str) -> bool:
        pair = self._cell2_home[a]
        return self.hom[pair].is_iso(a)

    def is_identity_2cell(self, a: str) -> bool:
        pair = self._cell2_home[a]
        return self.hom[pair].is_identity(a)

    @cached_property
    def _one_cells(self) -> dict:
        """(A, B) -> the 1-cells A → B, sorted by name."""
        return {pair: tuple(sorted(h.objects)) for pair, h in self.hom.items()}

    @cached_property
    def _cells_into(self) -> dict:
        """B -> (the 1-cells into B, the 2-cells between them)."""
        out = {B: ([], []) for B in self.objects}
        for (_, B), h in self.hom.items():
            out[B][0].extend(h.objects)
            out[B][1].extend(h.arrows)
        return out

    @cached_property
    def _shape_index(self) -> tuple:
        """The objects and the 1-cells, each sorted, and by position: per
        1-cell, (the position of the object it is the identity of, or None,
        its source, its target); per non-identity 2-cell x : f ⇒ g,
        (x, f, g); per composable pair (g, f) of non-identity 1-cells,
        (g∘f, g, f)."""
        objs, cells = sorted(self.objects), self._all_one_cells
        pos = {A: k for k, A in enumerate(objs)}
        at = {f: n for n, f in enumerate(cells)}
        ids = {self.id1[A]: pos[A] for A in objs}
        ends = [(ids.get(f), *(pos[A] for A in self._cell1_home[f])) for f in cells]
        two = [(x, at[self.src2(x)], at[self.tgt2(x)]) for x in self._all_two_cells
               if not self.is_identity_2cell(x)]
        pairs = [(at[gf], at[g], at[f]) for (g, f), gf in self.hcomp1.items()
                 if f not in ids and g not in ids]
        return objs, cells, ends, two, pairs

    @cached_property
    def _bilimit_plan(self) -> BilimitPlan:
        """The plan of the bilimit search (``colimits.BilimitPlan``): the
        generating diagrams, the hom actions and a compiled cone kernel per
        diagram, read off the tables alone, with no meter, and kept as long
        as the base."""
        return BilimitPlan(self)

    @cached_property
    def _all_one_cells(self) -> tuple[str, ...]:
        return tuple(sorted(self._cell1_home))

    @cached_property
    def _all_two_cells(self) -> tuple[str, ...]:
        return tuple(sorted(self._cell2_home))


def mk_fin2cat(objects, hom, id1, hcomp1, hcomp2) -> Fin2Cat:
    return Fin2Cat(
        objects=tuple(sorted(objects)),
        hom={k: hom[k] for k in sorted(hom)},
        id1=dict(sorted(id1.items())),
        hcomp1=dict(sorted(hcomp1.items())),
        hcomp2=dict(sorted(hcomp2.items())),
    )


# ---------------------------------------------------------------------------
# Validation


def validate_2category(a: Fin2Cat) -> ValidationReport:
    """Exhaustive scan of all strict 2-category laws."""
    rep = ValidationReport("Fin2Cat")
    for pair, h in a.hom.items():
        sub = validate_category(h)
        for v in sub.violations:
            rep.add(f"hom{pair}:{v.code}", v.cells, v.detail)
    for A in a.objects:
        i = a.id1.get(A)
        if i is None or i not in a._cell1_home or a._cell1_home[i] != (A, A):
            rep.add("id1", (A,), f"object {A} lacks a well-typed identity 1-cell")
    if not rep.ok:
        return rep

    home1, hcomp1, hcomp2 = a._cell1_home, a.hcomp1, a.hcomp2
    cells1 = a.all_one_cells()
    into1 = {}  # object -> the 1-cells into it, sorted
    for f in cells1:
        into1.setdefault(home1[f][1], []).append(f)
    # hcomp1 totality and typing
    for g in cells1:
        for f in into1.get(home1[g][0], ()):
            if (g, f) not in hcomp1:
                rep.add("hcomp1-missing", (g, f), "composable 1-cells have no entry")
                continue
            gf = hcomp1[(g, f)]
            if home1.get(gf) != (home1[f][0], home1[g][1]):
                rep.add("hcomp1-typing", (g, f, gf), "composite 1-cell mistyped")
    if not rep.ok:
        return rep
    # hcomp2 totality and typing
    cells2 = a.all_two_cells()
    ends2, id2 = {}, {}  # 2-cell -> (src1, tgt1); 1-cell -> its identity 2-cell
    for h in a.hom.values():
        ends2.update(h.arrows)
        id2.update(h.identity)
    into2 = {}  # object -> the 2-cells between 1-cells into it, sorted
    for x in cells2:
        into2.setdefault(home1[ends2[x][0]][1], []).append(x)
    for b in cells2:
        bs, bt = ends2[b]
        for x in into2.get(home1[bs][0], ()):
            if (b, x) not in hcomp2:
                rep.add("hcomp2-missing", (b, x), "composable 2-cells have no entry")
                continue
            bx = hcomp2[(b, x)]
            xs, xt = ends2[x]
            if ends2.get(bx) != (hcomp1[(bs, xs)], hcomp1[(bt, xt)]):
                rep.add("hcomp2-typing", (b, x, bx), "composite 2-cell mistyped")
    if not rep.ok:
        return rep
    # units
    for f in cells1:
        A, B = home1[f]
        if hcomp1[(a.id1[B], f)] != f or hcomp1[(f, a.id1[A])] != f:
            rep.add("unit1", (f,), f"identity 1-cells are not units at {f}")
    for x in cells2:
        A, B = home1[ends2[x][0]]
        if hcomp2[(id2[a.id1[B]], x)] != x or hcomp2[(x, id2[a.id1[A]])] != x:
            rep.add("unit2", (x,), f"identity 2-cells of identity 1-cells are not units at {x}")
    # associativity of 1-cell composition
    for h in cells1:
        for g in into1.get(home1[h][0], ()):
            hg = hcomp1[(h, g)]
            for f in into1.get(home1[g][0], ()):
                if hcomp1[(hg, f)] != hcomp1[(h, hcomp1[(g, f)])]:
                    rep.add("assoc1", (h, g, f), "1-cell composition not associative")
    # associativity of 2-cell horizontal composition
    for z in cells2:
        for y in into2.get(home1[ends2[z][0]][0], ()):
            zy = hcomp2[(z, y)]
            for x in into2.get(home1[ends2[y][0]][0], ()):
                if hcomp2[(zy, x)] != hcomp2[(z, hcomp2[(y, x)])]:
                    rep.add("assoc2", (z, y, x), "2-cell horizontal composition not associative")
    # functoriality of hcomp: identities and interchange
    for g in cells1:
        for f in into1.get(home1[g][0], ()):
            if hcomp2[(id2[g], id2[f])] != id2[hcomp1[(g, f)]]:
                rep.add("hcomp-id", (g, f), "horizontal composite of identity 2-cells wrong")
    homs_into = {}  # object -> the homs (pair, hom) into it
    composable = {}  # hom -> its composable pairs (b2, b1) of 2-cells, sorted
    for pair, h in a.hom.items():
        homs_into.setdefault(pair[1], []).append((pair, h))
        ordered = sorted(h.arrows)
        ending = {}
        for b in ordered:
            ending.setdefault(h.tgt(b), []).append(b)
        composable[pair] = [(b2, b1) for b2 in ordered for b1 in ending.get(h.src(b2), ())]
    for pairL, hL in a.hom.items():
        for pairR, hR in homs_into.get(pairL[0], ()):
            rhs_cat = a.hom[(pairR[0], pairL[1])]
            for b2, b1 in composable[pairL]:
                b21 = hL.compose[(b2, b1)]
                for a2, a1 in composable[pairR]:
                    lhs = a.hcomp2[(b21, hR.compose[(a2, a1)])]
                    rhs = rhs_cat.compose[(a.hcomp2[(b2, a2)], a.hcomp2[(b1, a1)])]
                    if lhs != rhs:
                        rep.add("interchange", (b2, b1, a2, a1), "interchange law fails")
    return rep


# ---------------------------------------------------------------------------
# Wide subcategories and markings


@dataclass(frozen=True)
class WideSub:
    parent: Fin2Cat
    arrows: frozenset  # 1-cell names


def validate_wide_sub(w: WideSub) -> ValidationReport:
    rep = ValidationReport("WideSub")
    a = w.parent
    for f in sorted(w.arrows):
        if f not in a._cell1_home:
            rep.add("unknown-1cell", (f,), f"{f} is not a 1-cell of the parent")
    if not rep.ok:
        return rep
    for A in a.objects:
        if a.id1[A] not in w.arrows:
            rep.add("missing-identity", (A,), f"identity of {A} not in the subcategory")
    for g in sorted(w.arrows):
        for f in sorted(w.arrows):
            if a.src1(g) == a.tgt1(f) and a.hcomp1[(g, f)] not in w.arrows:
                rep.add("not-closed", (g, f), f"composite {a.hcomp1[(g, f)]} missing")
    return rep


def wide_all(a: Fin2Cat) -> WideSub:
    """The underlying category: every 1-cell is marked."""
    return WideSub(a, frozenset(a.all_one_cells()))


def wide_identities(a: Fin2Cat) -> WideSub:
    """Only the identity 1-cells are marked."""
    return WideSub(a, frozenset(a.id1.values()))


def wide_from(a: Fin2Cat, arrows) -> WideSub:
    w = WideSub(a, frozenset(arrows) | frozenset(a.id1.values()))
    rep = validate_wide_sub(w)
    if not rep.ok:
        raise ValidationError(f"not a wide subcategory: {rep.violations[0].detail}")
    return w


def marks(w: WideSub, a) -> bool:
    """Whether ``w`` marks ``a``: its parent is ``a``, or equal to it."""
    return w.parent is a or w.parent == a


@dataclass(frozen=True)
class Marked2Cat:
    cat: Fin2Cat
    sigma: WideSub

    def __post_init__(self):
        if not marks(self.sigma, self.cat):
            raise ValidationError("sigma is not a subcategory of this 2-category")


# ---------------------------------------------------------------------------
# Duals


def op_dual(a: Fin2Cat) -> Fin2Cat:
    """Reverse 1-cells, keep 2-cells.  Involutive on the nose, views too."""
    if isinstance(a, OpView):
        return a.op
    return mk_fin2cat(
        objects=a.objects,
        hom={(B, A): h for (A, B), h in a.hom.items()},
        id1=dict(a.id1),
        hcomp1={(f, g): h for (g, f), h in a.hcomp1.items()},
        hcomp2={(x, y): z for (y, x), z in a.hcomp2.items()},
    )


class _Table(dict):
    """A composition table whose entries are computed on first lookup,
    by ``entry`` on the key's two cells, and kept."""

    def __init__(self, entry):
        super().__init__()
        self.entry = entry

    def __missing__(self, key):
        value = self[key] = self.entry(*key)
        return value

    def fill(self, keys) -> _Table:
        """The table, with the entries at ``keys`` computed."""
        for key in keys:
            if key not in self:
                self[key] = self.entry(*key)
        return self


class OpView:
    """The 1-cell dual of ``a``, read through a's own tables, with nothing
    copied: what ``op_dual(a)`` answers to the filteredness scan and to a
    conical σ-colimit.  ``a`` (``op``) is anything that answers their
    names: a ``Fin2Cat``, a reader of El_P, another view.  A horizontal
    composite is a's under the swapped key, looked up once and kept."""

    def __init__(self, a):
        self.op, self.objects = a, a.objects
        self.src1, self.tgt1, self.src2, self.tgt2 = a.tgt1, a.src1, a.src2, a.tgt2
        self.two_cells_between, self.id2 = a.two_cells_between, a.id2
        self.all_one_cells, self.all_two_cells = a.all_one_cells, a.all_two_cells
        self.is_invertible_2cell = a.is_invertible_2cell
        self.hcomp1 = _Table(lambda g, f: a.hcomp1[(f, g)])
        self.hcomp2 = _Table(lambda y, x: a.hcomp2[(x, y)])

    @property
    def id1(self) -> dict:
        return self.op.id1

    def one_cells(self, A: str, B: str) -> tuple[str, ...]:
        return self.op.one_cells(B, A)


def co_dual(a: Fin2Cat) -> Fin2Cat:
    """Reverse 2-cells, keep 1-cells.  Involutive on the nose."""
    return mk_fin2cat(
        objects=a.objects,
        hom={pair: h.op() for pair, h in a.hom.items()},
        id1=dict(a.id1),
        hcomp1=dict(a.hcomp1),
        hcomp2=dict(a.hcomp2),
    )


# ---------------------------------------------------------------------------
# Constructions


def two_cat_from_cat(c: FinCat) -> Fin2Cat:
    """A 1-category viewed as a 2-category with only identity 2-cells."""
    hom = {}
    for A in c.objects:
        for B in c.objects:
            cells = c.hom(A, B)
            arrows = {f"i2_{f}": (f, f) for f in cells}
            hom[(A, B)] = mk_fincat(cells, arrows,
                                    {f: f"i2_{f}" for f in cells},
                                    {(f"i2_{f}", f"i2_{f}"): f"i2_{f}" for f in cells})
    hcomp1 = dict(c.compose)
    hcomp2 = {(f"i2_{g}", f"i2_{f}"): f"i2_{h}" for (g, f), h in c.compose.items()}
    return mk_fin2cat(c.objects, hom, dict(c.identity), hcomp1, hcomp2)


def terminal_2cat() -> Fin2Cat:
    return two_cat_from_cat(terminal_category())


def two_cat_product(a: Fin2Cat, b: Fin2Cat) -> Fin2Cat:
    """Cartesian product; cells are pair names, as in product_category.

    A pair name shared by two pairs of cells is refused."""
    objects = list(pair_table(sorted(a.objects), sorted(b.objects)))
    pair_table(a.all_one_cells(), b.all_one_cells())
    pair_table(a.all_two_cells(), b.all_two_cells())
    hom = {}
    for A1 in a.objects:
        for A2 in a.objects:
            for B1 in b.objects:
                for B2 in b.objects:
                    hom[(pair_name(A1, B1), pair_name(A2, B2))] = product_category(
                        a.hom[(A1, A2)], b.hom[(B1, B2)])
    id1 = {pair_name(A, B): pair_name(a.id1[A], b.id1[B])
           for A in a.objects for B in b.objects}
    hcomp1 = {}
    for (g1, f1), h1 in a.hcomp1.items():
        for (g2, f2), h2 in b.hcomp1.items():
            hcomp1[(pair_name(g1, g2), pair_name(f1, f2))] = pair_name(h1, h2)
    hcomp2 = {}
    for (y1, x1), z1 in a.hcomp2.items():
        for (y2, x2), z2 in b.hcomp2.items():
            hcomp2[(pair_name(y1, y2), pair_name(x1, x2))] = pair_name(z1, z2)
    return mk_fin2cat(objects, hom, id1, hcomp1, hcomp2)


def parallel_2cells_2cat(cells: tuple[str, ...] = ()) -> Fin2Cat:
    """Two objects, parallel 1-cells u, v : a -> b, and one 2-cell u => v
    for each name in ``cells``.

    The homs are free on the named 2-cells: being parallel, no two of them
    compose.  With no cells this is the parallel pair viewed as a
    2-category; with one, the free 2-cell.
    """
    def single(f):
        return mk_fincat((f,), {f"i2_{f}": (f, f)}, {f: f"i2_{f}"},
                         {(f"i2_{f}", f"i2_{f}"): f"i2_{f}"})

    compose = {("i2_u", "i2_u"): "i2_u", ("i2_v", "i2_v"): "i2_v"}
    for x in cells:
        compose[(x, "i2_u")] = x
        compose[("i2_v", x)] = x
    hom_ab = mk_fincat(("u", "v"),
                       {"i2_u": ("u", "u"), "i2_v": ("v", "v"),
                        **{x: ("u", "v") for x in cells}},
                       {"u": "i2_u", "v": "i2_v"}, compose)
    hom = {("a", "a"): single("id_a"), ("a", "b"): hom_ab,
           ("b", "a"): mk_fincat((), {}, {}, {}), ("b", "b"): single("id_b")}
    hcomp1 = {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b"}
    hcomp2 = {("i2_id_a", "i2_id_a"): "i2_id_a", ("i2_id_b", "i2_id_b"): "i2_id_b"}
    for f in ("u", "v"):
        hcomp1[(f, "id_a")] = f
        hcomp1[("id_b", f)] = f
    for x in ("i2_u", "i2_v", *cells):
        hcomp2[(x, "i2_id_a")] = x
        hcomp2[("i2_id_b", x)] = x
    return mk_fin2cat(("a", "b"), hom, {"a": "id_a", "b": "id_b"}, hcomp1, hcomp2)


def free_2cell_2cat() -> Fin2Cat:
    """Two objects, parallel 1-cells u, v : a -> b, one 2-cell th : u => v."""
    return parallel_2cells_2cat(("th",))


# ``colimits`` builds on this module, so the plan's class is imported last,
# once every name ``colimits`` reads from here is defined.
from .colimits import BilimitPlan  # noqa: E402
