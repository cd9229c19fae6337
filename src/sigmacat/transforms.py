"""Cat-valued diagrams and the four flavors of natural transformation.

A CatDiagram assigns a FinCat to every object of a finite 2-category, a
Functor to every 1-cell and a NatTransf to every 2-cell; pseudofunctors
additionally carry invertible structure cells for identities and
composites.  Transformations between diagrams carry a component functor
per object and a structural natural transformation per 1-cell, directed
``Q(f)∘θ_A ⇒ θ_B∘P(f)``, and are classified by flavor:

    s      every structural cell is an identity
    p      every structural cell is invertible
    sigma  structural cells at marked 1-cells are invertible
    l      no invertibility required

Hom categories of a given flavor are produced by exhaustive enumeration
(``hom_eps``): components first, then structural cells, pruning with the
per-2-cell axiom before the composition axiom.  On strict and pseudo
input, in every flavour, ``hom_eps`` is the reference for
``colimits.weighted_sigma_limit`` and the target of the benchmark's
direct calls; it answers only the callers that need the
``Transformation`` objects.  The enumerators decide each axiom
pointwise on component tables, as lookups in the target categories'
composition tables, and build a Transformation or Modification only for
the candidates they accept.  ``check_transformation`` and
``check_modification`` state the same axioms with whiskered functors and
transformations; they are the functor-level reference.  Enumeration
order is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .config import Meter
from .errors import PreconditionFailed
from .fincat import (FinCat, Functor, NatTransf, ValidationReport,
                     assemble_category, compose_functors, enumerate_functors,
                     enumerate_nat_transfs, identity_functor, idn, invert_nat,
                     nat_is_identity, nat_is_invertible, validate_functor,
                     validate_nat_transf, vcomp_nat, whisker_functor_nat,
                     whisker_nat_functor)
from .two_cat import Fin2Cat, WideSub, op_dual


# ---------------------------------------------------------------------------
# Strict 2-functors between finite 2-categories


@dataclass(frozen=True)
class TwoFunctor:
    source: Fin2Cat
    target: Fin2Cat
    obj_map: dict
    map1: dict  # 1-cell -> 1-cell
    map2: dict  # 2-cell -> 2-cell


def validate_twofunctor(F: TwoFunctor) -> ValidationReport:
    rep = ValidationReport("TwoFunctor")
    a, b = F.source, F.target
    for A in a.objects:
        if F.obj_map.get(A) not in b.objects:
            rep.add("obj-map", (A,), f"object {A} not mapped")
    for f in a.all_one_cells():
        g = F.map1.get(f)
        if g is None or g not in b._cell1_home:
            rep.add("map1", (f,), f"1-cell {f} not mapped")
            continue
        ends = (F.obj_map.get(a.src1(f)), F.obj_map.get(a.tgt1(f)))
        if None not in ends and b._cell1_home[g] != ends:
            rep.add("map1-typing", (f, g), f"image of {f} mistyped")
    for x in a.all_two_cells():
        y = F.map2.get(x)
        if y is None or y not in b._cell2_home:
            rep.add("map2", (x,), f"2-cell {x} not mapped")
            continue
        ends = (F.map1.get(a.src2(x)), F.map1.get(a.tgt2(x)))
        if None not in ends and (b.src2(y), b.tgt2(y)) != ends:
            rep.add("map2-typing", (x, y), f"image of {x} mistyped")
    if not rep.ok:
        return rep
    for A in a.objects:
        if F.map1[a.id1[A]] != b.id1[F.obj_map[A]]:
            rep.add("id1", (A,), "identity 1-cell not preserved")
    for f in a.all_one_cells():
        if F.map2[a.id2(f)] != b.id2(F.map1[f]):
            rep.add("id2", (f,), "identity 2-cell not preserved")
    for (g, f), h in a.hcomp1.items():
        if b.hcomp1[(F.map1[g], F.map1[f])] != F.map1[h]:
            rep.add("hcomp1", (g, f), "1-cell composition not preserved")
    for (y, x), z in a.hcomp2.items():
        if b.hcomp2[(F.map2[y], F.map2[x])] != F.map2[z]:
            rep.add("hcomp2", (y, x), "2-cell horizontal composition not preserved")
    for pair, h in a.hom.items():
        for (q, p), r in h.compose.items():
            if F.target.vcomp(F.map2[q], F.map2[p]) != F.map2[r]:
                rep.add("vcomp", (q, p), "vertical composition not preserved")
    return rep


def identity_twofunctor(a: Fin2Cat) -> TwoFunctor:
    return TwoFunctor(a, a, {A: A for A in a.objects},
                      {f: f for f in a.all_one_cells()},
                      {x: x for x in a.all_two_cells()})


# ---------------------------------------------------------------------------
# Cat-valued diagrams


@dataclass(frozen=True)
class CatDiagram:
    """A Cat-valued diagram on a finite 2-category, strict or pseudo.

    Diagrams are never mutated after construction; ``alpha_at`` and
    ``alpha_pair`` rely on this, since a strict diagram builds its
    identity-shaped structure cells once, on first use, and keeps them.
    """

    source: Fin2Cat
    on_obj: dict  # object -> FinCat
    on_1: dict  # 1-cell -> Functor
    on_2: dict  # 2-cell -> NatTransf
    kind: str = "strict"  # strict | pseudo
    alpha_obj: dict | None = None  # object -> invertible NatTransf id ⇒ P(id_A)
    alpha_comp: dict | None = None  # (f, g) -> invertible NatTransf P(g)P(f) ⇒ P(gf)

    @property
    def is_pseudo(self) -> bool:
        return self.kind == "pseudo"

    def alpha_at(self, A: str) -> NatTransf:
        """The structure cell id ⇒ P(id_A); identity when strict."""
        return self._alpha_units[A]

    def alpha_pair(self, f: str, g: str) -> NatTransf:
        """The structure cell P(g)P(f) ⇒ P(gf); identity when strict."""
        return self._alpha_pairs[(f, g)]

    @cached_property
    def _alpha_units(self) -> dict:
        if self.is_pseudo:
            return self.alpha_obj
        return {A: idn(identity_functor(self.on_obj[A]), self.on_1[self.source.id1[A]])
                for A in self.source.objects}

    @cached_property
    def _alpha_pairs(self) -> dict:
        if self.is_pseudo:
            return self.alpha_comp
        return {(f, g): idn(compose_functors(self.on_1[g], self.on_1[f]),
                            self.on_1[gf])
                for (g, f), gf in self.source.hcomp1.items()}


def constant_diagram(base: Fin2Cat, c: FinCat) -> CatDiagram:
    idf = identity_functor(c)
    cell = idn(idf)
    return CatDiagram(base, {A: c for A in base.objects},
                      {f: idf for f in base.all_one_cells()},
                      {x: cell for x in base.all_two_cells()})


def compose_diagram(P: CatDiagram, H: TwoFunctor) -> CatDiagram:
    """The diagram P∘H on H's source."""
    if H.target != P.source:
        raise PreconditionFailed("diagram and 2-functor are not composable")
    on_obj = {A: P.on_obj[H.obj_map[A]] for A in H.source.objects}
    on_1 = {f: P.on_1[H.map1[f]] for f in H.source.all_one_cells()}
    on_2 = {x: P.on_2[H.map2[x]] for x in H.source.all_two_cells()}
    if not P.is_pseudo:
        return CatDiagram(H.source, on_obj, on_1, on_2)
    a_obj = {A: P.alpha_obj[H.obj_map[A]] for A in H.source.objects}
    a_comp = {}
    for (g, f) in H.source.hcomp1:
        a_comp[(f, g)] = P.alpha_comp[(H.map1[f], H.map1[g])]
    return CatDiagram(H.source, on_obj, on_1, on_2, "pseudo", a_obj, a_comp)


def dual_twofunctor(T: TwoFunctor) -> TwoFunctor:
    """T between the 1-cell duals of its source and target, same maps; a
    cocone under T is a cone over it."""
    return TwoFunctor(op_dual(T.source), op_dual(T.target), T.obj_map, T.map1, T.map2)


def validate_diagram(P: CatDiagram) -> ValidationReport:
    """Structural validation plus the strict laws or the pseudo axioms.

    Every law is read off the tables, building no functor and no
    transformation: a composite is one lookup per object or arrow.
    - on-*: each P(f) against the categories assigned to its ends and
      ``validate_functor``; the ends of each P(x) against the object and
      arrow tables of P(f) and P(g), then ``validate_nat_transf``;
    - vert-id, vert-comp: each hom's identity and composition tables,
      against P(x)'s components composed in P(B)'s composition table;
    - strict-id, strict-comp: the object and arrow tables of P(id_A), and
      per ``hcomp1`` entry those of P(g∘f) against P(g)'s read at P(f)'s;
    - strict-hcomp2, alpha-natural: per ``hcomp2`` entry (y, x), with
      x : f ⇒ f' and y : g ⇒ g', P(y) * P(x) is P(y)'s components at
      P(f')'s objects after P(g)'s arrow table at P(x)'s components;
    - alpha-typing, alpha-obj, alpha-comp: the ends of each structure cell
      as for P(x), and its components invertible in the target category;
    - LF0, LF1: the structure cells' components composed in the target
      category's table; LF1 walks the 1-cells into each object.
    """
    rep = ValidationReport("CatDiagram")
    base = P.source
    for A in base.objects:
        if A not in P.on_obj:
            rep.add("on-obj", (A,), f"object {A} not assigned")
    for f in base.all_one_cells():
        F = P.on_1.get(f)
        if F is None:
            rep.add("on-1", (f,), f"1-cell {f} not assigned")
            continue
        if F.source != P.on_obj[base.src1(f)] or F.target != P.on_obj[base.tgt1(f)]:
            rep.add("on-1-typing", (f,), f"functor at {f} mistyped")
        elif not validate_functor(F).ok:
            rep.add("on-1-functor", (f,), f"assignment at {f} is not a functor")
    for x in base.all_two_cells():
        n = P.on_2.get(x)
        if n is None:
            rep.add("on-2", (x,), f"2-cell {x} not assigned")
            continue
        if _tables(n.source) != _tables(P.on_1[base.src2(x)]) or \
                _tables(n.target) != _tables(P.on_1[base.tgt2(x)]):
            rep.add("on-2-typing", (x,), f"transformation at {x} mistyped")
        elif not validate_nat_transf(n).ok:
            rep.add("on-2-natural", (x,), f"assignment at {x} is not natural")
    if not rep.ok:
        return rep

    # vertical functoriality holds for both kinds
    on_1, on_2 = P.on_1, P.on_2
    for h in base.hom.values():
        for f in h.objects:
            F = on_1[f]
            ident, fo = F.target.identity, F.obj_map
            if on_2[h.identity[f]].components != {x: ident[fo[x]] for x in F.source.objects}:
                rep.add("vert-id", (f,), f"identity 2-cell at {f} not sent to identity")
        for (q, p), r in h.compose.items():
            after, first = on_2[q].components, on_2[p]
            comp = first.source.target.compose
            if {x: comp[(after[x], a)] for x, a in first.components.items()} != \
                    on_2[r].components:
                rep.add("vert-comp", (q, p), "vertical composition not preserved")

    if not P.is_pseudo:
        for A in base.objects:
            if _tables(on_1[base.id1[A]]) != _identity_tables(P.on_obj[A]):
                rep.add("strict-id", (A,), f"identity 1-cell of {A} not the identity functor")
        for (g, f), h in base.hcomp1.items():
            if _composite(on_1[g], on_1[f]) != _tables(on_1[h]):
                rep.add("strict-comp", (g, f), f"P({g}∘{f}) != P({g})P({f})")
        for (y, x), z in base.hcomp2.items():
            if _hcomp(on_2[y], on_2[x]) != on_2[z].components:
                rep.add("strict-hcomp2", (y, x), "horizontal 2-cell action not preserved")
        return rep

    # pseudo axioms
    if P.alpha_obj is None or P.alpha_comp is None:
        rep.add("alpha-missing", (), "pseudo diagram lacks structure cells")
        return rep
    for A in base.objects:
        n = P.alpha_obj.get(A)
        if n is None or _tables(n.source) != _identity_tables(P.on_obj[A]) or \
                _tables(n.target) != _tables(on_1[base.id1[A]]) or \
                not validate_nat_transf(n).ok:
            rep.add("alpha-typing", (A,), f"unit cell at {A} mistyped")
        elif not nat_is_invertible(n):
            rep.add("alpha-obj", (A,), f"unit cell at {A} not invertible")
    for (g, f), gf in base.hcomp1.items():
        n = P.alpha_comp.get((f, g))
        if n is None or _tables(n.source) != _composite(on_1[g], on_1[f]) or \
                _tables(n.target) != _tables(on_1[gf]) or not validate_nat_transf(n).ok:
            rep.add("alpha-typing", (f, g), f"composition cell at ({f},{g}) mistyped")
        elif not nat_is_invertible(n):
            rep.add("alpha-comp", (f, g), "composition cell not invertible")
    if not rep.ok:
        return rep
    cells = {fg: n.components for fg, n in P.alpha_comp.items()}
    cells1 = base.all_one_cells()
    into = {}  # object -> the 1-cells into it, sorted
    # LF0: unit coherence, in P(B) for f : A -> B
    for f in cells1:
        (A, B), F = base.hom_of_1cell(f), on_1[f]
        into.setdefault(B, []).append(f)
        comp, is_id = P.on_obj[B].compose, P.on_obj[B].is_identity
        left, unit = cells[(f, base.id1[B])], P.alpha_obj[B].components
        if not all(is_id(comp[(left[x], unit[F.obj_map[x]])]) for x in F.source.objects):
            rep.add("LF0", (f,), f"unit coherence fails on the left at {f}")
        right, unit = cells[(base.id1[A], f)], P.alpha_obj[A].components
        if not all(is_id(comp[(right[x], F.arr_map[a])]) for x, a in unit.items()):
            rep.add("LF0", (f,), f"unit coherence fails on the right at {f}")
    # LF1: associativity coherence, in P(D) for h ending at D
    for h in cells1:
        comp, ha = on_1[h].target.compose, on_1[h].arr_map
        for g in into.get(base.src1(h), ()):
            hg, gh = base.hcomp1[(h, g)], cells[(g, h)]
            for f in into.get(base.src1(g), ()):
                F = on_1[f]
                outer, right = cells[(base.hcomp1[(g, f)], h)], cells[(f, hg)]
                lhs = {x: comp[(outer[x], ha[a])] for x, a in cells[(f, g)].items()}
                if lhs != {x: comp[(right[x], gh[F.obj_map[x]])] for x in F.source.objects}:
                    rep.add("LF1", (f, g, h), "associativity coherence fails")
    # naturality of the composition cells in both arguments
    for (y, x), z in base.hcomp2.items():
        g = base.src2(y)
        comp, image = on_1[g].target.compose, on_2[z].components
        outer = cells[(base.tgt2(x), base.tgt2(y))]
        lhs = {o: comp[(outer[o], a)] for o, a in _hcomp(on_2[y], on_2[x]).items()}
        if lhs != {o: comp[(image[o], a)] for o, a in cells[(base.src2(x), g)].items()}:
            rep.add("alpha-natural", (y, x), "structure cells not natural")
    return rep


def _tables(F: Functor) -> tuple:
    return F.obj_map, F.arr_map


def _identity_tables(c: FinCat) -> tuple:
    return {x: x for x in c.objects}, {a: a for a in c.arrows}


def _composite(G: Functor, F: Functor) -> tuple:
    """The tables of G∘F."""
    go, ga = G.obj_map, G.arr_map
    return {x: go[y] for x, y in F.obj_map.items()}, {a: ga[b] for a, b in F.arr_map.items()}


def _hcomp(b: NatTransf, a: NatTransf) -> dict:
    """The components of b * a (a on the inside), a : F ⇒ F', b : G ⇒ G':
    b at F'o after G of a at o, in G's target."""
    comp, bc, ga, fo = b.source.target.compose, b.components, b.source.arr_map, a.target.obj_map
    return {o: comp[(bc[fo[o]], ga[ao])] for o, ao in a.components.items()}


def reinterpret_as_pseudo(P: CatDiagram) -> CatDiagram:
    """A strict diagram with identity structure cells."""
    if P.is_pseudo:
        return P
    base = P.source
    a_obj = {A: P.alpha_at(A) for A in base.objects}
    a_comp = {(f, g): P.alpha_pair(f, g) for (g, f) in base.hcomp1}
    return CatDiagram(base, P.on_obj, P.on_1, P.on_2, "pseudo", a_obj, a_comp)


# ---------------------------------------------------------------------------
# Flavors


@dataclass(frozen=True)
class Flavor:
    kind: str  # 's' | 'p' | 'sigma' | 'l'
    marked: frozenset = frozenset()

    def requires_identity(self) -> bool:
        return self.kind == "s"

    def requires_invertible(self, f: str) -> bool:
        if self.kind == "p":
            return True
        if self.kind == "sigma":
            return f in self.marked
        return False

    def label(self) -> str:
        return self.kind if self.kind != "sigma" else f"sigma({len(self.marked)})"


STRICT = Flavor("s")
PSEUDO = Flavor("p")
LAX = Flavor("l")


def sigma_flavor(marked) -> Flavor:
    if isinstance(marked, WideSub):
        marked = marked.arrows
    return Flavor("sigma", frozenset(marked))


# ---------------------------------------------------------------------------
# Transformations and modifications


@dataclass(frozen=True)
class Transformation:
    source: CatDiagram
    target: CatDiagram
    components: dict  # object -> Functor
    structural: dict  # 1-cell -> NatTransf  Q(f)θ_A ⇒ θ_B P(f)
    flavor: Flavor

    def key(self) -> tuple:
        return (tuple((A, self.components[A].key()) for A in sorted(self.components)),
                tuple((f, self.structural[f].key()) for f in sorted(self.structural)))


@dataclass(frozen=True)
class Modification:
    source: Transformation
    target: Transformation
    components: dict  # object -> NatTransf

    def key(self) -> tuple:
        return tuple((A, self.components[A].key()) for A in sorted(self.components))


def check_transformation(t: Transformation) -> ValidationReport:
    """Axiom scan for the declared flavor.

    Strict diagrams use the plain axioms; pseudo diagrams use the forms
    with the structure cells spliced in.  Violations name the axiom and
    the offending cell.
    """
    rep = ValidationReport("Transformation")
    P, Q = t.source, t.target
    base = P.source
    if Q.source != base:
        rep.add("base-mismatch", (), "source and target live over different bases")
        return rep
    for A in base.objects:
        th = t.components.get(A)
        if th is None:
            rep.add("component-missing", (A,), f"no component at {A}")
            continue
        if th.source != P.on_obj[A] or th.target != Q.on_obj[A]:
            rep.add("component-typing", (A,), f"component at {A} mistyped")
        elif not validate_functor(th).ok:
            rep.add("component-functor", (A,), f"component at {A} is not a functor")
    if not rep.ok:
        return rep
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        n = t.structural.get(f)
        if n is None:
            rep.add("structural-missing", (f,), f"no structural cell at {f}")
            continue
        want_src = compose_functors(Q.on_1[f], t.components[A])
        want_tgt = compose_functors(t.components[B], P.on_1[f])
        if n.source.key() != want_src.key() or n.target.key() != want_tgt.key():
            rep.add("structural-typing", (f,), f"structural cell at {f} mistyped")
        elif not validate_nat_transf(n).ok:
            rep.add("structural-natural", (f,), f"structural cell at {f} not natural")
    if not rep.ok:
        return rep

    # flavor conditions
    for f in base.all_one_cells():
        if t.flavor.requires_identity() and not nat_is_identity(t.structural[f]):
            rep.add("invertibility", (f,), f"strict flavor needs identity cell at {f}")
        elif t.flavor.requires_invertible(f) and not nat_is_invertible(t.structural[f]):
            rep.add("invertibility", (f,), f"structural cell at {f} must be invertible")

    # LN0
    for A in base.objects:
        idA = base.id1[A]
        th = t.components[A]
        lhs = vcomp_nat(t.structural[idA], whisker_nat_functor(Q.alpha_at(A), th))
        rhs = whisker_functor_nat(th, P.alpha_at(A))
        if lhs.components != rhs.components:
            rep.add("LN0", (A,), f"identity coherence fails at {A}")
    # LN2, per design the cheaper per-2-cell axiom, before LN1
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        A, B = base.src1(f), base.tgt1(f)
        lhs = vcomp_nat(whisker_functor_nat(t.components[B], P.on_2[x]),
                        t.structural[f])
        rhs = vcomp_nat(t.structural[g],
                        whisker_nat_functor(Q.on_2[x], t.components[A]))
        if lhs.components != rhs.components:
            rep.add("LN2", (x,), f"2-cell compatibility fails at {x}")
    # LN1
    for (g, f), gf in base.hcomp1.items():
        A = base.src1(f)
        C = base.tgt1(g)
        lhs = vcomp_nat(t.structural[gf],
                        whisker_nat_functor(Q.alpha_pair(f, g), t.components[A]))
        rhs = vcomp_nat(
            whisker_functor_nat(t.components[C], P.alpha_pair(f, g)),
            vcomp_nat(whisker_nat_functor(t.structural[g], P.on_1[f]),
                      whisker_functor_nat(Q.on_1[g], t.structural[f])))
        if lhs.components != rhs.components:
            rep.add("LN1", (gf,), f"composition coherence fails at ({g},{f})")
    return rep


def check_modification(m: Modification) -> ValidationReport:
    rep = ValidationReport("Modification")
    t, t2 = m.source, m.target
    P, Q = t.source, t.target
    base = P.source
    for A in base.objects:
        n = m.components.get(A)
        if n is None:
            rep.add("component-missing", (A,), f"no component at {A}")
            continue
        if n.source.key() != t.components[A].key() or \
                n.target.key() != t2.components[A].key():
            rep.add("component-typing", (A,), f"component at {A} mistyped")
        elif not validate_nat_transf(n).ok:
            rep.add("component-natural", (A,), f"component at {A} not natural")
    if not rep.ok:
        return rep
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        lhs = vcomp_nat(t2.structural[f],
                        whisker_functor_nat(Q.on_1[f], m.components[A]))
        rhs = vcomp_nat(whisker_nat_functor(m.components[B], P.on_1[f]),
                        t.structural[f])
        if lhs.components != rhs.components:
            rep.add("LNM", (f,), f"modification square fails at {f}")
    return rep


# ---------------------------------------------------------------------------
# Enumeration of Hom categories


@dataclass
class HomCategory:
    cat: FinCat
    transfs: dict  # object name -> Transformation
    mods: dict  # arrow name -> Modification
    flavor: Flavor

    @cached_property
    def _transf_names(self) -> dict:
        out = {}
        for name, u in self.transfs.items():
            out.setdefault(u.key(), name)
        return out

    def name_of_transf(self, t: Transformation) -> str:
        try:
            return self._transf_names[t.key()]
        except KeyError:
            raise KeyError("transformation is not an object of this Hom category") \
                from None


def enumerate_transformations(P: CatDiagram, Q: CatDiagram, flavor: Flavor,
                              meter: Meter | None = None) -> list[Transformation]:
    meter = meter or Meter()
    base = P.source
    if Q.source != base:
        raise PreconditionFailed("the diagrams live on different bases")
    strict = flavor.requires_identity()
    if strict and (P.is_pseudo or Q.is_pseudo):
        raise PreconditionFailed("strict flavor requires strict diagrams")
    objs = sorted(base.objects)
    comp_pools = [enumerate_functors(P.on_obj[A], Q.on_obj[A], meter) for A in objs]
    if any(not pool for pool in comp_pools):
        return []
    ids = set(base.id1.values())
    non_id = [f for f in base.all_one_cells() if f not in ids]
    ln2, ln1 = _coherence_tables(P, Q)
    # what depends on one component choice is built once per choice:
    # (A, i) -> the identity cell LN0 forces on the i-th component at A,
    # an identity for strict P and Q, so for the strict flavor;
    # (f, i, j) -> the source and target of the cell at f between the i-th
    # components at its ends, and the strict flavor's identity cell if any
    forced, typed = {}, {}
    out = []
    for idx in itertools.product(*(range(len(pool)) for pool in comp_pools)):
        meter.tick()
        at = dict(zip(objs, idx))
        comps = {A: pool[i] for A, pool, i in zip(objs, comp_pools, idx)}
        structural = {}
        for A in objs:
            if (A, at[A]) not in forced:
                forced[(A, at[A])] = _forced_identity_cell(P, Q, A, comps[A])
            structural[base.id1[A]] = forced[(A, at[A])]
        ok = True
        pools = []
        for f in non_id:
            A, B = base.src1(f), base.tgt1(f)
            if (f, at[A], at[B]) not in typed:
                src = compose_functors(Q.on_1[f], comps[A])
                tgt = compose_functors(comps[B], P.on_1[f])
                same = strict and src.key() == tgt.key()
                typed[(f, at[A], at[B])] = (
                    src, tgt, idn(src, tgt) if same else None)
            src, tgt, identity = typed[(f, at[A], at[B])]
            if strict:
                pool = [identity] if identity is not None else []
            else:
                pool = enumerate_nat_transfs(src, tgt, meter)
                if flavor.requires_invertible(f):
                    pool = [n for n in pool if nat_is_invertible(n)]
            if not pool:
                ok = False
                break
            pools.append(pool)
        if not ok:
            continue
        eqs2, eqs1 = _bind_components(ln2, ln1, comps)
        fixed = {f: n.components for f, n in structural.items()}
        for cells in itertools.product(*pools):
            meter.tick()
            cc = dict(fixed)
            cc.update(zip(non_id, [n.components for n in cells]))
            if _coherent(eqs2, eqs1, cc):
                st = dict(structural)
                st.update(zip(non_id, cells))
                out.append(Transformation(P, Q, comps, st, flavor))
    out.sort(key=lambda t: t.key())
    return out


def _forced_identity_cell(P: CatDiagram, Q: CatDiagram, A: str, th: Functor) -> NatTransf:
    """The cell at id_A that LN0 forces on θ_A."""
    idA = P.source.id1[A]
    rhs = whisker_functor_nat(th, P.alpha_at(A))
    pre = whisker_nat_functor(Q.alpha_at(A), th)
    forced = vcomp_nat(rhs, invert_nat(pre))
    return NatTransf(compose_functors(Q.on_1[idA], th), compose_functors(th, P.on_1[idA]),
                     forced.components)


def _coherence_tables(P: CatDiagram, Q: CatDiagram) -> tuple[list, list]:
    """The tables LN2 and LN1 read, per 2-cell and per composable pair.

    LN2 at x : f ⇒ g (f, g : A → B) reads P(x), Q(x) and Q(B)'s
    composition; LN1 at (g, f) with f : A → B, g : B → C reads the two
    composition cells at (f, g), P(f) on objects, Q(g) on arrows and
    Q(C)'s composition.  Each equation is checked at every object y of
    P(A).
    """
    base = P.source
    ln2 = []
    for x in base.all_two_cells():
        f, g = base.src2(x), base.tgt2(x)
        A, B = base.src1(f), base.tgt1(f)
        ln2.append((f, g, A, B, Q.on_obj[B].compose, P.on_2[x].components,
                    Q.on_2[x].components, P.on_obj[A].objects))
    ln1 = []
    for (g, f), gf in base.hcomp1.items():
        A, C = base.src1(f), base.tgt1(g)
        ln1.append((gf, g, f, A, C, Q.on_obj[C].compose,
                    Q.alpha_pair(f, g).components, P.alpha_pair(f, g).components,
                    P.on_1[f].obj_map, Q.on_1[g].arr_map, P.on_obj[A].objects))
    return ln2, ln1


def _bind_components(ln2: list, ln1: list, comps: dict) -> tuple[list, list]:
    """``_coherence_tables`` with the component functors applied."""
    eqs2 = []
    for f, g, A, B, cmp, px, qx, ys in ln2:
        thA, thB = comps[A].obj_map, comps[B].arr_map
        eqs2.append((f, g, cmp, [(y, thB[px[y]], qx[thA[y]]) for y in ys]))
    eqs1 = []
    for gf, g, f, A, C, cmp, aq, ap, pf, qg, ys in ln1:
        thA, thC = comps[A].obj_map, comps[C].arr_map
        eqs1.append((gf, g, f, cmp, qg,
                     [(y, aq[thA[y]], thC[ap[y]], pf[y]) for y in ys]))
    return eqs2, eqs1


def _coherent(eqs2: list, eqs1: list, cells: dict) -> bool:
    """LN2, then LN1, pointwise on the structural cells' components.

    Per object y of ``_bind_components``' rows, LN2 compares
    θ_B(P(x)_y)∘σ_f,y with σ_g,y∘Q(x)_θ_A(y) and LN1 compares
    σ_gf,y∘αQ_θ_A(y) with θ_C(αP_y)∘σ_g,P(f)y∘Q(g)(σ_f,y).  Composition
    tables have entries only for composable pairs, so a mistyped component
    raises KeyError instead of giving an answer.
    """
    for f, g, cmp, rows in eqs2:
        sf, sg = cells[f], cells[g]
        for y, left, right in rows:
            if cmp[(left, sf[y])] != cmp[(sg[y], right)]:
                return False
    for gf, g, f, cmp, qg, rows in eqs1:
        sgf, sg, sf = cells[gf], cells[g], cells[f]
        for y, aq, ap, fy in rows:
            if cmp[(sgf[y], aq)] != cmp[(ap, cmp[(sg[fy], qg[sf[y]])])]:
                return False
    return True


def enumerate_modifications(t1: Transformation, t2: Transformation,
                            meter: Meter | None = None) -> list[Modification]:
    meter = meter or Meter()
    P, Q = t1.source, t1.target
    base = P.source
    objs = sorted(base.objects)
    pools = [enumerate_nat_transfs(t1.components[A], t2.components[A], meter)
             for A in objs]
    if any(not p for p in pools):
        return []
    pos = {A: k for k, A in enumerate(objs)}
    squares = []  # LNM at f : A → B, per object y of P(A)
    for f in base.all_one_cells():
        A, B = base.src1(f), base.tgt1(f)
        s1, s2 = t1.structural[f].components, t2.structural[f].components
        pf = P.on_1[f].obj_map
        squares.append((pos[A], pos[B], Q.on_obj[B].compose, Q.on_1[f].arr_map,
                        [(y, s2[y], s1[y], pf[y]) for y in P.on_obj[A].objects]))
    out = []
    for combo in itertools.product(*pools):
        meter.tick()
        if _squares_commute(squares, combo):
            out.append(Modification(t1, t2, dict(zip(objs, combo))))
    out.sort(key=lambda m: m.key())
    return out


def _squares_commute(squares: list, combo: tuple) -> bool:
    """LNM pointwise: σ'_f,y∘Q(f)(m_A,y) = m_B,P(f)y∘σ_f,y."""
    for a, b, cmp, qf, rows in squares:
        ma, mb = combo[a].components, combo[b].components
        for y, s2, s1, fy in rows:
            if cmp[(s2, qf[ma[y]])] != cmp[(mb[fy], s1)]:
                return False
    return True


def transformation_homs(P: CatDiagram, Q: CatDiagram, flavor: Flavor,
                        meter: Meter | None = None
                        ) -> tuple[list[Transformation], dict]:
    """The flavor-constrained transformations P ⇒ Q, sorted by key, and per
    pair (i, j) of their positions the modifications from the i-th to the
    j-th: the objects and hom-sets of ``hom_eps``, with no composition
    table."""
    meter = meter or Meter()
    ts = enumerate_transformations(P, Q, flavor, meter)
    return ts, {(i, j): enumerate_modifications(t1, t2, meter)
                for i, t1 in enumerate(ts) for j, t2 in enumerate(ts)}


def hom_eps(P: CatDiagram, Q: CatDiagram, flavor: Flavor,
            meter: Meter | None = None) -> HomCategory:
    """The category of flavor-constrained transformations P ⇒ Q:
    ``transformation_homs`` assembled, composed componentwise, one tick per
    composable pair.

    The reference for ``colimits.weighted_sigma_limit``, which reads the
    same category with the same names off Q's tables in every flavour,
    strict or pseudo P and Q alike.  Callers that need the
    ``Transformation`` and ``Modification`` objects call it directly."""
    meter = meter or Meter()
    ts, mods = transformation_homs(P, Q, flavor, meter)

    def is_identity(m: Modification) -> bool:
        return all(nat_is_identity(n) for n in m.components.values())

    def composite(m2: Modification, m1: Modification) -> tuple:
        meter.tick()
        return tuple((A, vcomp_nat(m2.components[A], n).key())
                     for A, n in sorted(m1.components.items()))

    cat, named = assemble_category(len(ts), ("t", "m"), mods, is_identity,
                                   Modification.key, composite)
    return HomCategory(cat, {f"t{i}": t for i, t in enumerate(ts)}, named, flavor)


@dataclass
class InclusionChain:
    homs: dict  # 's'|'p'|'sigma'|'l' -> HomCategory
    functors: dict  # ('s','p') etc -> Functor
    report: ValidationReport


def flavor_inclusions(P: CatDiagram, Q: CatDiagram, sigma: WideSub,
                      meter: Meter | None = None) -> InclusionChain:
    """The chain of full and faithful inclusions s ⊆ p ⊆ sigma ⊆ l.

    Each inclusion is verified object-by-object on the enumerations and
    returned as an injective-on-objects functor.
    """
    meter = meter or Meter()
    rep = ValidationReport("flavor-inclusions")
    flavors = {"s": STRICT, "p": PSEUDO, "sigma": sigma_flavor(sigma), "l": LAX}
    homs = {k: hom_eps(P, Q, fl, meter) for k, fl in flavors.items()}
    keysets = {k: {t.key(): name for name, t in homs[k].transfs.items()}
               for k in flavors}

    functors = {}
    for a, b in (("s", "p"), ("p", "sigma"), ("sigma", "l")):
        obj_map, arr_map = {}, {}
        for name, t in homs[a].transfs.items():
            k = t.key()
            if k not in keysets[b]:
                rep.add("inclusion", (a, b, name),
                        f"{a}-transformation {name} missing from {b}-enumeration")
                continue
            obj_map[name] = keysets[b][k]
        if not rep.ok:
            continue
        ca, cb = homs[a].cat, homs[b].cat
        mods_b = {(cb.src(n), cb.tgt(n), homs[b].mods[n].key()): n
                  for n in homs[b].mods}
        for n in ca.arrow_names():
            m = homs[a].mods[n]
            tgt_key = (obj_map[ca.src(n)], obj_map[ca.tgt(n)], m.key())
            if tgt_key not in mods_b:
                rep.add("inclusion-arrow", (a, b, n),
                        f"{a}-modification {n} missing from {b}-enumeration")
                continue
            arr_map[n] = mods_b[tgt_key]
        if rep.ok:
            F = Functor(ca, cb, obj_map, arr_map)
            functors[(a, b)] = F
            if len(set(obj_map.values())) != len(obj_map):
                rep.add("inclusion-injective", (a, b), "inclusion not injective")
            # local fullness and faithfulness
            for x in ca.objects:
                for y in ca.objects:
                    image = {arr_map[v] for v in ca.hom(x, y)}
                    target = set(cb.hom(obj_map[x], obj_map[y]))
                    if len(image) != len(ca.hom(x, y)) or image != target:
                        rep.add("inclusion-ff", (a, b, x, y),
                                "inclusion not locally full and faithful")
    return InclusionChain(homs, functors, rep)
