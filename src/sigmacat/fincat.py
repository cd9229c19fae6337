"""Finite categories given by total composition tables.

A FinCat stores its objects, its arrows with source and target, a chosen
identity arrow per object, and the *entire* composition table.  Nothing
is presented or lazily derived, so every categorical law is a finite
loop and validation is exhaustive.  All values are immutable after
construction and every operation here is a pure function of its inputs;
enumeration order is fixed (lexicographic by identifier) so that reports
and generated categories are reproducible run to run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .config import Meter
from .errors import PreconditionFailed


# ---------------------------------------------------------------------------
# Core value types


@dataclass(frozen=True)
class FinCat:
    """A finite category: objects, typed arrows, identities, full table.

    ``compose[(g, f)]`` is the composite ``g after f`` and is defined for
    exactly the pairs with ``tgt(f) == src(g)``.  The tables are never
    mutated after construction; ``hom`` relies on this, since it answers
    from an index of the arrow table built on its first call, and so does
    ``inverse``, which keeps the answer for each arrow it is asked about.
    """

    objects: tuple[str, ...]
    arrows: dict  # name -> (src, tgt)
    identity: dict  # object -> arrow name
    compose: dict  # (g, f) -> arrow name

    def src(self, a: str) -> str:
        return self.arrows[a][0]

    def tgt(self, a: str) -> str:
        return self.arrows[a][1]

    def arrow_names(self) -> list[str]:
        return sorted(self.arrows)

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom_index.get((x, y), ())

    @cached_property
    def _hom_index(self) -> dict:
        """(src, tgt) -> arrows between them, sorted by name."""
        index = {}
        for a, st in sorted(self.arrows.items()):
            index.setdefault(st, []).append(a)
        return {st: tuple(arrows) for st, arrows in index.items()}

    def is_identity(self, a: str) -> bool:
        return self.identity.get(self.src(a)) == a

    def is_iso(self, a: str) -> bool:
        return self.inverse(a) is not None

    def inverse(self, a: str) -> str | None:
        inverses = self._inverses
        if a not in inverses:
            s, t = self.arrows[a]
            inverses[a] = next((b for b in self.hom(t, s)
                                if self.compose[(b, a)] == self.identity[s]
                                and self.compose[(a, b)] == self.identity[t]), None)
        return inverses[a]

    @cached_property
    def _inverses(self) -> dict:
        """arrow -> its inverse, or None, filled in by ``inverse``."""
        return {}

    def op(self) -> "FinCat":
        """Same arrow names, sources and targets swapped."""
        return FinCat(
            objects=self.objects,
            arrows={a: (t, s) for a, (s, t) in self.arrows.items()},
            identity=dict(self.identity),
            compose={(f, g): h for (g, f), h in self.compose.items()},
        )


def mk_fincat(objects, arrows, identity, compose) -> FinCat:
    """Normalize constructor: sorts object order, copies tables."""
    return FinCat(
        objects=tuple(sorted(objects)),
        arrows={a: (s, t) for a, (s, t) in sorted(arrows.items())},
        identity=dict(sorted(identity.items())),
        compose=dict(sorted(compose.items())),
    )


@dataclass(frozen=True)
class Functor:
    source: FinCat
    target: FinCat
    obj_map: dict  # object -> object
    arr_map: dict  # arrow -> arrow

    def key(self) -> tuple:
        return (tuple(sorted(self.obj_map.items())),
                tuple(sorted(self.arr_map.items())))


@dataclass(frozen=True)
class NatTransf:
    source: Functor
    target: Functor
    components: dict  # object of source.source -> arrow of target cat

    def key(self) -> tuple:
        return tuple(sorted(self.components.items()))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    code: str
    cells: tuple
    detail: str


@dataclass
class ValidationReport:
    subject: str
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, cells, detail: str) -> None:
        self.violations.append(Violation(code, tuple(cells), detail))

    def __bool__(self) -> bool:
        return self.ok


def validate_category(c: FinCat) -> ValidationReport:
    """Exhaustive law scan.  Empty report iff ``c`` is a category."""
    rep = ValidationReport("FinCat")
    for x in c.objects:
        i = c.identity.get(x)
        if i is None:
            rep.add("identity-missing", (x,), f"object {x} has no identity arrow")
        elif i not in c.arrows:
            rep.add("identity-unknown", (x, i), f"identity {i} is not an arrow")
        elif c.arrows[i] != (x, x):
            rep.add("identity-typing", (x, i), f"identity {i} is not an endo of {x}")
    for a, (s, t) in c.arrows.items():
        if s not in c.objects or t not in c.objects:
            rep.add("arrow-typing", (a,), f"arrow {a} has unknown endpoints")
    names = set(c.arrows)
    for (g, f), h in c.compose.items():
        if g not in names or f not in names:
            rep.add("compose-unknown", (g, f), "table entry over unknown arrows")
            continue
        if c.tgt(f) != c.src(g):
            rep.add("compose-untyped", (g, f), "pair is not composable")
        elif h not in names:
            rep.add("compose-unknown-result", (g, f, h), "result is not an arrow")
        elif c.arrows[h] != (c.src(f), c.tgt(g)):
            rep.add("compose-result-typing", (g, f, h),
                    f"{g}∘{f}={h} has the wrong endpoints")
    ordered = sorted(names)
    into = {}  # object -> the arrows into it, sorted
    for a in ordered:
        into.setdefault(c.tgt(a), []).append(a)
    for g in ordered:
        for f in into.get(c.src(g), ()):
            if (g, f) not in c.compose:
                rep.add("compose-missing", (g, f), "composable pair has no entry")
    if not rep.ok:
        return rep
    for a in ordered:
        s, t = c.arrows[a]
        if c.compose[(a, c.identity[s])] != a:
            rep.add("identity-law", (a, c.identity[s]), f"{a}∘id != {a}")
        if c.compose[(c.identity[t], a)] != a:
            rep.add("identity-law", (c.identity[t], a), f"id∘{a} != {a}")
    for h in ordered:
        for g in into.get(c.src(h), ()):
            hg = c.compose[(h, g)]
            for f in into.get(c.src(g), ()):
                if c.compose[(hg, f)] != c.compose[(h, c.compose[(g, f)])]:
                    rep.add("associativity", (h, g, f),
                            f"(h∘g)∘f != h∘(g∘f) at ({h},{g},{f})")
    return rep


def validate_functor(F: Functor) -> ValidationReport:
    rep = ValidationReport("Functor")
    c, d = F.source, F.target
    for x in c.objects:
        if F.obj_map.get(x) not in d.objects:
            rep.add("obj-map", (x,), f"object {x} is not mapped into the target")
    for a, (s, t) in c.arrows.items():
        fa = F.arr_map.get(a)
        if fa not in d.arrows:
            rep.add("arr-map", (a,), f"arrow {a} is not mapped")
            continue
        if d.arrows[fa] != (F.obj_map.get(s), F.obj_map.get(t)):
            rep.add("arr-typing", (a, fa), f"image of {a} has wrong endpoints")
    if not rep.ok:
        return rep
    for x in c.objects:
        if F.arr_map[c.identity[x]] != d.identity[F.obj_map[x]]:
            rep.add("preserves-identity", (x,), f"identity of {x} not preserved")
    for (g, f), h in c.compose.items():
        if F.arr_map[h] != d.compose[(F.arr_map[g], F.arr_map[f])]:
            rep.add("preserves-compose", (g, f), f"F({g}∘{f}) != F({g})∘F({f})")
    return rep


def validate_nat_transf(n: NatTransf) -> ValidationReport:
    rep = ValidationReport("NatTransf")
    F, G = n.source, n.target
    c, d = F.source, F.target
    for x in c.objects:
        a = n.components.get(x)
        if a not in d.arrows:
            rep.add("component-missing", (x,), f"no component at {x}")
        elif d.arrows[a] != (F.obj_map.get(x), G.obj_map.get(x)):
            rep.add("component-typing", (x, a), f"component at {x} is mistyped")
    if not rep.ok:
        return rep
    compose, comps, fa, ga = d.compose.get, n.components, F.arr_map.get, G.arr_map.get
    for a, (s, t) in sorted(c.arrows.items()):
        # a square over an arrow F or G maps out of type is not natural
        lhs = compose((comps[t], fa(a)))
        if lhs is None or lhs != compose((ga(a), comps[s])):
            rep.add("naturality", (a,), f"naturality square fails at {a}")
    return rep


# ---------------------------------------------------------------------------
# Functor and transformation algebra


def identity_functor(c: FinCat) -> Functor:
    return Functor(c, c, {x: x for x in c.objects}, {a: a for a in c.arrows})


def idn(F: Functor, G: Functor | None = None) -> NatTransf:
    """The identity transformation of F; given G, which agrees with F on
    objects, the transformation F ⇒ G with the same identity components."""
    return NatTransf(F, F if G is None else G,
                     {x: F.target.identity[F.obj_map[x]] for x in F.source.objects})


def compose_functors(G: Functor, F: Functor) -> Functor:
    """G after F."""
    assert F.target == G.source
    return Functor(
        F.source, G.target,
        {x: G.obj_map[y] for x, y in F.obj_map.items()},
        {a: G.arr_map[b] for a, b in F.arr_map.items()},
    )


def vcomp_nat(b: NatTransf, a: NatTransf) -> NatTransf:
    """Vertical composite b∘a (a first)."""
    assert a.target is b.source or (a.target.obj_map == b.source.obj_map and
                                    a.target.arr_map == b.source.arr_map)
    compose, bc = a.source.target.compose, b.components
    return NatTransf(a.source, b.target,
                     {x: compose[(bc[x], ax)] for x, ax in a.components.items()})


def whisker_functor_nat(G: Functor, n: NatTransf) -> NatTransf:
    """G applied after n: the transformation G∘F ⇒ G∘F'."""
    return NatTransf(compose_functors(G, n.source), compose_functors(G, n.target),
                     {x: G.arr_map[a] for x, a in n.components.items()})


def whisker_nat_functor(n: NatTransf, F: Functor) -> NatTransf:
    """n restricted along F: the transformation G∘F ⇒ G'∘F."""
    return NatTransf(compose_functors(n.source, F), compose_functors(n.target, F),
                     {x: n.components[F.obj_map[x]] for x in F.source.objects})


def nat_is_invertible(n: NatTransf) -> bool:
    d = n.source.target
    return all(d.is_iso(a) for a in n.components.values())


def nat_is_identity(n: NatTransf) -> bool:
    d = n.source.target
    return all(d.is_identity(a) for a in n.components.values())


def invert_nat(n: NatTransf) -> NatTransf:
    d = n.source.target
    return NatTransf(n.target, n.source,
                     {x: d.inverse(a) for x, a in n.components.items()})


# ---------------------------------------------------------------------------
# Enumeration (deterministic order, budget guarded)


def enumerate_functors(c: FinCat, d: FinCat, meter: Meter | None = None) -> list[Functor]:
    """All functors c -> d, lexicographic in the object then arrow choices."""
    meter = meter or Meter()
    objs = sorted(c.objects)
    non_id = [a for a in c.arrow_names() if not c.is_identity(a)]
    out = []
    for combo in itertools.product(*(sorted(d.objects) for _ in objs)):
        meter.tick()
        om = dict(zip(objs, combo))
        pools = []
        feasible = True
        for a in non_id:
            s, t = c.arrows[a]
            pool = d.hom(om[s], om[t])
            if not pool:
                feasible = False
                break
            pools.append(pool)
        if not feasible:
            continue
        for arrs in itertools.product(*pools):
            meter.tick()
            am = dict(zip(non_id, arrs))
            for x in c.objects:
                am[c.identity[x]] = d.identity[om[x]]
            F = Functor(c, d, om, am)
            if _functorial(F):
                out.append(F)
    out.sort(key=lambda F: F.key())
    return out


def _functorial(F: Functor) -> bool:
    d = F.target
    for (g, f), h in F.source.compose.items():
        if d.compose[(F.arr_map[g], F.arr_map[f])] != F.arr_map[h]:
            return False
    return True


def enumerate_nat_transfs(F: Functor, G: Functor,
                          meter: Meter | None = None) -> list[NatTransf]:
    """All natural transformations F ⇒ G, lexicographic in components."""
    meter = meter or Meter()
    c, d = F.source, F.target
    objs = sorted(c.objects)
    pools = [d.hom(F.obj_map[x], G.obj_map[x]) for x in objs]
    if any(not p for p in pools):
        return []
    out = []
    non_id = [a for a in c.arrow_names() if not c.is_identity(a)]
    for combo in itertools.product(*pools):
        meter.tick()
        comp = dict(zip(objs, combo))
        if all(d.compose[(comp[c.tgt(a)], F.arr_map[a])]
               == d.compose[(G.arr_map[a], comp[c.src(a)])] for a in non_id):
            out.append(NatTransf(F, G, comp))
    return out


# ---------------------------------------------------------------------------
# Constructions


def assemble_category(n: int, prefixes: tuple[str, str], homs: dict,
                      is_identity, key, composite_key) -> tuple[FinCat, dict]:
    """The category on objects ``{o}0 … {o}{n-1}`` with ``homs[(i, j)]``
    the morphisms from the i-th object to the j-th, ``(o, a) = prefixes``.

    Arrows are named in (i, j) order: ``1_{o}{i}`` for the morphism at
    (i, i) that ``is_identity`` accepts, ``{a}0``, ``{a}1``, … for the
    others.  The composite of f : i → j and g : j → k is the arrow from i
    to k whose ``key`` is ``composite_key(g, f)``; only composable pairs
    are visited, grouped by the source of g.  Returns the category and
    the morphism named by each arrow.
    """
    obj, arr = prefixes
    names = [f"{obj}{i}" for i in range(n)]
    arrows, identity, compose, data = {}, {}, {}, {}
    name_of = {}  # (i, j, key) -> arrow name
    named = {}  # (i, j) -> [(arrow name, morphism)]
    counter = 0
    for (i, j), ms in sorted(homs.items()):
        named[(i, j)] = []
        for m in ms:
            if i == j and is_identity(m):
                name = f"1_{names[i]}"
                identity[names[i]] = name
            else:
                name = f"{arr}{counter}"
                counter += 1
            arrows[name] = (names[i], names[j])
            data[name] = m
            name_of[(i, j, key(m))] = name
            named[(i, j)].append((name, m))
    out_of = {}
    for (j, k), gs in named.items():
        out_of.setdefault(j, []).append((k, gs))
    for (i, j), fs in named.items():
        for k, gs in out_of.get(j, ()):
            for f, mf in fs:
                for g, mg in gs:
                    compose[(g, f)] = name_of[(i, k, composite_key(mg, mf))]
    return mk_fincat(names, arrows, identity, compose), data


@dataclass(frozen=True)
class FunctorCategory:
    cat: FinCat
    functors: dict  # object name -> Functor
    transfs: dict  # arrow name -> NatTransf

    @cached_property
    def _functor_names(self) -> dict:
        out = {}
        for name, G in self.functors.items():
            out.setdefault(G.key(), name)
        return out

    @cached_property
    def _transf_names(self) -> dict:
        out = {}
        for name, m in self.transfs.items():
            src, tgt = self.cat.arrows[name]
            out.setdefault((src, tgt, m.key()), name)
        return out

    def name_of_functor(self, F: Functor) -> str:
        try:
            return self._functor_names[F.key()]
        except KeyError:
            raise KeyError("functor not an object of this functor category") from None

    def name_of_transf(self, n: NatTransf) -> str:
        return self.name_of_transf_between(self.name_of_functor(n.source),
                                           self.name_of_functor(n.target), n.key())

    def name_of_transf_between(self, src: str, tgt: str, key: tuple) -> str:
        """The arrow ``src → tgt`` whose ``NatTransf.key()`` is ``key``."""
        try:
            return self._transf_names[(src, tgt, key)]
        except KeyError:
            raise KeyError("transformation not an arrow of this functor category") \
                from None


def functor_homs(c: FinCat, d: FinCat,
                 meter: Meter | None = None) -> tuple[list[Functor], dict]:
    """All functors c -> d and, per pair (i, j) of their positions, the
    natural transformations from the i-th to the j-th: the objects and
    hom-sets of the functor category, with no composition table."""
    meter = meter or Meter()
    fs = enumerate_functors(c, d, meter)
    return fs, {(i, j): enumerate_nat_transfs(F, G, meter)
                for i, F in enumerate(fs) for j, G in enumerate(fs)}


def functor_category_full(c: FinCat, d: FinCat,
                          meter: Meter | None = None) -> FunctorCategory:
    """The category of all functors c -> d and all natural transformations:
    ``functor_homs`` assembled, one tick per composable pair."""
    meter = meter or Meter()
    fs, nats = functor_homs(c, d, meter)

    def composite(m: NatTransf, n: NatTransf) -> tuple:
        meter.tick()
        return vcomp_nat(m, n).key()

    cat, transfs = assemble_category(len(fs), ("F", "n"), nats, nat_is_identity,
                                     NatTransf.key, composite)
    return FunctorCategory(cat, {f"F{i}": F for i, F in enumerate(fs)}, transfs)


def functor_category(c: FinCat, d: FinCat, meter: Meter | None = None) -> FinCat:
    return functor_category_full(c, d, meter).cat


def product_category(c: FinCat, d: FinCat) -> FinCat:
    objects = pair_table(sorted(c.objects), sorted(d.objects))
    arrows = {}
    for nm, (a, b) in pair_table(sorted(c.arrows), sorted(d.arrows)).items():
        (s, t), (u, v) = c.arrows[a], d.arrows[b]
        arrows[nm] = (pair_name(s, u), pair_name(t, v))
    identity = {pair_name(x, y): pair_name(c.identity[x], d.identity[y])
                for x in c.objects for y in d.objects}
    compose = {}
    for (g, f), h in c.compose.items():
        for (k, l), m in d.compose.items():
            compose[(pair_name(g, k), pair_name(f, l))] = pair_name(h, m)
    return mk_fincat(list(objects), arrows, identity, compose)


def pair_name(x: str, y: str) -> str:
    return f"({x},{y})"


def mint(table: dict, name: str, cell) -> None:
    """Record ``name`` as standing for ``cell``; refuse a name that another
    cell already took, since no table could then decode it."""
    if name in table:
        raise PreconditionFailed(
            f"name {name} is minted for both {table[name]} and {cell}")
    table[name] = cell


def pair_table(xs, ys) -> dict:
    """``pair_name(x, y) -> (x, y)`` for every pair, in order."""
    table = {}
    for x in xs:
        for y in ys:
            mint(table, pair_name(x, y), (x, y))
    return table


def partition(items, pairs) -> dict:
    """The finest partition of ``items`` in which the two ends of every
    pair share a block, as item -> the least member of its block."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in items}


def _blocks(least: dict) -> list[frozenset]:
    groups = {}
    for x, r in least.items():
        groups.setdefault(r, set()).add(x)
    return sorted((frozenset(v) for v in groups.values()), key=sorted)


def connected_components(c: FinCat) -> list[frozenset]:
    """Partition of objects under the zig-zag closure of arrows."""
    return _blocks(partition(c.objects, c.arrows.values()))


# ---------------------------------------------------------------------------
# Equivalence checking


@dataclass
class EquivalenceReport:
    verdict: bool
    full: bool
    faithful: bool
    essentially_surjective: bool
    witness: str

    def __bool__(self) -> bool:
        return self.verdict


def iso_classes(c: FinCat) -> list[frozenset]:
    return _blocks(partition(c.objects, (st for a, st in c.arrows.items()
                                         if c.is_iso(a))))


def is_equivalence(F: Functor) -> EquivalenceReport:
    """Full + faithful + essentially surjective, each checked by enumeration."""
    c, d = F.source, F.target
    full, faithful, witness = True, True, ""
    for x in sorted(c.objects):
        for y in sorted(c.objects):
            image = [F.arr_map[a] for a in c.hom(x, y)]
            target = d.hom(F.obj_map[x], F.obj_map[y])
            if len(set(image)) < len(image):
                faithful = False
                witness = witness or f"hom({x},{y}) is not mapped injectively"
            if set(image) != set(target):
                full = False
                witness = witness or f"hom({x},{y}) is not mapped onto " \
                    f"hom({F.obj_map[x]},{F.obj_map[y]})"
    hit = {F.obj_map[x] for x in c.objects}
    ess = True
    for cls in iso_classes(d):
        if not (cls & hit):
            ess = False
            witness = witness or \
                f"object {sorted(cls)[0]} is not isomorphic to any image"
            break
    return EquivalenceReport(full and faithful and ess, full, faithful, ess, witness)


def is_equivalence_on_homs(c: FinCat, objects: dict, obj_key, arr_key, hom,
                           invertible) -> bool:
    """Whether a functor from c to a category D is an equivalence, decided
    on D's objects and hom-sets alone: neither composition table is read.

    D's objects are the positions 0, 1, … that ``objects`` gives by key,
    and ``hom(i, j)`` is the set of keys of its morphisms from the i-th
    object to the j-th.  The functor sends an object x of c to the object
    with key ``obj_key(x)`` and an arrow a to the morphism with key
    ``arr_key(a)``.  Three checks: every object maps to an object of D;
    every hom-set c(x, y) maps injectively into the hom-set between the
    images, which has the same size, so it maps onto it; every object of
    D is isomorphic to an image, through a morphism into one that
    ``invertible`` accepts.  ``hom`` is read at most once per pair (i, j),
    and only for pairs with j an image.

    Whether the map is a functor is the caller's to answer; the callers in
    ``colimits`` map into categories composed componentwise, where it
    follows from the ambient's laws.  ``is_equivalence`` on the assembled
    functor is the reference.
    """
    pos = {}
    for x in c.objects:
        i = objects.get(obj_key(x))
        if i is None:
            return False
        pos[x] = i
    read = {}

    def homset(i: int, j: int):
        got = read.get((i, j))
        if got is None:
            got = read[(i, j)] = hom(i, j)
        return got

    objs = sorted(c.objects)
    for x in objs:
        for y in objs:
            target = homset(pos[x], pos[y])
            arrows = c.hom(x, y)
            image = set(map(arr_key, arrows))
            if len(arrows) != len(target) or len(image) != len(arrows) or \
                    not image <= target:
                return False
    hit = set(pos.values())
    if len(hit) == len(objects):  # every object of D is an image
        return True
    images = sorted(hit)
    return all(i in hit or any(invertible(m) for j in images for m in homset(i, j))
               for i in range(len(objects)))


# ---------------------------------------------------------------------------
# Isomorphism search between finite categories


def find_isomorphism(c: FinCat, d: FinCat, meter: Meter | None = None) -> Functor | None:
    """Deterministic backtracking search for an isomorphism of categories.

    Objects are matched on local invariants (endo count, in/out degrees)
    before arrows are matched; the first witness in lexicographic order
    is returned.
    """
    meter = meter or Meter()
    if len(c.objects) != len(d.objects) or len(c.arrows) != len(d.arrows):
        return None

    def obj_sig(cat, x):
        outs = sorted(len(cat.hom(x, y)) for y in cat.objects)
        ins = sorted(len(cat.hom(y, x)) for y in cat.objects)
        return (len(cat.hom(x, x)), tuple(outs), tuple(ins))

    csig = {x: obj_sig(c, x) for x in c.objects}
    dsig = {y: obj_sig(d, y) for y in d.objects}
    if sorted(csig.values()) != sorted(dsig.values()):
        return None

    cobjs = sorted(c.objects)

    def extend_objects(i, om, used):
        if i == len(cobjs):
            yield dict(om)
            return
        x = cobjs[i]
        for y in sorted(d.objects):
            if y in used or dsig[y] != csig[x]:
                continue
            if not all(len(c.hom(x, x2)) == len(d.hom(y, om[x2])) and
                       len(c.hom(x2, x)) == len(d.hom(om[x2], y))
                       for x2 in om):
                continue
            om[x] = y
            yield from extend_objects(i + 1, om, used | {y})
            del om[x]

    carrs = [a for a in sorted(c.arrows) if not c.is_identity(a)]
    by_arrow = {}
    for (g, f), h in c.compose.items():
        for a in {g, f, h}:
            by_arrow.setdefault(a, []).append((g, f, h))

    def consistent(am, a):
        for (g, f, h) in by_arrow.get(a, ()):
            if g in am and f in am and h in am:
                if d.compose[(am[g], am[f])] != am[h]:
                    return False
        return True

    for om in extend_objects(0, {}, set()):
        am = {c.identity[x]: d.identity[om[x]] for x in c.objects}
        # iterative backtracking over nonidentity arrows
        choices = []  # stack of iterators
        j = 0
        pools = {}
        while True:
            meter.tick()
            if j == len(carrs):
                F = Functor(c, d, dict(om), dict(am))
                if _functorial(F) and len(set(am.values())) == len(am):
                    return F
                j -= 1
                if j < 0:
                    break
                continue
            a = carrs[j]
            if j == len(choices):
                s, t = c.arrows[a]
                used = set(am.values())
                pools[j] = iter([b for b in d.hom(om[s], om[t]) if b not in used])
                choices.append(a)
            advanced = False
            for b in pools[j]:
                if b in am.values():
                    continue
                am[a] = b
                if consistent(am, a):
                    j += 1
                    advanced = True
                    break
                del am[a]
            if not advanced:
                am.pop(a, None)
                choices.pop()
                pools.pop(j)
                j -= 1
                if j < 0:
                    break
                # retry the previous level with its next candidate
                prev = carrs[j]
                am.pop(prev, None)
    return None


# ---------------------------------------------------------------------------
# Standard small categories


def empty_category() -> FinCat:
    return mk_fincat((), {}, {}, {})


def terminal_category() -> FinCat:
    return mk_fincat(("*",), {"id_*": ("*", "*")}, {"*": "id_*"},
                     {("id_*", "id_*"): "id_*"})


def arrow_category() -> FinCat:
    """The walking arrow 0 -> 1."""
    arrows = {"id_0": ("0", "0"), "id_1": ("1", "1"), "f": ("0", "1")}
    compose = {
        ("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
        ("f", "id_0"): "f", ("id_1", "f"): "f",
    }
    return mk_fincat(("0", "1"), arrows, {"0": "id_0", "1": "id_1"}, compose)


def iso_pair_category() -> FinCat:
    """The walking isomorphism: two objects, one invertible arrow pair."""
    arrows = {"id_0": ("0", "0"), "id_1": ("1", "1"),
              "u": ("0", "1"), "u_inv": ("1", "0")}
    compose = {
        ("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
        ("u", "id_0"): "u", ("id_1", "u"): "u",
        ("u_inv", "id_1"): "u_inv", ("id_0", "u_inv"): "u_inv",
        ("u_inv", "u"): "id_0", ("u", "u_inv"): "id_1",
    }
    return mk_fincat(("0", "1"), arrows, {"0": "id_0", "1": "id_1"}, compose)


def parallel_pair_category() -> FinCat:
    """Two objects, two parallel arrows u, v : a -> b."""
    arrows = {"id_a": ("a", "a"), "id_b": ("b", "b"),
              "u": ("a", "b"), "v": ("a", "b")}
    compose = {
        ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
        ("u", "id_a"): "u", ("id_b", "u"): "u",
        ("v", "id_a"): "v", ("id_b", "v"): "v",
    }
    return mk_fincat(("a", "b"), arrows, {"a": "id_a", "b": "id_b"}, compose)


def discrete_category(names) -> FinCat:
    names = tuple(sorted(names))
    arrows = {f"id_{x}": (x, x) for x in names}
    compose = {(f"id_{x}", f"id_{x}"): f"id_{x}" for x in names}
    return mk_fincat(names, arrows, {x: f"id_{x}" for x in names}, compose)


def group_z2_category() -> FinCat:
    """One object with a single nonidentity involution."""
    arrows = {"e": ("*", "*"), "s": ("*", "*")}
    compose = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return mk_fincat(("*",), arrows, {"*": "e"}, compose)
