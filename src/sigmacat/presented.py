"""Presented categories, decided by coset enumeration.

A PresentedCategory is a category given by typed generators and
relations.  It is computed by the Todd–Coxeter procedure for categories
(Carmody–Walters 1991; Bush–Leeming–Walters, *Computing left Kan
extensions*, J. Symbolic Comput. 2003).  A coset is an arrow out of an
object, and the coset table records c·g, "c then g"; there is one start
coset per object.  The relations are

  * each composition hint, read as (f, g) = (h), or (f, g) = () when the
    hint folds to an identity;
  * every listed relation;
  * g·g~inv = () and g~inv·g = () for every inverted generator g.

Cosets are processed in the order they were defined (HLT): every
relation is scanned at the coset, defining the cosets the scan needs,
and the coset's missing entries are then filled.  Cosets a scan shows
equal are merged through a union-find that keeps the older one.  When
every live coset is processed the table is closed: it is the Cayley
graph of the congruence the relations generate, so the status
``finite`` is exact.  Before it is reported, every relation is walked
again at every live coset; a mismatch is a bug and raises
Inconsistency.

A coset whose defining word would be longer than the cap stops the run
with the status ``undecided-at-cap``.  No realization is emitted, and
``growth`` records the number of live cosets per defining-word length.
``presents`` decides on a closed table, with no realization, whether a
functor out of the presented category is an isomorphism.

Words are paths written first-to-last: ``(f, g)`` means f then g, i.e.
the composite g∘f.  Each arrow of the realization is named by the
shortlex-least word of its class, generators in sorted order: ``id_x``
for the empty word at x, ``w[f.g]`` otherwise.

The formal inverse of an inverted generator g is the generator named
``g~inv``.  That name must not already name a generator (an arrow of the
input category): the two would be one letter of the words, and g would
cancel against a plain arrow.  ``localize`` and ``saturate_presentation``
refuse such input with a ValidationError.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .config import DEFAULT_CAP, Meter
from .errors import Inconsistency, UndecidedAtCap, ValidationError
from .fincat import FinCat, mk_fincat

INV_SUFFIX = "~inv"


def inv_name(g: str) -> str:
    return g + INV_SUFFIX


def is_inv(g: str) -> bool:
    return g.endswith(INV_SUFFIX)


def base_of_inv(g: str) -> str:
    return g[: -len(INV_SUFFIX)]


@dataclass(frozen=True)
class Presentation:
    """Typed generators and relations over a fixed object set.

    ``compose_hints[(f, g)]`` says the word (f, g) folds to a single
    generator, or to an identity when the value is None.  ``relations``
    are additional parallel word pairs, each tagged with its source
    object; ``inverted`` lists the generators that acquire a formal
    inverse.  Generators are named by strings; objects may be any
    sortable values, such as tuples.
    """

    objects: tuple
    generators: dict  # name -> (src, tgt)
    compose_hints: dict  # (first, second) -> name | None
    relations: tuple  # ((word, word, src), ...) with words = name tuples
    inverted: tuple


@dataclass
class PresentedCategory:
    objects: tuple[str, ...]
    generators: dict
    relations: tuple
    cap: int
    status: str  # "finite" | "undecided-at-cap"
    realization: FinCat | None
    rep_of_arrow: dict  # arrow name -> (src, word)
    growth: tuple = ()  # undecided: live cosets per defining-word length

    @property
    def finite(self) -> bool:
        return self.status == "finite"

    def normalize(self, src: str, word) -> str:
        """Realization arrow named by a word; requires finite status."""
        if not self.finite:
            raise ValidationError("no realization: status is undecided-at-cap")
        table, names = self._cosets
        table.endpoint(src, word)  # a word that is no path names no arrow
        return names[table.walk(table.start[src], word)]


class _AtCap(Exception):
    """A coset definition would exceed the cap."""


class _CosetTable:
    """HLT coset enumeration of a presentation, with coincidences."""

    def __init__(self, pres: Presentation, cap: int, meter: Meter):
        self.cap = cap
        self.meter = meter
        ends = dict(pres.generators)
        for g in pres.inverted:
            s, t = pres.generators[g]
            ends[inv_name(g)] = (t, s)
        self.ends = ends
        self.gens_at = {x: [] for x in pres.objects}
        for g, (s, _) in sorted(ends.items()):
            self.gens_at[s].append(g)
        self.parent = []  # union-find over cosets; a root is live
        self.table = []  # coset -> {generator: coset}, targets read through find
        self.end = []
        self.depth = []  # length of the shortest defining word known
        self.start = {x: self._new(x, 0) for x in sorted(pres.objects)}
        rels = [((f, g), () if h is None else (h,), ends[f][0])
                for (f, g), h in sorted(pres.compose_hints.items())]
        rels.extend(pres.relations)
        for g in pres.inverted:
            rels.append(((g, inv_name(g)), (), ends[g][0]))
            rels.append(((inv_name(g), g), (), ends[g][1]))
        self.rels_at = {x: [] for x in pres.objects}
        for u, v, src in rels:
            if self.endpoint(src, u) != self.endpoint(src, v):
                raise ValidationError(f"relation {u} = {v} at {src} is not parallel")
            if u or v:
                self.rels_at[src].append((u, v) if u else (v, u))

    def endpoint(self, src: str, word) -> str:
        if src not in self.start:
            raise ValidationError(f"{src} is not an object")
        cur = src
        for g in word:
            if self.ends.get(g, (None,))[0] != cur:
                raise ValidationError(f"word {tuple(word)} is not a path from {src}")
            cur = self.ends[g][1]
        return cur

    # -- the table

    def _new(self, end: str, depth: int) -> int:
        self.meter.tick()
        c = len(self.parent)
        self.parent.append(c)
        self.table.append({})
        self.end.append(end)
        self.depth.append(depth)
        return c

    def find(self, c: int) -> int:
        parent = self.parent
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def step(self, c: int, g: str):
        t = self.table[c].get(g)
        return None if t is None else self.find(t)

    def walk(self, c: int, word) -> int:
        """c·word in the closed table."""
        for g in word:
            c = self.find(self.table[c][g])
        return c

    def _define(self, c: int, g: str, depth: int) -> int:
        if depth > self.cap:
            raise _AtCap
        t = self._new(self.ends[g][1], depth)
        self.table[c][g] = t
        return t

    def _trace(self, c: int, word) -> int:
        for g in word:
            t = self.step(c, g)
            c = self._define(c, g, self.depth[c] + 1) if t is None else t
        return c

    def _coincide(self, a: int, b: int) -> None:
        """Merge two cosets and, in turn, the entries they disagree on."""
        queue = deque([(a, b)])
        while queue:
            a, b = map(self.find, queue.popleft())
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            self.parent[b] = a
            self.depth[a] = min(self.depth[a], self.depth[b])
            row = self.table[a]
            for g, t in self.table[b].items():
                if g in row:
                    queue.append((row[g], t))
                else:
                    row[g] = t
            self.table[b] = None

    def _scan(self, c: int, u: tuple, v: tuple) -> None:
        """Make c·u = c·v, defining what the two walks need but their last steps."""
        x, a = self._trace(c, u[:-1]), u[-1]
        if v:
            y, b = self._trace(c, v[:-1]), v[-1]
            yb = self.step(y, b)
        else:
            y, b, yb = None, None, c
        xa = self.step(x, a)
        if xa is None and yb is None:
            self.table[y][b] = self._define(x, a, min(self.depth[x], self.depth[y]) + 1)
        elif xa is None:
            self.table[x][a] = yb
        elif yb is None:
            self.table[y][b] = xa
        else:
            self._coincide(xa, yb)

    # -- enumeration

    def run(self) -> bool:
        """Process every coset in definition order.  True when the table
        closes, False when a definition would exceed the cap."""
        c = 0
        try:
            while c < len(self.parent):
                if self.parent[c] == c:
                    for u, v in self.rels_at[self.end[c]]:
                        self.meter.tick()
                        self._scan(c, u, v)
                        if self.parent[c] != c:
                            break
                    else:
                        for g in self.gens_at[self.end[c]]:
                            if g not in self.table[c]:
                                self._define(c, g, self.depth[c] + 1)
                c += 1
        except _AtCap:
            return False
        self._verify()
        return True

    def live(self) -> list:
        return [c for c, p in enumerate(self.parent) if p == c]

    def _verify(self) -> None:
        """Walk every relation at every live coset, defining nothing."""
        for c in self.live():
            if self.table[c].keys() != set(self.gens_at[self.end[c]]):
                raise Inconsistency(f"closed coset table has a gap at coset {c}")
            for u, v in self.rels_at[self.end[c]]:
                if self.walk(c, u) != self.walk(c, v):
                    raise Inconsistency(
                        f"closed coset table breaks relation {u} = {v} at coset {c}")

    def growth(self) -> tuple:
        """Live cosets per defining-word length."""
        counts = Counter(self.depth[c] for c in self.live())
        return tuple(counts[d] for d in range(max(counts, default=-1) + 1))

    def shortlex_words(self) -> dict:
        """Live coset -> (source, shortlex-least word), by breadth-first
        search from the start cosets with the generators in sorted order."""
        words = {}
        for x, s in self.start.items():
            words[s] = (x, ())
            queue = deque([s])
            while queue:
                c = queue.popleft()
                w = words[c][1]
                for g in self.gens_at[self.end[c]]:
                    t = self.find(self.table[c][g])
                    if t not in words:
                        words[t] = (x, w + (g,))
                        queue.append(t)
        return words


def saturate_presentation(pres: Presentation, cap: int = DEFAULT_CAP,
                          meter: Meter | None = None) -> PresentedCategory:
    meter = meter or Meter()
    for g in pres.inverted:
        if inv_name(g) in pres.generators:
            raise ValidationError(
                f"formal inverse {inv_name(g)} of {g} is already a generator name")
    table = _CosetTable(pres, cap, meter)
    result = PresentedCategory(
        objects=tuple(sorted(pres.objects)),
        generators=dict(pres.generators),
        relations=pres.relations,
        cap=cap,
        status="undecided-at-cap",
        realization=None,
        rep_of_arrow={},
    )
    if not table.run():
        result.growth = table.growth()
        return result
    words = dict(sorted(table.shortlex_words().items(),
                        key=lambda kv: (len(kv[1][1]), kv[1][1], kv[1][0])))
    names = {c: f"id_{src}" if not w else "w[" + ".".join(w) + "]"
             for c, (src, w) in words.items()}
    out_of = {x: [] for x in pres.objects}
    for c, (src, _) in words.items():
        out_of[src].append(c)
    compose = {}
    for c1 in words:
        for c2 in out_of[table.end[c1]]:
            compose[(names[c2], names[c1])] = names[table.walk(c1, words[c2][1])]
    # a closed table that passed its re-walk is a category: no validation
    realization = mk_fincat(
        pres.objects, {names[c]: (src, table.end[c]) for c, (src, _) in words.items()},
        {x: f"id_{x}" for x in pres.objects}, compose)
    result.status = "finite"
    result.realization = realization
    result.rep_of_arrow = {names[c]: sw for c, sw in words.items()}
    result._cosets = (table, names)
    return result


def presents(pres: Presentation, obj_image: dict, gen_image: dict, target: FinCat,
             cap: int = DEFAULT_CAP, meter: Meter | None = None) -> bool:
    """Whether Φ, from the category ``pres`` presents to ``target`` and
    given on objects and generators, is an isomorphism.  One coset table
    is enumerated under the cap, one tick per generator image besides its
    own, and no realization is built; at the cap it raises UndecidedAtCap.
    Φ(c·g) = Φ(g)∘Φ(c) is computed breadth-first and checked at every
    entry, so Φ is a functor; it is an isomorphism when it is bijective on
    objects and the live cosets are as many as target's arrows, with Φ
    injective on them."""
    meter = meter or Meter()
    images = [obj_image[x] for x in pres.objects]
    if len(set(images)) != len(images) or set(images) != set(target.objects):
        return False
    step = dict(gen_image)
    for g, (s, t) in sorted(pres.generators.items()):
        meter.tick()
        if target.arrows.get(step[g]) != (obj_image[s], obj_image[t]):
            return False
    for g in pres.inverted:
        meter.tick()
        step[inv_name(g)] = target.inverse(step[g])
        if step[inv_name(g)] is None:
            return False
    table = _CosetTable(pres, cap, meter)
    if not table.run():
        raise UndecidedAtCap(f"presentation still growing at cap {cap}; live cosets "
                             f"per word length: {' '.join(map(str, table.growth()))}")
    if len(table.live()) != len(target.arrows):
        return False
    image = {}
    for x, s in table.start.items():
        image[s] = target.identity[obj_image[x]]
        queue = deque([s])
        while queue:
            c = queue.popleft()
            for g in table.gens_at[table.end[c]]:
                t = table.find(table.table[c][g])
                a = target.compose[(step[g], image[c])]
                if t not in image:
                    image[t] = a
                    queue.append(t)
                elif image[t] != a:
                    return False
    return len(image) == len(target.arrows) == len(set(image.values()))


def localization_presentation(c: FinCat, sigma) -> Presentation:
    """c's nonidentity arrows with its composition table as hints, and a
    formal inverse for every nonidentity member of sigma.  Identities in
    sigma are already invertible and contribute nothing."""
    sigma = set(sigma)
    unknown = sigma - set(c.arrows)
    if unknown:
        raise ValidationError(f"sigma contains non-arrows: {sorted(unknown)}")
    gens = {a: st for a, st in c.arrows.items() if not c.is_identity(a)}
    hints = {}
    for (g, f), h in c.compose.items():
        if c.is_identity(g) or c.is_identity(f):
            continue
        hints[(f, g)] = None if c.is_identity(h) else h
    inverted = tuple(sorted(a for a in sigma if not c.is_identity(a)))
    return Presentation(objects=tuple(sorted(c.objects)), generators=gens,
                        compose_hints=hints, relations=(), inverted=inverted)


def localize(c: FinCat, sigma, cap: int = DEFAULT_CAP,
             meter: Meter | None = None) -> PresentedCategory:
    """Category of fractions c[sigma^-1] by coset enumeration, exact when
    the status is finite; the presentation is ``localization_presentation``."""
    return saturate_presentation(localization_presentation(c, sigma), cap, meter)


def localization_functor(c: FinCat, loc: PresentedCategory) -> tuple[dict, dict]:
    """The canonical functor c -> realization, as object/arrow maps."""
    if not loc.finite:
        raise ValidationError("localization is undecided-at-cap")
    obj_map = {x: x for x in c.objects}
    arr_map = {}
    for a in c.arrows:
        if c.is_identity(a):
            arr_map[a] = f"id_{c.src(a)}"
        else:
            arr_map[a] = loc.normalize(c.src(a), (a,))
    return obj_map, arr_map
