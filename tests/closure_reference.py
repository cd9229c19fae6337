"""The bounded word closure that localization used before coset enumeration.

Kept as the reference for the differential tests only: a level-by-level
congruence closure over reduced words of at most ``cap`` letters, fed
back its short class equalities for a few saturation rounds, that calls
the category finite when the last level that changed the class set lies
strictly below the cap.  It is sound but incomplete; where it says
finite, the coset enumeration must give the same tables, names and
representative words.
"""

from collections import deque

from sigmacat.config import DEFAULT_CAP, Meter
from sigmacat.errors import ValidationError
from sigmacat.fincat import mk_fincat, validate_category
from sigmacat.presented import (Presentation, PresentedCategory, inv_name,
                                localization_presentation)


class _Closure:
    """Level-by-level congruence closure over reduced words up to a cap."""

    def __init__(self, pres: Presentation, cap: int, meter: Meter):
        self.pres = pres
        self.cap = cap
        self.meter = meter
        self.parent = {}  # word key -> word key (union-find)
        self.words = {}  # word key -> (src, word)
        self.by_length = {}  # length -> list of word keys, discovery order
        self.last_activity = 0
        src_tgt = dict(pres.generators)
        self._cancels = set()  # adjacent pairs g, g~inv and g~inv, g
        self._inverted_at = {}  # object -> inverted g that can be inserted there
        for g in pres.inverted:
            s, t = pres.generators[g]
            src_tgt[inv_name(g)] = (t, s)
            self._cancels |= {(g, inv_name(g)), (inv_name(g), g)}
            for x in dict.fromkeys((s, t)):
                self._inverted_at.setdefault(x, []).append((g, s, t))
        self.src_tgt = src_tgt
        self.by_src = {}
        for g, (s, _) in sorted(src_tgt.items()):
            self.by_src.setdefault(s, []).append(g)
        # relation moves (either side rewritten to the other), in scan order,
        # indexed by the first one or two letters of the side they match
        self._moves = []
        self._moves_by_head = {}
        for lhs, rhs, rel_src in pres.relations:
            for a, b in ((lhs, rhs), (rhs, lhs)):
                if a:
                    self._moves_by_head.setdefault(a[:2], []).append(len(self._moves))
                    self._moves.append((a, b, rel_src))
        self._unfold = {}
        self._id_unfold = {}
        for (f, g), h in sorted(pres.compose_hints.items()):
            if h is not None:
                self._unfold.setdefault(h, []).append((f, g))
            else:
                self._id_unfold.setdefault(src_tgt[f][0], []).append((f, g))

    # -- word plumbing

    def endpoint(self, src: str, word) -> str:
        cur = src
        for g in word:
            s, t = self.src_tgt[g]
            if s != cur:
                raise ValidationError(f"word {tuple(word)} is not a path from {src}")
            cur = t
        return cur

    def reduce(self, word) -> tuple:
        """Cancellation first, then one fold, repeated to a fixpoint."""
        w = list(word)
        cancels = self._cancels
        hints = self.pres.compose_hints
        while True:
            if not cancels.isdisjoint(zip(w, w[1:])):
                i = 0
                while i + 1 < len(w):
                    if (w[i], w[i + 1]) in cancels:
                        del w[i:i + 2]
                        i = max(i - 1, 0)
                    else:
                        i += 1
            if hints.keys().isdisjoint(zip(w, w[1:])):
                return tuple(w)
            # fold the leftmost foldable pair, then cancel again
            for i, pair in enumerate(zip(w, w[1:])):
                if pair in hints:
                    h = hints[pair]
                    w[i:i + 2] = [] if h is None else [h]
                    break

    # -- union-find

    def find(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    # -- neighbor moves (each output is congruent to the input word)

    def neighbors(self, src: str, word: tuple):
        hints = self.pres.compose_hints
        # here[i] is the object at the seam before word[i]
        here = [src]
        for g in word:
            here.append(self.src_tgt[g][1])
        # relation moves whose left side starts at i, in (move, position) order
        hits = []
        for i in range(len(word)):
            for head in {word[i:i + 1], word[i:i + 2]}:
                for m in self._moves_by_head.get(head, ()):
                    a, _, rel_src = self._moves[m]
                    if here[i] == rel_src and word[i:i + len(a)] == a:
                        hits.append((m, i))
        hits.sort()
        for m, i in hits:
            a, b, _ = self._moves[m]
            yield self.reduce(word[:i] + b + word[i + len(a):])
        for i, h in enumerate(word):
            for f, g in self._unfold.get(h, ()):
                yield self.reduce(word[:i] + (f, g) + word[i + 1:])
        # identity factorizations may be inserted anywhere; useful only when a
        # cancellation fires at a seam, so no-ops are filtered out
        for i in range(len(word) + 1):
            for f, g in self._id_unfold.get(here[i], ()):
                out = self.reduce(word[:i] + (f, g) + word[i:])
                if out != word:
                    yield out
        for i in range(len(word) + 1):
            for g, s, t in self._inverted_at.get(here[i], ()):
                # insert (g, g_inv) at an s-position and fold g leftward
                if here[i] == s and i >= 1:
                    pair = (word[i - 1], g)
                    if pair in hints:
                        h = hints[pair]
                        mid = () if h is None else (h,)
                        yield self.reduce(word[:i - 1] + mid + (inv_name(g),) + word[i:])
                # insert (g_inv, g) at a t-position and fold g rightward
                if here[i] == t and i < len(word):
                    pair = (g, word[i])
                    if pair in hints:
                        h = hints[pair]
                        mid = () if h is None else (h,)
                        yield self.reduce(word[:i] + (inv_name(g),) + mid + word[i + 1:])

    # -- discovery

    def _visit(self, src: str, word: tuple) -> None:
        """Record a new word and scan its neighbors once, cascading."""
        queue = deque()
        key = (src, word)
        self.words[key] = (src, word)
        self.parent[key] = key
        self.by_length.setdefault(len(word), []).append(key)
        queue.append(key)
        while queue:
            k = queue.popleft()
            s, w = self.words[k]
            for nb in self.neighbors(s, w):
                self.meter.tick()
                if len(nb) > self.cap:
                    continue
                nk = (s, nb)
                if nk in self.words:
                    self.union(k, nk)
                else:
                    self.words[nk] = nk
                    self.parent[nk] = nk
                    self.by_length.setdefault(len(nb), []).append(nk)
                    queue.append(nk)
                    self.union(k, nk)

    def run(self) -> None:
        """Level loop.  Activity at a level means the class set changed.

        A freshly discovered word that lands in an already-known class is
        not activity: the arrow set is the set of classes, and it only
        changes when a new class appears or two known classes merge.
        """
        for x in sorted(self.pres.objects):
            self._visit(x, ())
        signature = self._signature()
        for level in range(1, self.cap + 1):
            idx = 0
            prev = self.by_length.get(level - 1, [])
            # prev may grow while scanning (cascade discoveries); extend all
            while idx < len(prev):
                src, word = self.words[prev[idx]]
                idx += 1
                end = self.endpoint(src, word)
                for g in self.by_src.get(end, ()):
                    self.meter.tick()
                    r = self.reduce(list(word) + [g])
                    if (src, r) not in self.words:
                        # extension reduced below the level was already seen
                        self._visit(src, r)
            new_signature = self._signature()
            if new_signature != signature:
                self.last_activity = level
                signature = new_signature

    # -- results

    def _signature(self) -> frozenset:
        return frozenset(self.class_reps().values())

    def class_reps(self) -> dict:
        reps = {}
        for k, (src, word) in self.words.items():
            r = self.find(k)
            cand = (len(word), word, src)
            if r not in reps or cand < reps[r]:
                reps[r] = cand
        return reps

    def lookup(self, src: str, word):
        r = self.reduce(word)
        k = (src, r)
        if k not in self.words:
            return None
        return self.find(k)


SHORT_EQUALITY_LENGTH = 6
MAX_SATURATION_ROUNDS = 4


def _short_equalities(closure: _Closure) -> set:
    """Class equalities among short words, as candidate relations.

    Feeding these back as relations lets the next closure round apply
    them inside longer words, which catches identifications whose only
    step-by-step derivations pass through non-reduced intermediates.
    """
    classes = {}
    for k, (src, word) in closure.words.items():
        if len(word) > SHORT_EQUALITY_LENGTH:
            continue
        classes.setdefault(closure.find(k), []).append((len(word), word, src))
    out = set()
    for members in classes.values():
        if len(members) < 2:
            continue
        members.sort()
        _, rep, src = members[0]
        for _, other, _ in members[1:]:
            if other != rep:
                out.add((rep, other, src))
    return out


def reference_saturate(pres: Presentation, cap: int = DEFAULT_CAP,
                       meter: Meter | None = None) -> PresentedCategory:
    meter = meter or Meter()
    for g in pres.inverted:
        if inv_name(g) in pres.generators:
            raise ValidationError(
                f"formal inverse {inv_name(g)} of {g} is already a generator name")
    relations = set(pres.relations)
    closure = None
    for _ in range(MAX_SATURATION_ROUNDS):
        working = Presentation(pres.objects, pres.generators,
                               pres.compose_hints,
                               tuple(sorted(relations)), pres.inverted)
        closure = _Closure(working, cap, meter)
        closure.run()
        learned = _short_equalities(closure) - relations
        if not learned:
            break
        relations |= learned
    status = "finite" if closure.last_activity < cap else "undecided-at-cap"
    result = PresentedCategory(
        objects=tuple(sorted(pres.objects)),
        generators=dict(pres.generators),
        relations=pres.relations,
        cap=cap,
        status=status,
        realization=None,
        rep_of_arrow={},
    )
    if status != "finite":
        return result

    reps = closure.class_reps()
    named = {}
    for root, (_, word, src) in sorted(reps.items(), key=lambda kv: kv[1]):
        end = closure.endpoint(src, word)
        name = f"id_{src}" if not word else "w[" + ".".join(word) + "]"
        named[root] = (name, src, end, word)
    arrows = {name: (s, t) for name, s, t, _ in named.values()}
    identity = {x: f"id_{x}" for x in pres.objects}
    compose = {}
    for r1, (n1, s1, t1, w1) in named.items():
        for r2, (n2, s2, t2, w2) in named.items():
            if t1 != s2:
                continue
            root = closure.lookup(s1, w1 + w2)
            if root is None or root not in named:
                # a composite escaped the explored universe: not stable
                result.status = "undecided-at-cap"
                return result
            compose[(n2, n1)] = named[root][0]
    realization = mk_fincat(pres.objects, arrows, identity, compose)
    if not validate_category(realization).ok:
        # an inconsistent table means the closure missed identifications
        result.status = "undecided-at-cap"
        return result
    result.realization = realization
    result.rep_of_arrow = {name: (s, w) for name, s, _, w in named.values()}
    return result


def reference_localize(c, sigma, cap: int = DEFAULT_CAP,
                       meter: Meter | None = None) -> PresentedCategory:
    return reference_saturate(localization_presentation(c, sigma), cap, meter)
