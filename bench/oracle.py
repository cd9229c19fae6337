"""Answers computed apart from sigmacat, used to check its results.

A preorder is a pair ``(objects, le)``: a tuple of object names and a
frozenset of pairs ``(x, y)`` meaning ``x <= y``, reflexive and
transitive.  Categories returned by sigmacat are read only through
their public tables (``objects``, ``arrows``, ``identity``,
``compose``); nothing here calls sigmacat.
"""

from __future__ import annotations

import itertools
from math import comb


def closure(objects, strict) -> tuple:
    """The preorder generated by the relations ``strict``."""
    objects = tuple(objects)
    le = {(x, x) for x in objects} | set(strict)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(le):
            for (y2, z) in list(le):
                if y == y2 and (x, z) not in le:
                    le.add((x, z))
                    changed = True
    return objects, frozenset(le)


def chain(n: int) -> tuple:
    objs = [f"c{i}" for i in range(n)]
    return closure(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


def product(p: tuple, q: tuple) -> tuple:
    objs = tuple((x, y) for x in p[0] for y in q[0])
    le = frozenset(((x, y), (x2, y2)) for (x, x2) in p[1] for (y, y2) in q[1])
    return objs, le


def grid(m: int, n: int) -> tuple:
    return product(chain(m), chain(n))


def codiscrete(objects) -> tuple:
    objects = tuple(objects)
    return objects, frozenset(itertools.product(objects, objects))


def upset(p: tuple, a) -> tuple:
    objs = tuple(x for x in p[0] if (a, x) in p[1])
    return objs, frozenset((x, y) for (x, y) in p[1] if x in objs and y in objs)


def directed_up(p: tuple) -> bool:
    objs, le = p
    return bool(objs) and all(any((x, z) in le and (y, z) in le for z in objs)
                              for x in objs for y in objs)


def directed_down(p: tuple) -> bool:
    objs, le = p
    return directed_up((objs, frozenset((y, x) for (x, y) in le)))


def monotone_maps(p: tuple, q: tuple, glued=()) -> list[dict]:
    """Monotone maps p -> q that send each pair in ``glued`` to one value."""
    objs = p[0]
    out = []
    for values in itertools.product(q[0], repeat=len(objs)):
        f = dict(zip(objs, values))
        if all((f[x], f[y]) in q[1] for (x, y) in p[1]) and \
                all(f[x] == f[y] for (x, y) in glued):
            out.append(f)
    return out


def functor_poset_size(p: tuple, q: tuple, glued=()) -> tuple[int, int]:
    """(objects, arrows) of the poset of such maps under the pointwise order."""
    maps = monotone_maps(p, q, glued)
    pairs = sum(1 for f in maps for g in maps
                if all((f[x], g[x]) in q[1] for x in p[0]))
    return len(maps), pairs


def monotone_chain_maps(m: int, n: int) -> int:
    """Monotone maps chain_m -> chain_n: C(m+n-1, m)."""
    return comb(m + n - 1, m)


ONE = closure(["*"], [])
ARROW = closure(["0", "1"], [("0", "1")])
PAIR = closure(["x", "y"], [])


def grothendieck(base: tuple, values: dict, action: dict, marked) -> tuple:
    """The preorder of the sigma-colimit of a poset-valued diagram on a poset.

    The lax colimit of P is (El P^op)^op: objects are pairs (A, x), and
    (B, y) <= (A, x) when A <= B and y <= action[(A, B)](x).  Over each
    marked pair (A, B) the cartesian arrows (B, action(x)) -> (A, x) are
    inverted.  Valid when the answer is thin, which holds on the simply
    connected bases used here.
    """
    objs = [(A, x) for A in base[0] for x in values[A][0]]
    rel = [((B, y), (A, x)) for (A, x) in objs for (B, y) in objs
           if (A, B) in base[1] and (y, action[(A, B)](x)) in values[B][1]]
    rel += [((A, x), (B, action[(A, B)](x))) for (A, x) in objs for B in base[0]
            if (A, B) in marked]
    return closure(objs, rel)


def constant_action(base: tuple):
    return {pair: (lambda x: x) for pair in base[1]}


def representable_data(base: tuple, A) -> tuple:
    values = {B: (ONE if (A, B) in base[1] else closure([], [])) for B in base[0]}
    return values, constant_action(base)


# ---------------------------------------------------------------------------
# Reading finite categories


def thin_preorder(cat) -> tuple | None:
    """The preorder of a category with at most one arrow per hom, else None."""
    seen = set()
    for (s, t) in cat.arrows.values():
        if (s, t) in seen:
            return None
        seen.add((s, t))
    return tuple(cat.objects), frozenset(seen)


def iso_classes(cat) -> list[frozenset]:
    """Isomorphism classes, read from the composition table."""
    parent = {x: x for x in cat.objects}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for f, (x, y) in cat.arrows.items():
        for g, (y2, x2) in cat.arrows.items():
            if y2 == y and x2 == x and x != y \
                    and cat.compose[(g, f)] == cat.identity[x] \
                    and cat.compose[(f, g)] == cat.identity[y]:
                parent[find(x)] = find(y)
    classes = {}
    for x in cat.objects:
        classes.setdefault(find(x), set()).add(x)
    return [frozenset(c) for c in classes.values()]


def skeleton_preorder(cat) -> tuple | None:
    """The preorder of a skeleton of a thin category, else None."""
    p = thin_preorder(cat)
    if p is None:
        return None
    reps = sorted(min(c) for c in iso_classes(cat))
    return tuple(reps), frozenset((x, y) for (x, y) in p[1]
                                  if x in reps and y in reps)


def preorders_isomorphic(p: tuple, q: tuple) -> bool:
    """Search for an order isomorphism, matching objects by their degrees."""
    if len(p[0]) != len(q[0]) or len(p[1]) != len(q[1]):
        return False

    def signature(r, x):
        return (sum(1 for (a, _) in r[1] if a == x),
                sum(1 for (_, b) in r[1] if b == x))

    sig_q = {y: signature(q, y) for y in q[0]}
    xs = sorted(p[0], key=lambda x: signature(p, x))
    sig_p = {x: signature(p, x) for x in xs}

    def extend(i, f, used):
        if i == len(xs):
            return True
        x = xs[i]
        for y in q[0]:
            if y in used or sig_q[y] != sig_p[x]:
                continue
            if all(((x, z) in p[1]) == ((y, f[z]) in q[1]) and
                   ((z, x) in p[1]) == ((f[z], y) in q[1]) for z in xs[:i]):
                f[x] = y
                if extend(i + 1, f, used | {y}):
                    return True
                del f[x]
        return False

    return extend(0, {}, frozenset())


def is_thin_and_isomorphic(cat, expected: tuple) -> bool:
    p = thin_preorder(cat)
    return p is not None and preorders_isomorphic(p, expected)


def skeleton_isomorphic(cat, expected: tuple) -> bool:
    s = skeleton_preorder(cat)
    return s is not None and preorders_isomorphic(s, expected)
