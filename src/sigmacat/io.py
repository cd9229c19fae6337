"""Wire formats: JSON-shaped documents for every value the CLI touches.

Documents are dictionaries with a fixed key set per type; unknown keys
are rejected, identifiers must be nonempty ASCII without whitespace, and
round-tripping a parsed document re-serializes to the same cells and
tables.  ``parse_document`` dispatches on the key set.  Identifiers may
hold the delimiters of composite names, since those names are decoded
from the tables that minted them; a construction that would mint one
name for two cells refuses the input (``PreconditionFailed``).
"""

from __future__ import annotations

import json

from .errors import ParseError, ValidationError
from .fincat import (FinCat, Functor, NatTransf, compose_functors,
                     identity_functor, mk_fincat, validate_category,
                     validate_functor, validate_nat_transf)
from .two_cat import (Fin2Cat, Marked2Cat, WideSub, mk_fin2cat,
                      validate_2category, validate_wide_sub)
from .transforms import (CatDiagram, Flavor, LAX, PSEUDO, STRICT,
                         Transformation, TwoFunctor, check_transformation,
                         sigma_flavor, validate_diagram, validate_twofunctor)


def _ident(s, what="identifier"):
    # ``split`` breaks at every whitespace character and drops empty pieces
    if not isinstance(s, str) or not s.isascii() or s.split() != [s]:
        raise ParseError(f"bad {what}: {s!r} (need nonempty ASCII, no whitespace)")
    return s


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what}: expected a list")
    return value


def _record(rec, keys: set, what: str) -> dict:
    """A table record: an object with exactly ``keys``, each a string."""
    _need(rec, keys, what)
    for k, v in rec.items():
        if not isinstance(v, str):
            raise ParseError(f"{what}: {k} must be a string, not {v!r}")
    return rec


def _map(value, what: str) -> dict:
    """A table from names to names: an object whose values are strings."""
    if not isinstance(value, dict) or \
            not all(isinstance(v, str) for v in value.values()):
        raise ParseError(f"{what}: expected an object of strings")
    return dict(value)


def _assigned(table, known, what: str, kind: str) -> dict:
    """An object with a value for every declared ``kind`` and no other."""
    if not isinstance(table, dict):
        raise ParseError(f"{what}: expected an object")
    for name in table:
        _declared(name, known, what, kind)
    for name in known:
        if name not in table:
            raise ParseError(f"{what}: {kind} {name} is not assigned")
    return table


def _need(doc: dict, keys: set, what: str, optional: set = frozenset()):
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: expected an object")
    if doc.keys() == keys:
        return
    got = set(doc)
    unknown = got - keys - optional
    if unknown:
        raise ParseError(f"{what}: unknown keys {sorted(unknown)}")
    missing = keys - got
    if missing:
        raise ParseError(f"{what}: missing keys {sorted(missing)}")


def _declared(name, known, record: str, what: str) -> None:
    """Refuse a record that names a cell the document does not declare,
    which the tables would otherwise drop without a word."""
    if not isinstance(name, str) or name not in known:
        raise ParseError(f"{record}: {name!r} is not a declared {what}")


# ---------------------------------------------------------------------------
# FinCat


def fincat_to_doc(c: FinCat) -> dict:
    return {
        "objects": sorted(c.objects),
        "arrows": [{"name": a, "src": s, "tgt": t}
                   for a, (s, t) in sorted(c.arrows.items())],
        "identities": dict(sorted(c.identity.items())),
        "compose": [{"g": g, "f": f, "result": h}
                    for (g, f), h in sorted(c.compose.items())],
    }


def fincat_from_doc(doc: dict) -> FinCat:
    _need(doc, {"objects", "arrows", "identities", "compose"}, "category")
    objects = [_ident(o, "object") for o in _list(doc["objects"], "objects")]
    arrows = {}
    for rec in _list(doc["arrows"], "arrows"):
        _record(rec, {"name", "src", "tgt"}, "arrow")
        arrows[_ident(rec["name"], "arrow")] = (rec["src"], rec["tgt"])
    identity = _map(doc["identities"], "identities")
    for x in identity:
        _declared(x, objects, "identities", "object")
    compose = {}
    for rec in _list(doc["compose"], "compose"):
        _record(rec, {"g", "f", "result"}, "compose entry")
        compose[(rec["g"], rec["f"])] = rec["result"]
    c = mk_fincat(objects, arrows, identity, compose)
    rep = validate_category(c)
    if not rep.ok:
        raise ValidationError(f"category document: {rep.violations[0].detail}")
    return c


# ---------------------------------------------------------------------------
# Fin2Cat


def fin2cat_to_doc(a: Fin2Cat, sigma: WideSub | None = None) -> dict:
    cells1 = []
    cells2 = []
    vcomp = []
    id2 = {}
    for pair in sorted(a.hom):
        h = a.hom[pair]
        for f in sorted(h.objects):
            cells1.append({"name": f, "src": pair[0], "tgt": pair[1]})
        for x, (s, t) in sorted(h.arrows.items()):
            cells2.append({"name": x, "src1": s, "tgt1": t})
        for f, i in sorted(h.identity.items()):
            id2[f] = i
        for (g, f), r in sorted(h.compose.items()):
            vcomp.append({"g": g, "f": f, "result": r})
    doc = {
        "objects": sorted(a.objects),
        "cells1": cells1,
        "cells2": cells2,
        "identities": dict(sorted(a.id1.items())),
        "identities2": id2,
        "vcomp": vcomp,
        "hcomp1": [{"g": g, "f": f, "result": r}
                   for (g, f), r in sorted(a.hcomp1.items())],
        "hcomp2": [{"b": b, "a": x, "result": r}
                   for (b, x), r in sorted(a.hcomp2.items())],
    }
    if sigma is not None:
        doc["sigma"] = sorted(sigma.arrows)
    return doc


def fin2cat_from_doc(doc: dict):
    keys = {"objects", "cells1", "cells2", "identities", "identities2",
            "vcomp", "hcomp1", "hcomp2"}
    _need(doc, keys, "2-category", optional={"sigma"})
    objects = [_ident(o, "object") for o in _list(doc["objects"], "objects")]
    home1 = {}
    for rec in _list(doc["cells1"], "cells1"):
        _record(rec, {"name", "src", "tgt"}, "1-cell")
        name = _ident(rec["name"], "1-cell")
        for end in (rec["src"], rec["tgt"]):
            _declared(end, objects, f"1-cell {name}", "object")
        home1[name] = (rec["src"], rec["tgt"])
    home2 = {}
    for rec in _list(doc["cells2"], "cells2"):
        _record(rec, {"name", "src1", "tgt1"}, "2-cell")
        name = _ident(rec["name"], "2-cell")
        _declared(rec["src1"], home1, f"2-cell {name}", "1-cell")
        home2[name] = (rec["src1"], rec["tgt1"])
    # each cell is filed once under its hom: a 2-cell under the hom of its
    # src1, an identity and a vcomp entry under that of their 1-cell and f;
    # validation checks the other end against that hom
    homs = {(A, B): ([], {}, {}, {}) for A in objects for B in objects}
    for f, pair in home1.items():
        homs[pair][0].append(f)
    for x, (s, t) in home2.items():
        homs[home1[s]][1][x] = (s, t)
    for f, i in _map(doc["identities2"], "identities2").items():
        _declared(f, home1, "identities2", "1-cell")
        homs[home1[f]][2][f] = i
    for rec in _list(doc["vcomp"], "vcomp"):
        _record(rec, {"g", "f", "result"}, "vcomp entry")
        _declared(rec["f"], home2, f"vcomp entry ({rec['g']}, {rec['f']})", "2-cell")
        homs[home1[home2[rec["f"]][0]]][3][(rec["g"], rec["f"])] = rec["result"]
    hom = {}
    for (A, B), (cells, arrows, identity, compose) in homs.items():
        if len(identity) != len(cells):
            raise ParseError(f"missing identity 2-cells in hom ({A},{B})")
        hom[(A, B)] = mk_fincat(cells, arrows, identity, compose)
    hcomp1 = {}
    for rec in _list(doc["hcomp1"], "hcomp1"):
        _record(rec, {"g", "f", "result"}, "hcomp1 entry")
        hcomp1[(rec["g"], rec["f"])] = rec["result"]
    hcomp2 = {}
    for rec in _list(doc["hcomp2"], "hcomp2"):
        _record(rec, {"b", "a", "result"}, "hcomp2 entry")
        hcomp2[(rec["b"], rec["a"])] = rec["result"]
    a = mk_fin2cat(objects, hom, _map(doc["identities"], "identities"), hcomp1, hcomp2)
    rep = validate_2category(a)
    if not rep.ok:
        raise ValidationError(f"2-category document: {rep.violations[0].detail}")
    if "sigma" in doc:
        w = WideSub(a, frozenset(_ident(f, "marked 1-cell")
                                 for f in _list(doc["sigma"], "sigma")))
        wrep = validate_wide_sub(w)
        if not wrep.ok:
            raise ValidationError(f"sigma: {wrep.violations[0].detail}")
        return Marked2Cat(a, w)
    return a


# ---------------------------------------------------------------------------
# Functors and transformations at the 1-level


def functor_to_doc(F: Functor) -> dict:
    return {
        "source": fincat_to_doc(F.source),
        "target": fincat_to_doc(F.target),
        "obj_map": dict(sorted(F.obj_map.items())),
        "arr_map": dict(sorted(F.arr_map.items())),
    }


def functor_from_doc(doc: dict) -> Functor:
    _need(doc, {"source", "target", "obj_map", "arr_map"}, "functor")
    F = Functor(fincat_from_doc(doc["source"]), fincat_from_doc(doc["target"]),
                dict(doc["obj_map"]), dict(doc["arr_map"]))
    rep = validate_functor(F)
    if not rep.ok:
        raise ValidationError(f"functor document: {rep.violations[0].detail}")
    return F


def nat_transf_to_doc(n: NatTransf) -> dict:
    return {
        "source_functor": functor_to_doc(n.source),
        "target_functor": functor_to_doc(n.target),
        "components": dict(sorted(n.components.items())),
    }


def nat_transf_from_doc(doc: dict) -> NatTransf:
    _need(doc, {"source_functor", "target_functor", "components"},
          "natural transformation")
    n = NatTransf(functor_from_doc(doc["source_functor"]),
                  functor_from_doc(doc["target_functor"]),
                  dict(doc["components"]))
    rep = validate_nat_transf(n)
    if not rep.ok:
        raise ValidationError(f"transformation document: {rep.violations[0].detail}")
    return n


# ---------------------------------------------------------------------------
# Diagrams


def diagram_to_doc(P: CatDiagram) -> dict:
    base = P.source
    doc = {
        "base": fin2cat_to_doc(base),
        "kind": P.kind,
        "on_obj": {A: fincat_to_doc(P.on_obj[A]) for A in sorted(base.objects)},
        "on_1cell": {f: {"obj_map": dict(sorted(P.on_1[f].obj_map.items())),
                         "arr_map": dict(sorted(P.on_1[f].arr_map.items()))}
                     for f in base.all_one_cells()},
        "on_2cell": {x: dict(sorted(P.on_2[x].components.items()))
                     for x in base.all_two_cells()},
    }
    if P.is_pseudo:
        doc["alpha_obj"] = {A: dict(sorted(P.alpha_obj[A].components.items()))
                            for A in sorted(base.objects)}
        doc["alpha_comp"] = [{"f": f, "g": g,
                              "components": dict(sorted(n.components.items()))}
                             for (f, g), n in sorted(P.alpha_comp.items())]
    return doc


def diagram_from_doc(doc: dict) -> CatDiagram:
    _need(doc, {"base", "kind", "on_obj", "on_1cell", "on_2cell"}, "diagram",
          optional={"alpha_obj", "alpha_comp"})
    base = fin2cat_from_doc(doc["base"])
    if isinstance(base, Marked2Cat):
        base = base.cat
    on_obj = {A: fincat_from_doc(d) for A, d in
              _assigned(doc["on_obj"], base.objects, "on_obj", "object").items()}
    on_1 = {}
    for f, d in _assigned(doc["on_1cell"], base._cell1_home, "on_1cell", "1-cell").items():
        _need(d, {"obj_map", "arr_map"}, "1-cell assignment")
        A, B = base.hom_of_1cell(f)
        on_1[f] = Functor(on_obj[A], on_obj[B], _map(d["obj_map"], f"on_1cell {f}: obj_map"),
                          _map(d["arr_map"], f"on_1cell {f}: arr_map"))
    on_2 = {}
    for x, comps in _assigned(doc["on_2cell"], base._cell2_home, "on_2cell", "2-cell").items():
        on_2[x] = NatTransf(on_1[base.src2(x)], on_1[base.tgt2(x)],
                            _map(comps, f"on_2cell {x}"))
    kind = doc["kind"]
    if kind not in ("strict", "pseudo"):
        raise ParseError(f"unknown diagram kind {kind!r}")
    alpha_obj = alpha_comp = None
    if kind == "pseudo":
        if "alpha_obj" not in doc or "alpha_comp" not in doc:
            raise ParseError("pseudo diagram needs alpha_obj and alpha_comp")
        alpha_obj = {}
        for A, comps in _assigned(doc["alpha_obj"], base.objects, "alpha_obj", "object").items():
            alpha_obj[A] = NatTransf(identity_functor(on_obj[A]),
                                     on_1[base.id1[A]], _map(comps, f"alpha_obj {A}"))
        alpha_comp = {}
        for rec in _list(doc["alpha_comp"], "alpha_comp"):
            _need(rec, {"f", "g", "components"}, "alpha_comp entry")
            f, g = _ident(rec["f"], "1-cell"), _ident(rec["g"], "1-cell")
            if (g, f) not in base.hcomp1:
                raise ParseError(f"alpha_comp entry ({f}, {g}): not a composable pair")
            # P(g)P(f) read with ``get``: where P(f) or P(g) is no functor,
            # validation refuses the document before it reads this cell
            F, G = on_1[f], on_1[g]
            src = Functor(F.source, G.target,
                          {x: G.obj_map.get(y) for x, y in F.obj_map.items()},
                          {a: G.arr_map.get(b) for a, b in F.arr_map.items()})
            alpha_comp[(f, g)] = NatTransf(src, on_1[base.hcomp1[(g, f)]],
                                           _map(rec["components"], f"alpha_comp entry ({f}, {g})"))
    P = CatDiagram(base, on_obj, on_1, on_2, kind, alpha_obj, alpha_comp)
    rep = validate_diagram(P)
    if not rep.ok:
        raise ValidationError(f"diagram document: {rep.violations[0].detail}")
    return P


# ---------------------------------------------------------------------------
# 2-functors and transformations between diagrams


def twofunctor_to_doc(T: TwoFunctor) -> dict:
    return {
        "source": fin2cat_to_doc(T.source),
        "target": fin2cat_to_doc(T.target),
        "obj_map": dict(sorted(T.obj_map.items())),
        "map1": dict(sorted(T.map1.items())),
        "map2": dict(sorted(T.map2.items())),
    }


def twofunctor_from_doc(doc: dict) -> TwoFunctor:
    _need(doc, {"source", "target", "obj_map", "map1", "map2"}, "2-functor")
    src = fin2cat_from_doc(doc["source"])
    tgt = fin2cat_from_doc(doc["target"])
    if isinstance(src, Marked2Cat):
        src = src.cat
    if isinstance(tgt, Marked2Cat):
        tgt = tgt.cat
    T = TwoFunctor(src, tgt, dict(doc["obj_map"]), dict(doc["map1"]),
                   dict(doc["map2"]))
    rep = validate_twofunctor(T)
    if not rep.ok:
        raise ValidationError(f"2-functor document: {rep.violations[0].detail}")
    return T


def flavor_to_doc(fl: Flavor):
    if fl.kind == "sigma":
        return {"sigma": sorted(fl.marked)}
    return {"s": "s", "p": "p", "l": "lax"}[fl.kind]


def flavor_from_doc(doc) -> Flavor:
    if doc == "s":
        return STRICT
    if doc == "p":
        return PSEUDO
    if doc == "lax":
        return LAX
    if isinstance(doc, dict) and set(doc) == {"sigma"}:
        return sigma_flavor(doc["sigma"])
    raise ParseError(f"unknown flavor {doc!r}")


def transformation_to_doc(t: Transformation) -> dict:
    return {
        "source": diagram_to_doc(t.source),
        "target": diagram_to_doc(t.target),
        "components": {A: {"obj_map": dict(sorted(F.obj_map.items())),
                           "arr_map": dict(sorted(F.arr_map.items()))}
                       for A, F in sorted(t.components.items())},
        "structural": {f: dict(sorted(n.components.items()))
                       for f, n in sorted(t.structural.items())},
        "flavor": flavor_to_doc(t.flavor),
    }


def transformation_from_doc(doc: dict) -> Transformation:
    _need(doc, {"source", "target", "components", "structural", "flavor"},
          "transformation")
    P = diagram_from_doc(doc["source"])
    Q = diagram_from_doc(doc["target"])
    base = P.source
    comps = {}
    for A, d in doc["components"].items():
        _need(d, {"obj_map", "arr_map"}, "component")
        comps[A] = Functor(P.on_obj[A], Q.on_obj[A], dict(d["obj_map"]),
                           dict(d["arr_map"]))
        rep = validate_functor(comps[A])
        if not rep.ok:
            raise ValidationError(
                f"transformation document: component at {A}: {rep.violations[0].detail}")
    structural = {}
    for f, c in doc["structural"].items():
        A, B = base.hom_of_1cell(f)
        src = compose_functors(Q.on_1[f], comps[A])
        tgt = compose_functors(comps[B], P.on_1[f])
        structural[f] = NatTransf(src, tgt, dict(c))
    t = Transformation(P, Q, comps, structural, flavor_from_doc(doc["flavor"]))
    rep = check_transformation(t)
    if not rep.ok:
        raise ValidationError(f"transformation document: {rep.violations[0].detail}")
    return t


# ---------------------------------------------------------------------------
# Dispatch


def parse_document(text: str):
    """Parse any supported document, dispatching on its key set."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    keys = set(doc)
    if "on_obj" in keys:
        return diagram_from_doc(doc)
    if "map1" in keys:
        return twofunctor_from_doc(doc)
    if "flavor" in keys and "components" in keys:
        return transformation_from_doc(doc)
    if "source_functor" in keys:
        return nat_transf_from_doc(doc)
    if "obj_map" in keys and "arr_map" in keys:
        return functor_from_doc(doc)
    if "cells1" in keys:
        return fin2cat_from_doc(doc)
    if "arrows" in keys:
        return fincat_from_doc(doc)
    raise ParseError(f"unrecognized document with keys {sorted(keys)}")


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
