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
    if not isinstance(s, str) or not s or not s.isascii() or any(c.isspace() for c in s):
        raise ParseError(f"bad {what}: {s!r} (need nonempty ASCII, no whitespace)")
    return s


def _need(doc: dict, keys: set, what: str, optional: set = frozenset()):
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: expected an object")
    got = set(doc)
    unknown = got - keys - optional
    if unknown:
        raise ParseError(f"{what}: unknown keys {sorted(unknown)}")
    missing = keys - got
    if missing:
        raise ParseError(f"{what}: missing keys {sorted(missing)}")


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
    objects = [_ident(o, "object") for o in doc["objects"]]
    arrows = {}
    for rec in doc["arrows"]:
        _need(rec, {"name", "src", "tgt"}, "arrow")
        arrows[_ident(rec["name"], "arrow")] = (rec["src"], rec["tgt"])
    identity = {k: v for k, v in doc["identities"].items()}
    compose = {}
    for rec in doc["compose"]:
        _need(rec, {"g", "f", "result"}, "compose entry")
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
    objects = [_ident(o, "object") for o in doc["objects"]]
    home1 = {}
    for rec in doc["cells1"]:
        _need(rec, {"name", "src", "tgt"}, "1-cell")
        home1[_ident(rec["name"], "1-cell")] = (rec["src"], rec["tgt"])
    cell2 = {}
    for rec in doc["cells2"]:
        _need(rec, {"name", "src1", "tgt1"}, "2-cell")
        cell2[_ident(rec["name"], "2-cell")] = (rec["src1"], rec["tgt1"])
    vcomp = {}
    for rec in doc["vcomp"]:
        _need(rec, {"g", "f", "result"}, "vcomp entry")
        vcomp[(rec["g"], rec["f"])] = rec["result"]
    id2 = dict(doc["identities2"])
    hom = {}
    for A in objects:
        for B in objects:
            cells = sorted(f for f, (s, t) in home1.items() if (s, t) == (A, B))
            arrows = {}
            for x, (s, t) in cell2.items():
                if s in cells:
                    arrows[x] = (s, t)
            identity = {f: id2[f] for f in cells if f in id2}
            if set(identity) != set(cells):
                raise ParseError(f"missing identity 2-cells in hom ({A},{B})")
            compose = {(g, f): r for (g, f), r in vcomp.items() if f in arrows}
            hom[(A, B)] = mk_fincat(cells, arrows, identity, compose)
    hcomp1 = {}
    for rec in doc["hcomp1"]:
        _need(rec, {"g", "f", "result"}, "hcomp1 entry")
        hcomp1[(rec["g"], rec["f"])] = rec["result"]
    hcomp2 = {}
    for rec in doc["hcomp2"]:
        _need(rec, {"b", "a", "result"}, "hcomp2 entry")
        hcomp2[(rec["b"], rec["a"])] = rec["result"]
    a = mk_fin2cat(objects, hom, dict(doc["identities"]), hcomp1, hcomp2)
    rep = validate_2category(a)
    if not rep.ok:
        raise ValidationError(f"2-category document: {rep.violations[0].detail}")
    if "sigma" in doc:
        w = WideSub(a, frozenset(doc["sigma"]))
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
    on_obj = {A: fincat_from_doc(d) for A, d in doc["on_obj"].items()}
    on_1 = {}
    for f, d in doc["on_1cell"].items():
        _need(d, {"obj_map", "arr_map"}, "1-cell assignment")
        A, B = base.hom_of_1cell(f)
        on_1[f] = Functor(on_obj[A], on_obj[B], dict(d["obj_map"]),
                          dict(d["arr_map"]))
    on_2 = {}
    for x, comps in doc["on_2cell"].items():
        f, g = None, None
        pair = base.hom_of_2cell(x)
        f = base.hom[pair].src(x)
        g = base.hom[pair].tgt(x)
        on_2[x] = NatTransf(on_1[f], on_1[g], dict(comps))
    kind = doc["kind"]
    if kind not in ("strict", "pseudo"):
        raise ParseError(f"unknown diagram kind {kind!r}")
    alpha_obj = alpha_comp = None
    if kind == "pseudo":
        if "alpha_obj" not in doc or "alpha_comp" not in doc:
            raise ParseError("pseudo diagram needs alpha_obj and alpha_comp")
        alpha_obj = {}
        for A, comps in doc["alpha_obj"].items():
            alpha_obj[A] = NatTransf(identity_functor(on_obj[A]),
                                     on_1[base.id1[A]], dict(comps))
        alpha_comp = {}
        for rec in doc["alpha_comp"]:
            _need(rec, {"f", "g", "components"}, "alpha_comp entry")
            f, g = rec["f"], rec["g"]
            src = compose_functors(on_1[g], on_1[f])
            alpha_comp[(f, g)] = NatTransf(src, on_1[base.hcomp1[(g, f)]],
                                           dict(rec["components"]))
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
