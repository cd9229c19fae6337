"""The full violation lists of corrupted diagrams, in order.

``validate_diagram`` reports every violation of a law it reaches, in a
fixed order.  Each corruption below changes one table entry of a diagram
so that a strict law or a pseudo axiom fails, not the typing of the
tables; ``golden/diagram_violations.json`` holds the lists each report
must equal, code, cells and detail, entry for entry.

The reference validator of ``diagram_validation_reference``, which builds
every composite as a functor or a transformation, must give the same
report as ``validate_diagram`` on every diagram with one table entry
changed; and ``validate_diagram`` must decide every law without building
one.

The diagrams changed are the fixture documents; the strict part of a
pseudo fixture (its tables read as a strict diagram), where the values
have automorphisms a single entry can break; and constant diagrams read
as pseudo, where the fixtures lack what a law needs: a non-invertible
endomorphism for a structure cell, or a non-identity 2-cell for the
naturality of the composition cells.
"""

import json
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

import diagram_validation_reference as reference
from helpers import FIXTURE_DOCUMENTS, diagram_from_tables, idempotent_category
from sigmacat import io as sio
from sigmacat import transforms
from sigmacat.errors import ValidationError
from sigmacat.fincat import Functor, NatTransf, group_z2_category
from sigmacat.fixtures import arrow_2cat
from sigmacat.flatness import strictify
from sigmacat.transforms import (CatDiagram, constant_diagram,
                                 reinterpret_as_pseudo, validate_diagram)
from sigmacat.two_cat import parallel_2cells_2cat

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "diagram_violations.json"


def fixture_doc(name: str) -> dict:
    return json.loads((FIXTURE_DOCUMENTS / f"{name}.json").read_text())


def strict_part(name: str) -> dict:
    doc = fixture_doc(name)
    doc["kind"] = "strict"
    return doc


def constant_pseudo(base, value) -> dict:
    return sio.diagram_to_doc(reinterpret_as_pseudo(constant_diagram(base, value)))


def edit(doc: dict, path: tuple, value) -> dict:
    """``doc`` with the entry at ``path`` set to ``value``; an ``alpha_comp``
    entry is found by its pair (f, g)."""
    if path[0] == "alpha_comp":
        table = next(r for r in doc["alpha_comp"]
                     if (r["f"], r["g"]) == path[1])["components"]
        path = path[2:]
    else:
        table = doc
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = value
    return doc


# name -> (the diagram's document, the entry changed, its new value)
CORRUPTIONS = {
    "strict-id": (lambda: strict_part("pseudo_not_flat"),
                  ("on_1cell", "id_0", "arr_map", "s"), "e"),
    "strict-comp": (lambda: strict_part("pseudo_z2"),
                    ("on_1cell", "id_0", "arr_map", "s"), "e"),
    "strict-hcomp2": (lambda: strict_part("pseudo_z2"),
                      ("on_2cell", "i2_id_0", "*"), "s"),
    "vert": (lambda: strict_part("pseudo_z2"), ("on_2cell", "i2_f", "*"), "s"),
    "alpha-typing": (lambda: fixture_doc("pseudo_not_flat"),
                     ("alpha_obj", "1", "x"), "id_y"),
    "alpha-obj": (lambda: constant_pseudo(arrow_2cat(), idempotent_category()),
                  ("alpha_obj", "1", "*"), "z"),
    "alpha-comp": (lambda: constant_pseudo(arrow_2cat(), idempotent_category()),
                   ("alpha_comp", ("id_0", "f"), "*"), "z"),
    "LF0": (lambda: fixture_doc("pseudo_z2"), ("alpha_obj", "0", "*"), "e"),
    "LF1": (lambda: fixture_doc("pseudo_z2"), ("alpha_comp", ("id_0", "f"), "*"), "e"),
    "alpha-natural": (lambda: constant_pseudo(parallel_2cells_2cat(("th",)),
                                              group_z2_category()),
                      ("alpha_comp", ("u", "id_b"), "*"), "s"),
}


def mistyped_2cell() -> CatDiagram:
    """The strict part of pseudo_z2, but the image of the 2-cell i2_f has
    for its source P(f) with s sent to e: a functor, not P(f)."""
    P = diagram_from_tables(strict_part("pseudo_z2"))
    n = P.on_2["i2_f"]
    F = n.source
    on_2 = dict(P.on_2)
    on_2["i2_f"] = NatTransf(Functor(F.source, F.target, F.obj_map,
                                     {**F.arr_map, "s": "e"}),
                             n.target, n.components)
    return CatDiagram(P.source, P.on_obj, P.on_1, on_2)


def corrupted() -> dict:
    found = {name: diagram_from_tables(edit(doc(), path, value))
             for name, (doc, path, value) in CORRUPTIONS.items()}
    found["on-2-typing"] = mistyped_2cell()
    return found


def reports(validate=validate_diagram) -> dict:
    return {name: [[v.code, list(v.cells), v.detail] for v in validate(P).violations]
            for name, P in corrupted().items()}


EXPECTED = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_the_full_violation_list_is_the_golden(name):
    assert reports()[name] == EXPECTED[name]


def test_each_corruption_shows_its_own_law():
    codes = {name: [v[0] for v in got] for name, got in reports().items()}
    for law in ("strict-id", "strict-comp", "strict-hcomp2", "alpha-typing",
                "alpha-obj", "alpha-comp", "LF1", "alpha-natural", "on-2-typing"):
        assert law in codes[law], law
    assert {"vert-id", "vert-comp"} <= set(codes["vert"])
    sides = {v[2].split(" on the ")[1].split(" ")[0]
             for v in reports()["LF0"] if v[0] == "LF0"}
    assert sides == {"left", "right"}
    # the typing pass stops before any law is read
    assert set(codes["on-2-typing"]) == {"on-2-typing"}
    assert set(codes["alpha-typing"]) == {"alpha-typing"}


# ---------------------------------------------------------------------------
# The reference agrees on every diagram with one table entry changed

DIAGRAM_FIXTURES = sorted(p.stem for p in FIXTURE_DOCUMENTS.glob("*.json")
                          if "on_obj" in json.loads(p.read_text()))

SOURCES = {
    **{name: (lambda name=name: fixture_doc(name)) for name in DIAGRAM_FIXTURES},
    **{f"{name}/strict": (lambda name=name: strict_part(name))
       for name in ("pseudo_not_flat", "pseudo_swap", "pseudo_z2")},
    "idempotent/pseudo": lambda: constant_pseudo(arrow_2cat(), idempotent_category()),
    "z2-on-parallel/pseudo": lambda: constant_pseudo(parallel_2cells_2cat(("th",)),
                                                     group_z2_category()),
}


def entries(doc: dict) -> list:
    """Every table entry of a diagram document, with the values it may take:
    an object of P(f)'s target for an object entry, an arrow of it for an
    arrow entry, so that P(g)P(f) can still be read; any arrow of any of
    the document's categories for a component."""
    base = sio.fin2cat_from_doc(doc["base"])
    arrows = {A: sorted(a["name"] for a in c["arrows"]) for A, c in doc["on_obj"].items()}
    everywhere = sorted({a for names in arrows.values() for a in names})
    found = []
    for f, d in sorted(doc["on_1cell"].items()):
        B = base.tgt1(f)
        found += [(("on_1cell", f, "obj_map", x), doc["on_obj"][B]["objects"])
                  for x in sorted(d["obj_map"])]
        found += [(("on_1cell", f, "arr_map", a), arrows[B]) for a in sorted(d["arr_map"])]
    for x, comps in sorted(doc["on_2cell"].items()):
        found += [(("on_2cell", x, o), everywhere) for o in sorted(comps)]
    if doc["kind"] == "pseudo":
        for A, comps in sorted(doc["alpha_obj"].items()):
            found += [(("alpha_obj", A, o), everywhere) for o in sorted(comps)]
        for r in doc["alpha_comp"]:
            found += [(("alpha_comp", (r["f"], r["g"]), o), everywhere)
                      for o in sorted(r["components"])]
    return found


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_reference_and_table_validators_agree_on_one_changed_entry(data):
    source = data.draw(st.sampled_from(sorted(SOURCES)))
    doc = SOURCES[source]()
    path, values = data.draw(st.sampled_from(entries(doc)))
    doc = edit(doc, path, data.draw(st.sampled_from(values)))
    P = diagram_from_tables(doc)
    got = [(v.code, v.cells, v.detail) for v in validate_diagram(P).violations]
    want = [(v.code, v.cells, v.detail) for v in reference.validate_diagram(P).violations]
    assert got == want
    if not want:
        sio.diagram_from_doc(doc)
    else:
        with pytest.raises(ValidationError, match=f"^diagram document: {re.escape(want[0][2])}$"):
            sio.diagram_from_doc(doc)


def test_the_golden_is_the_reference_report():
    assert reports(reference.validate_diagram) == EXPECTED


def test_validation_builds_no_functor_or_transformation(monkeypatch):
    """Every law is read off the tables: validation must pass on every
    fixture diagram and every strictification with the functor and
    transformation algebra made to fail."""
    diagrams = [diagram_from_tables(fixture_doc(name)) for name in DIAGRAM_FIXTURES]
    diagrams += [strictify(P)[0] for P in diagrams]

    def refuse(*args, **kwargs):
        raise AssertionError("validation built a functor or a transformation")

    for name in ("compose_functors", "vcomp_nat", "whisker_functor_nat",
                 "whisker_nat_functor", "_hcomp_transf"):
        monkeypatch.setattr(transforms, name, refuse, raising=False)
    for P in diagrams:
        assert validate_diagram(P).ok
