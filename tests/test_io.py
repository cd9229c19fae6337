"""Documents of natural transformations and of transformations of diagrams
survive encoding and parsing, and a broken one is refused.  ``dumps``
writes the bytes of ``json.dumps(doc, sort_keys=True, indent=2)`` and a
newline, and refuses what it cannot write."""

import copy
import json
import pathlib
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from helpers import FIXTURE_DOCUMENTS
from sigmacat import io as sio
from sigmacat.cli import run
from sigmacat.errors import ParseError, PreconditionFailed, ValidationError
from sigmacat.fincat import (FinCat, Functor, NatTransf, arrow_category,
                             identity_functor, terminal_category)
from sigmacat.fixtures import arrow_2cat, diagram_collapse, diagram_pick0
from sigmacat.transforms import (LAX, PSEUDO, STRICT, CatDiagram, constant_diagram,
                                 hom_eps, identity_twofunctor, sigma_flavor)
from sigmacat.two_cat import Fin2Cat, Marked2Cat


def _step():
    two = arrow_category()
    idf = identity_functor(two)
    const1 = Functor(two, two, {"0": "1", "1": "1"},
                     {a: "id_1" for a in two.arrows})
    return NatTransf(idf, const1, {"0": "f", "1": "id_1"})


def test_nat_transf_round_trip():
    n = _step()
    doc = sio.nat_transf_to_doc(n)
    again = sio.parse_document(sio.dumps(doc))
    assert again == n
    assert sio.nat_transf_from_doc(json.loads(sio.dumps(doc))) == n
    assert sio.nat_transf_to_doc(again) == doc


def _to_doc(value) -> dict:
    if isinstance(value, CatDiagram):
        return sio.diagram_to_doc(value)
    if isinstance(value, Marked2Cat):
        return sio.fin2cat_to_doc(value.cat, value.sigma)
    if isinstance(value, Fin2Cat):
        return sio.fin2cat_to_doc(value)
    assert isinstance(value, FinCat)
    return sio.fincat_to_doc(value)


@pytest.mark.parametrize("path", sorted(FIXTURE_DOCUMENTS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_every_fixture_re_encodes_byte_for_byte(path):
    text = path.read_text()
    assert sio.dumps(_to_doc(sio.parse_document(text))) == text


# Expectation tables that tests read with ``json.loads``, written one
# violation a line; every other golden is a report as ``dumps`` writes it.
EXPECTATION_TABLES = {"diagram_violations.json", "violations.json"}
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
REPORT_GOLDENS = [path for path in sorted(GOLDEN.glob("*.json"))
                  if path.name not in EXPECTATION_TABLES]


def test_the_expectation_tables_are_goldens():
    assert EXPECTATION_TABLES < {path.name for path in GOLDEN.glob("*.json")}


@pytest.mark.parametrize("path", REPORT_GOLDENS, ids=lambda path: path.stem)
def test_every_golden_report_re_encodes_byte_for_byte(path):
    text = path.read_text()
    assert sio.dumps(json.loads(text)) == text


# Strings with every kind of character json escapes or passes through:
# quotes, backslashes, control characters, non-ASCII and astral ones.
SPECIAL = '"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=6)
SCALARS = st.one_of(st.none(), st.booleans(), TEXT,
                    st.integers(), st.integers(-2 ** 200, 2 ** 200))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)), max_leaves=24)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(VALUES)
def test_dumps_writes_the_bytes_of_json_dumps(value):
    assert sio.dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {"a"}, {1: "a"}, {"a": 1, 2: "b"}, {"a": [{"b": 0.5}]}, ["a", ("b",)],
], ids=["float", "tuple", "set", "int-key", "mixed-keys", "nested-float", "nested-tuple"])
def test_dumps_refuses_what_json_would_coerce(value):
    with pytest.raises(PreconditionFailed, match="cannot write the"):
        sio.dumps(value)


def test_nat_transf_document_must_be_natural():
    doc = sio.nat_transf_to_doc(_step())
    doc["components"]["0"] = "id_0"  # no arrow 0 -> 1 is an identity
    with pytest.raises(ValidationError):
        sio.nat_transf_from_doc(doc)


def _transformations():
    """Every transformation of each flavour between two small diagrams."""
    point = constant_diagram(diagram_pick0().source, terminal_category())
    for P, Q in ((point, diagram_pick0()), (point, diagram_collapse()),
                 (diagram_pick0(), diagram_pick0())):
        for flavor in (STRICT, PSEUDO, LAX):
            yield from hom_eps(P, Q, flavor).transfs.values()


@pytest.mark.parametrize("t", list(_transformations()))
def test_transformation_round_trip(t):
    doc = sio.transformation_to_doc(t)
    again = sio.parse_document(sio.dumps(doc))
    assert again.key() == t.key()
    assert again.flavor == t.flavor
    assert sio.transformation_to_doc(again) == doc


def test_transformation_document_must_be_coherent():
    t = next(t for t in _transformations() if t.flavor == STRICT)
    doc = sio.transformation_to_doc(t)
    doc["structural"]["f"]["*"] = "f"  # the cell at f must be an arrow 0 -> 0
    with pytest.raises(ValidationError):
        sio.transformation_from_doc(doc)


def test_transformation_document_with_a_partial_component_is_refused():
    t = next(t for t in _transformations() if t.flavor == STRICT)
    doc = sio.transformation_to_doc(t)
    doc["components"]["1"]["obj_map"] = {"0": "1", "1": "0"}  # no image of *
    with pytest.raises(ValidationError, match="component at 1"):
        sio.transformation_from_doc(doc)


def test_functor_document_with_a_partial_object_map_is_refused():
    doc = sio.functor_to_doc(identity_functor(arrow_category()))
    doc["obj_map"] = {"0": "0"}
    with pytest.raises(ValidationError, match="object 1 is not mapped"):
        sio.functor_from_doc(doc)


def test_diagram_document_with_a_partial_functor_is_refused():
    doc = sio.diagram_to_doc(diagram_pick0())
    doc["on_1cell"]["f"]["obj_map"] = {}
    with pytest.raises(ValidationError, match="diagram document"):
        sio.diagram_from_doc(doc)



# one record naming an undeclared cell, added to a fixture that parses:
# (fixture, key, record, refusal, message).  The first five were accepted,
# the record dropped without a word; a far end is left to validation,
# which refuses it as it did
DANGLING = {
    "cells2": ("arrow_2cat", "cells2", {"name": "z", "src1": "q", "tgt1": "q"},
               ParseError, "2-cell z: 'q' is not a declared 1-cell"),
    "cells1": ("arrow_2cat", "cells1", {"name": "h", "src": "9", "tgt": "1"},
               ParseError, "1-cell h: '9' is not a declared object"),
    "vcomp": ("arrow_2cat", "vcomp", {"g": "p", "f": "q", "result": "p"},
              ParseError, "vcomp entry (p, q): 'q' is not a declared 2-cell"),
    "identities2": ("arrow_2cat", "identities2", {"q": "i2_f"},
                    ParseError, "identities2: 'q' is not a declared 1-cell"),
    "identities": ("arrow_category", "identities", {"9": "f"},
                   ParseError, "identities: '9' is not a declared object"),
    "cells2-tgt1": ("arrow_2cat", "cells2", {"name": "z", "src1": "f", "tgt1": "q"},
                    ValidationError, "2-category document: arrow z has unknown endpoints"),
    "vcomp-g": ("arrow_2cat", "vcomp", {"g": "p", "f": "i2_f", "result": "i2_f"},
                ValidationError, "2-category document: table entry over unknown arrows"),
}


@pytest.mark.parametrize("kind", sorted(DANGLING))
def test_a_record_naming_an_undeclared_cell_is_refused(kind):
    fixture, key, record, refusal, message = DANGLING[kind]
    doc = json.loads((FIXTURE_DOCUMENTS / f"{fixture}.json").read_text())
    sio.parse_document(json.dumps(doc))
    if isinstance(doc[key], list):
        doc[key].append(record)
    else:
        doc[key].update(record)
    with pytest.raises(refusal, match=f"^{re.escape(message)}$"):
        sio.parse_document(json.dumps(doc))


def _documents() -> dict:
    """The fixture documents by name, and one document of each kind no
    fixture is: a functor, a natural transformation, a 2-functor and a
    σ-transformation."""
    docs = {p.stem: json.loads(p.read_text())
            for p in sorted(FIXTURE_DOCUMENTS.glob("*.json"))}
    point = constant_diagram(diagram_pick0().source, terminal_category())
    docs["functor"] = sio.functor_to_doc(_step().target)
    docs["nat_transf"] = sio.nat_transf_to_doc(_step())
    docs["twofunctor"] = sio.twofunctor_to_doc(identity_twofunctor(arrow_2cat()))
    docs["transformation"] = sio.transformation_to_doc(
        next(iter(hom_eps(point, diagram_pick0(), sigma_flavor({"f"})).transfs.values())))
    return docs


DOCUMENTS = _documents()


# malformed documents that escaped ``cli.run`` as a TypeError, ValueError,
# AttributeError or KeyError, or that answered ``valid``: (document,
# change, command, refusal).  The three refused with ValidationError among
# the fixtures' name a cell that is not there or not of the right type,
# which validation, or the parser's composite of P(g) and P(f), looked up;
# the last seven are documents of the kinds no fixture is, whose maps were
# read unchecked, or whose σ-flavour marked a 1-cell the base lacks
def _set(*path, value):
    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return change


def _drop(*path):
    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return change


MALFORMED = {
    "objects-string": ("arrow_2cat", _set("objects", value="01"), ["validate"],
                       (ParseError, "objects: expected a list")),
    "hcomp2-result-object": ("diamond_2cat", _set("hcomp2", 0, "result", value={"x": 1}),
                             ["validate"], (ParseError, "hcomp2 entry: result must be "
                                            "a string, not {'x': 1}")),
    "identities-string": ("arrow_2cat", _set("identities", value="id_0"), ["validate"],
                          (ParseError, "identities: expected an object of strings")),
    "obj-map-list": ("diagram_pick0", _set("on_1cell", "id_1", "obj_map", value=["0", "1"]),
                     ["validate"],
                     (ParseError, "on_1cell id_1: obj_map: expected an object of strings")),
    "on-2cell-list": ("diagram_pick0", _set("on_2cell", value=[]), ["validate"],
                      (ParseError, "on_2cell: expected an object")),
    "on-obj-missing": ("pseudo_z2", _drop("on_obj", "0"), ["flat", "--pseudo"],
                       (ParseError, "on_obj: object 0 is not assigned")),
    "hcomp2-result-undeclared": ("diamond_2cat", _set("hcomp2", 0, "result", value="z"),
                                 ["validate"], (ValidationError, "2-category document: "
                                                "composite 2-cell mistyped")),
    "obj-map-undeclared": ("pseudo_swap", _set("on_1cell", "f", "obj_map", "0", value="z"),
                           ["validate"], (ValidationError, "diagram document: assignment "
                                                           "at f is not a functor")),
    "arr-map-mistyped": ("diagram_collapse", _set("on_1cell", "id_0", "arr_map", "f",
                                                  value="id_0"), ["validate"],
                         (ValidationError, "diagram document: assignment at id_0 "
                                           "is not a functor")),
    "functor-obj-map-string": ("functor", _set("obj_map", value="01"), ["validate"],
                               (ParseError, "obj_map: expected an object of strings")),
    "nat-transf-components-list": ("nat_transf", _set("components", value=["0", "1"]),
                                   ["validate"],
                                   (ParseError, "components: expected an object of strings")),
    "twofunctor-map1-missing": ("twofunctor", _drop("map1", "f"), ["cofinal"],
                                (ParseError, "map1: 1-cell f is not assigned")),
    "transformation-structural-null": ("transformation", _set("structural", value=None),
                                       ["validate"],
                                       (ParseError, "structural: expected an object")),
    "transformation-sigma-number": ("transformation", _set("flavor", "sigma", value=1),
                                    ["validate"], (ParseError, "sigma: expected a list")),
    "transformation-sigma-undeclared": ("transformation",
                                        _set("flavor", "sigma", value=["zz"]), ["validate"],
                                        (ParseError, "flavor: 'zz' is not a declared 1-cell")),
    "transformation-target-elsewhere": (
        "transformation", _set("target", value=DOCUMENTS["representable_diamond_top"]),
        ["validate"], (ValidationError, "transformation document: source and target "
                                        "live over different bases")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_document_is_refused(case, tmp_path, capsys):
    fixture, change, command, (refusal, message) = MALFORMED[case]
    doc = copy.deepcopy(DOCUMENTS[fixture])
    change(doc)
    with pytest.raises(refusal, match=f"^{re.escape(message)}$"):
        sio.parse_document(json.dumps(doc))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run([command[0], str(path), *command[1:]]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "command": command[0], "detail": message, "error": "invalid-input"}


# ---------------------------------------------------------------------------
# The error contract under one mutation: every command answers a mutated
# document with exit 0, 2 or 3 and one JSON report on stdout, and nothing
# escapes ``cli.run``.


COMMANDS = (("validate",), ("flat",), ("flat", "--pseudo"), ("elements",), ("exact",),
            ("colimit",), ("filtered",), ("filtered", "--co"))
RETYPED = (None, 1, "01", ["0", "1"], {"x": 1})


def _paths(doc, path=()):
    """The path of every value below the document's root, in document order."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def _strings(doc) -> list:
    """Every key and string value of the document, sorted."""
    found = set()
    for path in _paths(doc):
        found.update(k for k in path[-1:] if isinstance(k, str))
        if isinstance(_at(doc, path), str):
            found.add(_at(doc, path))
    return sorted(found)


def _mutated(doc, path: tuple, kind: str, value=None):
    """A copy of ``doc`` with the value at ``path`` deleted, duplicated (a
    list entry twice over, a map value as a list of two copies) or replaced
    by ``value``."""
    doc = copy.deepcopy(doc)
    parent, last = _at(doc, path[:-1]), path[-1]
    if kind == "delete":
        del parent[last]
    elif kind == "duplicate":
        if isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            parent[last] = [parent[last], copy.deepcopy(parent[last])]
    else:
        parent[last] = value
    return doc


def _run_on(doc, command: tuple, path) -> tuple[int, str]:
    path.write_text(json.dumps(doc))
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = run(["--budget", "20000", command[0], str(path), *command[1:]])
    return code, out.getvalue()


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.data())
def test_one_mutation_never_escapes_the_cli(data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)), "document")
    doc = DOCUMENTS[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), "path")
    kind = data.draw(st.sampled_from(("delete", "retype", "replace", "duplicate")), "kind")
    value = None
    if kind == "retype":
        old = type(_at(doc, path))
        value = data.draw(st.sampled_from([v for v in RETYPED if type(v) is not old]),
                          "value")
    elif kind == "replace":
        value = data.draw(st.sampled_from(_strings(doc)), "value")
    commands = COMMANDS + ((("cofinal",),) if name == "twofunctor" else ())
    command = data.draw(st.sampled_from(commands), "command")
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _run_on(_mutated(doc, path, kind, value), command,
                            pathlib.Path(tmp) / "doc.json")
    assert code in (0, 2, 3)
    assert isinstance(json.loads(out), dict)
