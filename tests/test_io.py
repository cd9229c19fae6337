"""Documents of natural transformations and of transformations of diagrams
survive encoding and parsing, and a broken one is refused."""

import json
import re

import pytest

from helpers import FIXTURE_DOCUMENTS
from sigmacat import io as sio
from sigmacat.errors import ParseError, ValidationError
from sigmacat.fincat import (Functor, NatTransf, arrow_category, identity_functor,
                             terminal_category)
from sigmacat.fixtures import diagram_collapse, diagram_pick0
from sigmacat.transforms import LAX, PSEUDO, STRICT, constant_diagram, hom_eps


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
