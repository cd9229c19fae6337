"""Small categories, strategies and digests shared by the test modules."""

import hashlib

from hypothesis import strategies as st

from sigmacat.fincat import mk_fincat
from sigmacat.fixtures import poset_category


def idempotent_category():
    """One object, with e and an idempotent z that is not invertible."""
    return mk_fincat(("*",), {"e": ("*", "*"), "z": ("*", "*")}, {"*": "e"},
                     {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z",
                      ("z", "z"): "z"})


@st.composite
def posets(draw, max_objects: int):
    """A finite poset on at most ``max_objects`` objects, as a category:
    the transitive closure of a drawn set of relations i < j."""
    n = draw(st.integers(1, max_objects))
    objs = [f"p{i}" for i in range(n)]
    pairs = [(objs[i], objs[j]) for i in range(n) for j in range(i + 1, n)]
    rels = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return poset_category(objs, rels)


def table_digest(c):
    """Digest of the full sorted tables: objects, arrows, identities, composition."""
    tables = (tuple(sorted(c.objects)), sorted(c.arrows.items()),
              sorted(c.identity.items()), sorted(c.compose.items()))
    return hashlib.sha256(repr(tables).encode()).hexdigest()[:16]
