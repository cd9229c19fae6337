"""The paper's facts as properties over generated inputs.

Inputs are drawn by ``hypothesis`` with ``derandomize=True``, so every run
draws the same examples, and ``max_examples`` is kept small so that the
suite stays fast.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sigmacat.colimits import default_test_family
from sigmacat.fincat import (enumerate_functors, functor_homs, nat_is_identity,
                             vcomp_nat, whisker_nat_functor)
from sigmacat.fixtures import poset_category


@st.composite
def posets(draw, max_objects: int):
    """A finite poset on at most ``max_objects`` objects, as a category:
    the transitive closure of a drawn set of relations i < j."""
    n = draw(st.integers(1, max_objects))
    objs = [f"p{i}" for i in range(n)]
    pairs = [(objs[i], objs[j]) for i in range(n) for j in range(i + 1, n)]
    rels = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return poset_category(objs, rels)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_whiskering_along_a_functor_preserves_composition_and_identities(data):
    """Precomposition with κ : C → R is a functor Fun(R, E) → Fun(C, E):
    (ν·μ)κ = (νκ)·(μκ) and 1_F κ = 1_{Fκ}.  The colimit certificate rests
    on this, with κ the legs of the universal cone."""
    R = data.draw(posets(4), label="R")
    C = data.draw(posets(3), label="C")
    _, E = data.draw(st.sampled_from(default_test_family()), label="E")
    kappa = data.draw(st.sampled_from(enumerate_functors(C, R)), label="kappa")
    fs, nats = functor_homs(R, E)
    restricted = {ij: [whisker_nat_functor(mu, kappa) for mu in mus]
                  for ij, mus in nats.items()}
    for (i, j), mus in nats.items():
        for mu, mu_k in zip(mus, restricted[(i, j)]):
            if i == j and nat_is_identity(mu):
                assert nat_is_identity(mu_k)
            for k in range(len(fs)):
                for nu, nu_k in zip(nats[(j, k)], restricted[(j, k)]):
                    assert whisker_nat_functor(vcomp_nat(nu, mu), kappa).components \
                        == vcomp_nat(nu_k, mu_k).components
