"""Budget ticks and results of the enumeration kernels, pinned.

The meter is the contract that decides where an input is refused, so a
change that only makes the kernels cheaper must leave every count here,
and every table, exactly as it is.  A change that alters the search
itself moves these figures on purpose and says so where it lands.
"""

import hashlib

import pytest

from sigmacat.colimits import cones_sigma, conical_sigma_colimit
from sigmacat.config import Meter
from sigmacat.fincat import (arrow_category, functor_category_full,
                             iso_pair_category, product_category)
from sigmacat.fixtures import arrow_2cat, diagram_pick0, poset_category
from sigmacat.presented import localize
from sigmacat.two_cat import wide_all


def chain(n):
    objs = [str(i) for i in range(n)]
    return poset_category(objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


def table_digest(c):
    """Digest of the full sorted tables: objects, arrows, identities, composition."""
    tables = (tuple(sorted(c.objects)), sorted(c.arrows.items()),
              sorted(c.identity.items()), sorted(c.compose.items()))
    return hashlib.sha256(repr(tables).encode()).hexdigest()[:16]


def fingerprint(meter, c):
    return (meter.count, len(c.objects), len(c.arrows), len(c.compose),
            table_digest(c))


CASES = {
    "fun-arrow-iso_pair": lambda m: functor_category_full(
        arrow_category(), iso_pair_category(), m).cat,
    "fun-chain2-chain3": lambda m: functor_category_full(chain(2), chain(3), m).cat,
    "fun-chain3-chain4": lambda m: functor_category_full(chain(3), chain(4), m).cat,
    "cones-pick0-iso_pair": lambda m: cones_sigma(
        diagram_pick0(), frozenset(wide_all(arrow_2cat()).arrows),
        iso_pair_category(), m).cat,
    "localize-arrow-f": lambda m: localize(arrow_category(), {"f"}, meter=m).realization,
    "localize-chain3-all": lambda m: localize(
        chain(3), {"0<1", "1<2"}, meter=m).realization,
    "localize-square-two": lambda m: localize(
        product_category(arrow_category(), arrow_category()),
        {"(f,id_0)", "(id_1,f)"}, meter=m).realization,
    "conical-pick0-all": lambda m: conical_sigma_colimit(
        diagram_pick0(), wide_all(arrow_2cat()), meter=m).category,
}

# (ticks, objects, arrows, composable pairs, table digest)
EXPECTED = {
    "fun-arrow-iso_pair": (88, 4, 16, 64, "47ba3bccd2aadb58"),
    "fun-chain2-chain3": (85, 6, 20, 50, "b7f2e2fb73bf173f"),
    "fun-chain3-chain4": (1239, 20, 175, 980, "3d7dda3da6006b89"),
    "cones-pick0-iso_pair": (228, 8, 64, 512, "e204e570e8de4e94"),
    "localize-arrow-f": (4, 2, 4, 8, "a8766173a21e9366"),
    "localize-chain3-all": (2234, 3, 9, 27, "48fe927c6f128b67"),
    "localize-square-two": (4375, 4, 17, 73, "a4b770df3a0b7bd6"),
    "conical-pick0-all": (1061, 3, 7, 15, "dbdd782538462259"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ticks_and_tables_are_pinned(case):
    meter = Meter()
    result = CASES[case](meter)
    assert fingerprint(meter, result) == EXPECTED[case]

