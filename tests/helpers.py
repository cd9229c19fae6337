"""Small categories, strategies and digests shared by the test modules."""

import hashlib
import pathlib

from hypothesis import strategies as st

from sigmacat import fixtures
from sigmacat import io as sio
from sigmacat.fincat import (Functor, NatTransf, arrow_category,
                             compose_functors, discrete_category,
                             identity_functor, mk_fincat, pair_name,
                             product_category, terminal_category)
from sigmacat.fixtures import diamond_2cat, poset_category
from sigmacat.flatness import representable
from sigmacat.shapes import BIINSERTER
from sigmacat.transforms import CatDiagram, constant_diagram
from sigmacat.two_cat import (free_2cell_2cat, op_dual, two_cat_from_cat,
                              two_cat_product, wide_all, wide_from,
                              wide_identities)

FIXTURE_DOCUMENTS = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


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


def external_product(P, W):
    """The diagram (A, B) ↦ P(A) × W(B) on the product of P's and W's bases,
    acting coordinatewise."""
    a, b = P.source, W.source
    on_obj = {pair_name(A, B): product_category(P.on_obj[A], W.on_obj[B])
              for A in a.objects for B in b.objects}
    on_1 = {}
    for f in a.all_one_cells():
        for u in b.all_one_cells():
            F, G = P.on_1[f], W.on_1[u]
            on_1[pair_name(f, u)] = Functor(
                on_obj[pair_name(a.src1(f), b.src1(u))],
                on_obj[pair_name(a.tgt1(f), b.tgt1(u))],
                {pair_name(x, y): pair_name(F.obj_map[x], G.obj_map[y])
                 for x in F.source.objects for y in G.source.objects},
                {pair_name(p, q): pair_name(F.arr_map[p], G.arr_map[q])
                 for p in F.source.arrows for q in G.source.arrows})
    on_2 = {}
    for x in a.all_two_cells():
        for y in b.all_two_cells():
            f, u = a.src2(x), b.src2(y)
            px, wy = P.on_2[x].components, W.on_2[y].components
            on_2[pair_name(x, y)] = NatTransf(
                on_1[pair_name(f, u)], on_1[pair_name(a.tgt2(x), b.tgt2(y))],
                {pair_name(p, q): pair_name(px[p], wy[q])
                 for p in px for q in wy})
    return CatDiagram(two_cat_product(a, b), on_obj, on_1, on_2)


def arrow_tensor_factors() -> dict:
    """The factors (W, P) of W ⊗ P over the walking arrow 0 → 1, by name:
    W on its 1-cell dual, ``weight_on_op_arrow`` or Δ1, and P, pick0 or
    collapse."""
    return {f"{wname}/{pname}": (W, P)
            for wname, W in (("w_arrow", fixtures.weight_on_op_arrow()),
                             ("w_one", fixtures.weight_constant_terminal_op()))
            for pname, P in (("pick0", fixtures.diagram_pick0()),
                             ("collapse", fixtures.diagram_collapse()))}


def tensor_factors(base, at) -> dict:
    """The factors (W, P) of W ⊗ P over ``base``, by name: W is Δ1 or the
    representable of the base's 1-cell dual at an object of ``at``, P is
    Δ(walking arrow) or the base's representable there."""
    op = op_dual(base)
    weights = {"one": constant_diagram(op, terminal_category()),
               **{f"repr{A}": representable(op, A) for A in at}}
    diagrams = {"arrow": constant_diagram(base, arrow_category()),
                **{f"repr{A}": representable(base, A) for A in at}}
    return {f"{wname}/{pname}": (W, P) for wname, W in weights.items()
            for pname, P in diagrams.items()}


def discrete_diagram(values: dict):
    """The diagram on the discrete base over ``values``' keys whose value
    at A is the discrete category on ``values[A]``."""
    base = two_cat_from_cat(discrete_category(values))
    on_obj = {A: discrete_category(xs) for A, xs in values.items()}
    on_1 = {base.id1[A]: identity_functor(on_obj[A]) for A in values}
    on_2 = {base.id2(f): fixtures.idn(F) for f, F in on_1.items()}
    return CatDiagram(base, on_obj, on_1, on_2)


def table_digest(c):
    """Digest of the full sorted tables: objects, arrows, identities, composition."""
    tables = (tuple(sorted(c.objects)), sorted(c.arrows.items()),
              sorted(c.identity.items()), sorted(c.compose.items()))
    return hashlib.sha256(repr(tables).encode()).hexdigest()[:16]


def shape_digest(c):
    """Digest of c up to a renaming of its arrows: the objects by name, and
    each arrow by its ends and whether it is an identity, refined along the
    composition table until the classes stop splitting."""
    after, before = {a: [] for a in c.arrows}, {a: [] for a in c.arrows}
    for (g, f), h in c.compose.items():
        after[f].append((g, h))
        before[g].append((f, h))
    colour = {a: (c.src(a), c.tgt(a), c.is_identity(a)) for a in c.arrows}
    classes = len(set(colour.values()))
    while True:
        sig = {a: (colour[a], sorted((colour[g], colour[h]) for g, h in after[a]),
                   sorted((colour[f], colour[h]) for f, h in before[a]))
               for a in c.arrows}
        rank = {s: i for i, s in enumerate(sorted(set(map(repr, sig.values()))))}
        if len(rank) == classes:
            break
        colour, classes = {a: rank[repr(s)] for a, s in sig.items()}, len(rank)
    tables = (tuple(sorted(c.objects)), sorted(map(repr, sig.values())))
    return hashlib.sha256(repr(tables).encode()).hexdigest()[:16]


def chain_2cat(n: int):
    """The chain c0 < c1 < ... as a locally discrete 2-category."""
    objs = [f"c{i}" for i in range(n)]
    return two_cat_from_cat(poset_category(objs, [(objs[i], objs[i + 1])
                                                  for i in range(n - 1)]))


def grid_2cat(m: int, n: int):
    """The m × n grid g0_0 < g0_1, g1_0 < … as a locally discrete
    2-category."""
    objs = [f"g{i}_{j}" for i in range(m) for j in range(n)]
    rels = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(m - 1) for j in range(n)]
    rels += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(m) for j in range(n - 1)]
    return two_cat_from_cat(poset_category(objs, rels))


def colimit_rungs() -> dict:
    """The 21 σ-colimits over the 3-chain, the 4-chain and the diamond that
    the benchmark's colimit ladder leaves out for the cost of their old
    certificate: label -> (diagram, marking).  Constant diagrams at the
    walking arrow and the discrete pair under the identity marking (ids),
    the first generating 1-cell (mid) and every 1-cell (all), and the
    fully marked constant point and bottom representable over the larger
    bases."""
    bases = {"chain3": (chain_2cat(3), "c0<c1", "c0"),
             "chain4": (chain_2cat(4), "c0<c1", "c0"),
             "diamond": (diamond_2cat(), "bot<a", "bot")}
    values = {"arrow": arrow_category, "pair": lambda: discrete_category(["x", "y"])}
    rungs = {}
    for name, (base, first, bottom) in bases.items():
        markings = {"ids": wide_identities(base), "mid": wide_from(base, [first]),
                    "all": wide_all(base)}
        for vname, mk in values.items():
            for mlabel, marking in markings.items():
                if (name, vname, mlabel) != ("chain3", "arrow", "all"):
                    rungs[f"{name}/{vname}/{mlabel}"] = (
                        constant_diagram(base, mk()), marking)
        if name != "chain3":
            rungs[f"{name}/one/all"] = (constant_diagram(base, terminal_category()),
                                        markings["all"])
            rungs[f"{name}/repr{bottom}/all"] = (representable(base, bottom),
                                                 markings["all"])
    return rungs


def strict_fixture_diagrams() -> dict:
    """Every strict diagram among the fixtures, the package's and the
    documents' (named by file), and Δ(walking arrow) on the free 2-cell."""
    found = {name: getattr(fixtures, name)() for name in (
        "diagram_chain_to_pp", "diagram_pick0", "diagram_collapse",
        "weight_on_op_arrow", "weight_constant_terminal_op",
        "diagram_on_free2cell")}
    found["delta_arrow_free2cell"] = constant_diagram(free_2cell_2cat(), arrow_category())
    for path in sorted(FIXTURE_DOCUMENTS.glob("*.json")):
        value = sio.parse_document(path.read_text())
        if isinstance(value, CatDiagram):
            found[path.name] = value
    return {name: d for name, d in found.items() if not d.is_pseudo}


def corpus_biinserter():
    """The biinserter diagram of the identity and the constant functor at 1
    on the walking arrow, as the benchmark's CLI corpus asks for it."""
    two = arrow_category()
    const1 = Functor(two, two, {"0": "1", "1": "1"}, {a: "id_1" for a in two.arrows})
    return BIINSERTER.cat_diagram(identity_functor(two), const1)


def diagram_from_tables(doc: dict) -> CatDiagram:
    """The diagram a document's tables describe, built as ``io`` builds it
    but not validated, so that a corrupted table reaches the validator."""
    base = sio.fin2cat_from_doc(doc["base"])
    on_obj = {A: sio.fincat_from_doc(d) for A, d in doc["on_obj"].items()}
    on_1 = {f: Functor(on_obj[base.src1(f)], on_obj[base.tgt1(f)],
                       dict(d["obj_map"]), dict(d["arr_map"]))
            for f, d in doc["on_1cell"].items()}
    on_2 = {x: NatTransf(on_1[base.src2(x)], on_1[base.tgt2(x)], dict(c))
            for x, c in doc["on_2cell"].items()}
    if doc["kind"] == "strict":
        return CatDiagram(base, on_obj, on_1, on_2)
    alpha_obj = {A: NatTransf(identity_functor(on_obj[A]), on_1[base.id1[A]], dict(c))
                 for A, c in doc["alpha_obj"].items()}
    alpha_comp = {(r["f"], r["g"]): NatTransf(compose_functors(on_1[r["g"]], on_1[r["f"]]),
                                              on_1[base.hcomp1[(r["g"], r["f"])]],
                                              dict(r["components"]))
                  for r in doc["alpha_comp"]}
    return CatDiagram(base, on_obj, on_1, on_2, "pseudo", alpha_obj, alpha_comp)
