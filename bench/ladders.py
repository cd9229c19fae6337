"""The three workloads: each a fixed list of questions with their checks.

A question's ``run`` makes one call into sigmacat and returns what the
call returned; its ``check`` decides, without calling sigmacat, whether
that value is right.  Expected answers come from ``oracle`` or are
forced by the mathematics (see README.md for the hand-worked ones).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from sigmacat import cli
from sigmacat import io as sio
from sigmacat.colimits import (conical_sigma_colimit, weighted_limit_cat,
                               weighted_sigma_colimit)
from sigmacat.config import Meter
from sigmacat.errors import SizeLimitExceeded
from sigmacat.filteredness import check_sigma_cofiltered, check_sigma_filtered
from sigmacat.fincat import (Functor, NatTransf, arrow_category,
                             discrete_category, identity_functor,
                             terminal_category)
from sigmacat.fixtures import (arrow_2cat, diagram_chain_to_pp,
                               diagram_collapse, diagram_on_free2cell,
                               diagram_pick0, poset_category, pseudo_not_flat,
                               pseudo_swap, pseudo_z2, weight_on_op_arrow)
from sigmacat.flatness import (canonical_expression, check_flat,
                               check_flat_pseudo, check_left_exact,
                               generate_bilimit_cones, representable,
                               yoneda_check)
from sigmacat.transforms import (LAX, PSEUDO, STRICT, TwoFunctor, hom_eps,
                                 sigma_flavor, constant_diagram)
from sigmacat.two_cat import (Marked2Cat, free_2cell_2cat, terminal_2cat,
                              two_cat_from_cat, wide_all, wide_from,
                              wide_identities)

import oracle as orc

# A question that exceeds the enumeration budget is counted as failed.
# Any other exception, a certificate failure for one, is a wrong answer.
FAILURES = SizeLimitExceeded


@dataclass
class Question:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# Bases: each poset base is built twice, once in sigmacat and once as an
# oracle preorder, from the same relations.


@dataclass
class PosetBase:
    name: str
    objects: list
    relations: list  # generating pairs (x, y), x < y

    def two_cat(self):
        return two_cat_from_cat(poset_category(self.objects, self.relations))

    def preorder(self):
        return orc.closure(self.objects, self.relations)


def chain_base(n: int) -> PosetBase:
    objs = [f"c{i}" for i in range(n)]
    return PosetBase(f"chain{n}", objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


def grid_base(m: int, n: int) -> PosetBase:
    objs = [f"g{i}_{j}" for i in range(m) for j in range(n)]
    rels = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(m - 1) for j in range(n)]
    rels += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(m) for j in range(n - 1)]
    return PosetBase(f"grid{m}x{n}", objs, rels)


def diamond_base() -> PosetBase:
    return PosetBase("diamond", ["bot", "a", "b", "top"],
                     [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])


ONE, ARROW, PAIR = orc.ONE, orc.ARROW, orc.PAIR
VALUES = [("one", terminal_category, ONE), ("arrow", arrow_category, ARROW),
          ("pair", lambda: discrete_category(["x", "y"]), PAIR)]


# ---------------------------------------------------------------------------
# colimit_ladder


def _colimit_check(expected: tuple, skeleton: tuple | None):
    def check(res) -> bool:
        if not res.finite or not res.certificate or \
                not all(ok for _, ok in res.certificate):
            return False
        if not orc.is_thin_and_isomorphic(res.category, expected):
            return False
        return skeleton is None or orc.skeleton_isomorphic(res.category, skeleton)
    return check


# Rungs whose localization or certificate exhausts the default budget,
# left out and listed as faults in CHANGES.md (the chain4 rungs with the
# walking arrow or the pair, and diamond/pair/mid, grow rungs that were
# seen to fail, and were not run).  F2 below stays in.
COLIMIT_OVER_BUDGET = {
    "chain3/arrow/ids", "chain3/pair/ids", "chain3/pair/all",
    "chain4/arrow/ids", "chain4/pair/ids", "chain4/one/all",
    "chain4/arrow/all", "chain4/pair/all", "chain4/reprc0/all",
    "diamond/arrow/ids", "diamond/pair/ids", "diamond/one/all",
    "diamond/arrow/all", "diamond/pair/all", "diamond/reprbot/all",
    "chain3/arrow/mid", "chain3/pair/mid", "chain4/arrow/mid",
    "chain4/pair/mid", "diamond/arrow/mid", "diamond/pair/mid",
}
# F2: the pseudo colimit of the constant walking arrow over the 3-chain.
F2 = "chain3/arrow/all"


def _markings(pb: PosetBase):
    """(label, sigmacat marking, oracle marked pairs) for a poset base.

    The middle marking, only the first generating 1-cell, is used where
    it differs from both others.
    """
    out = [("ids", wide_identities, set())]
    if len(pb.relations) > 1:
        first = pb.relations[0]
        out.append(("mid", lambda a: wide_from(a, [f"{first[0]}<{first[1]}"]), {first}))
    return out + [("all", wide_all, set(pb.preorder()[1]))]


def colimit_ladder(workdir: Path) -> list[Question]:
    qs = []

    def conical(label, P, marking):
        return Question(f"conical/{label}",
                        lambda: conical_sigma_colimit(P, marking, meter=Meter()),
                        None)

    for pb in [chain_base(n) for n in (1, 2, 3, 4)] + [diamond_base()]:
        base, p = pb.two_cat(), pb.preorder()
        full = set(p[1])
        for mlabel, mark, pairs in _markings(pb):
            pseudo_ish = pairs == full
            for vname, mk, vpre in VALUES:
                label = f"{pb.name}/{vname}/{mlabel}"
                if label in COLIMIT_OVER_BUDGET and label != F2:
                    continue
                values = {A: vpre for A in p[0]}
                q = conical(label, constant_diagram(base, mk()), mark(base))
                q.check = _colimit_check(
                    orc.grothendieck(p, values, orc.constant_action(p), pairs),
                    vpre if pseudo_ish else None)
                qs.append(q)
            for A in pb.objects:
                label = f"{pb.name}/repr{A}/{mlabel}"
                if label in COLIMIT_OVER_BUDGET:
                    continue
                values, action = orc.representable_data(p, A)
                q = conical(label, representable(base, A), mark(base))
                q.check = _colimit_check(orc.grothendieck(p, values, action, pairs),
                                         ONE if pseudo_ish else None)
                qs.append(q)

    # The free-2-cell base: u, v : a -> b and th : u => v.  Its locally
    # connected quotient is the walking arrow a < b (hand-worked in
    # README.md), so a constant diagram has colimit C x (a < b) when lax
    # and C x (a ~ b) when every 1-cell is marked.
    f2 = free_2cell_2cat()
    ab = orc.closure(["a", "b"], [("a", "b")])
    for mlabel, mark, L in (("ids", wide_identities, ab),
                            ("all", wide_all, orc.codiscrete(["a", "b"]))):
        for vname, mk, vpre in VALUES:
            q = conical(f"free2cell/{vname}/{mlabel}", constant_diagram(f2, mk()), mark(f2))
            q.check = _colimit_check(orc.product(vpre, L),
                                     vpre if mlabel == "all" else None)
            qs.append(q)
        repr_a = orc.chain(3) if mlabel == "ids" else orc.codiscrete(range(3))
        for A, expected in (("a", repr_a), ("b", ONE)):
            q = conical(f"free2cell/repr{A}/{mlabel}", representable(f2, A), mark(f2))
            q.check = _colimit_check(expected, ONE if mlabel == "all" else None)
            qs.append(q)

    # Two small diagrams on the walking arrow 0 -> 1: pick0 (1 -> 2, picks 0)
    # and collapse (2 -> 1).
    arrow = orc.closure(["0", "1"], [("0", "1")])
    for name, P, values, act in (
            ("pick0", diagram_pick0(), {"0": ONE, "1": ARROW}, lambda x: "0"),
            ("collapse", diagram_collapse(), {"0": ARROW, "1": ONE}, lambda x: "*")):
        action = {("0", "0"): lambda x: x, ("1", "1"): lambda x: x, ("0", "1"): act}
        for mlabel, mark, pairs in (("ids", wide_identities, set()),
                                    ("all", wide_all, set(arrow[1]))):
            q = conical(f"{name}/{mlabel}", P, mark(P.source))
            q.check = _colimit_check(orc.grothendieck(arrow, values, action, pairs), None)
            qs.append(q)

    # weight_on_op_arrow read as a diagram on 1 -> 0: collapse, reversed.
    rev = orc.closure(["1", "0"], [("1", "0")])
    action = {("1", "1"): lambda x: x, ("0", "0"): lambda x: x,
              ("1", "0"): lambda x: "*"}
    for mlabel, mark, pairs in (("ids", wide_identities, set()),
                                ("all", wide_all, set(rev[1]))):
        P = weight_on_op_arrow()
        q = conical(f"weight_on_op_arrow/{mlabel}", P, mark(P.source))
        q.check = _colimit_check(
            orc.grothendieck(rev, {"1": ARROW, "0": ONE}, action, pairs), None)
        qs.append(q)

    # Co-Yoneda: weighted by the representable at A on the dual base, the
    # pseudo colimit of P is equivalent to P(A).
    op_arrow = weight_on_op_arrow().source
    for name, P, at in (("pick0", diagram_pick0(), {"0": ONE, "1": ARROW}),
                        ("collapse", diagram_collapse(), {"0": ARROW, "1": ONE})):
        for A in ("0", "1"):
            R = representable(op_arrow, A)
            qs.append(Question(
                f"weighted/{name}/repr{A}/all",
                lambda R=R, P=P: weighted_sigma_colimit(R, P, wide_all(P.source),
                                                        meter=Meter()),
                lambda res, e=at[A]: res.conical.finite and
                all(ok for _, ok in res.certificate) and
                orc.skeleton_isomorphic(res.category, e)))

    # Weighted sigma-colimits of weight_on_op_arrow, every 1-cell marked.
    # Hand-worked in README.md: pick0 gives a category equivalent to the
    # 3-chain, collapse one equivalent to the point.
    W = weight_on_op_arrow()
    for name, P, skel in (("pick0", diagram_pick0(), orc.chain(3)),
                          ("collapse", diagram_collapse(), ONE)):
        def check(res, skel=skel):
            return res.conical.finite and \
                all(ok for _, ok in res.certificate) and \
                orc.skeleton_isomorphic(res.category, skel)
        qs.append(Question(
            f"weighted/{name}/all",
            lambda P=P: weighted_sigma_colimit(W, P, wide_all(P.source), meter=Meter()),
            check))

    # Canonical expression of P as a sigma-colimit of representables; the
    # paper's theorem forces "equivalent" for every P.
    def canonical(label, P):
        return Question(f"canonical/{label}",
                        lambda: canonical_expression(P, meter=Meter()),
                        lambda res: res.verdict == "equivalent" and
                        all(st == "finite" and ok for _, st, ok in res.per_object))

    a2 = arrow_2cat()
    for A in ("0", "1"):
        qs.append(canonical(f"arrow/repr{A}", representable(a2, A)))
    for vname, mk, _ in VALUES:
        qs.append(canonical(f"arrow/{vname}", constant_diagram(a2, mk())))
    c3 = chain_base(3).two_cat()
    for A in ("c0", "c1", "c2"):
        qs.append(canonical(f"chain3/repr{A}", representable(c3, A)))
    qs.append(canonical("chain3/one", constant_diagram(c3, terminal_category())))
    c4 = chain_base(4).two_cat()
    for A in ("c1", "c2", "c3"):
        qs.append(canonical(f"chain4/repr{A}", representable(c4, A)))
    for A in ("a", "b"):
        qs.append(canonical(f"free2cell/repr{A}", representable(f2, A)))
    qs.append(canonical("free2cell/one", constant_diagram(f2, terminal_category())))
    dm = diamond_base().two_cat()
    # F1 is diamond/reprbot: it exhausts the budget in localize.
    for A in ("bot", "a", "b", "top"):
        qs.append(canonical(f"diamond/repr{A}", representable(dm, A)))
    for name, P in (("pick0", diagram_pick0()), ("collapse", diagram_collapse()),
                    ("weight_on_op_arrow", weight_on_op_arrow()),
                    ("on_free2cell", diagram_on_free2cell()),
                    ("chain_to_pp", diagram_chain_to_pp())):
        qs.append(canonical(name, P))
    return qs


# ---------------------------------------------------------------------------
# flatness_ladder


def _verdict(expected: str):
    return lambda v: v.verdict == expected


def _filtered(expected: bool):
    return lambda rep: rep.verdict is expected


FLAT_BASES = [chain_base(2), chain_base(4), chain_base(8), chain_base(16),
              grid_base(2, 2), grid_base(3, 3), grid_base(4, 4), diamond_base()]
# Left exactness is checked on the smaller lattices; the cone search and
# the comparison functors grow quickly with the base.
EXACT_BASES = {"chain2", "chain4", "chain8", "grid2x2", "grid3x3", "diamond"}
# Limits whose Hom category is enumerated, with the value chain's length.
LIMIT_BASES = {"chain2": 4, "chain4": 3, "chain8": 2, "grid2x2": 3,
               "grid3x3": 2, "diamond": 3}


def flatness_ladder(workdir: Path) -> list[Question]:
    qs = []
    for pb in FLAT_BASES:
        qs.extend(_flatness_questions(pb))
    for name, P, expected in (("z2", pseudo_z2(), "not-flat"),
                              ("swap", pseudo_swap(), "flat"),
                              ("not_flat", pseudo_not_flat(), "not-flat")):
        qs.append(Question(f"flat_pseudo/{name}",
                           lambda P=P: check_flat_pseudo(P, Meter()),
                           _verdict(expected)))
    return qs


def _flatness_questions(pb: PosetBase) -> list[Question]:
    qs = []
    base, p = pb.two_cat(), pb.preorder()
    bottom, top = pb.objects[0], pb.objects[-1]
    middle = pb.objects[len(pb.objects) // 2]
    down = "flat" if orc.directed_down(p) else "not-flat"
    one = constant_diagram(base, terminal_category())
    pair = constant_diagram(base, discrete_category(["x", "y"]))
    reprs = {A: representable(base, A) for A in (bottom, middle, top)}

    def flat(label, P, expected):
        qs.append(Question(f"flat/{pb.name}/{label}",
                           lambda: check_flat(P, Meter()), _verdict(expected)))

    flat("one", one, down)
    flat("pair", pair, "not-flat")
    for A, R in reprs.items():
        flat(f"repr{A}", R, "flat")

    single = len(pb.objects) == 1
    for mlabel, mark, up_ok, down_ok in (
            ("ids", wide_identities, single, single),
            ("all", wide_all, orc.directed_up(p), orc.directed_down(p))):
        m = Marked2Cat(base, mark(base))
        qs.append(Question(f"filtered/{pb.name}/{mlabel}",
                           lambda m=m: check_sigma_filtered(m, Meter()),
                           _filtered(up_ok)))
        qs.append(Question(f"cofiltered/{pb.name}/{mlabel}",
                           lambda m=m: check_sigma_cofiltered(m, Meter()),
                           _filtered(down_ok)))

    qs.append(Question(f"yoneda/{pb.name}/repr{top}@{bottom}",
                       lambda: yoneda_check(reprs[top], bottom, Meter()),
                       lambda rep: rep.verdict is True))
    qs.append(Question(f"yoneda/{pb.name}/one@{middle}",
                       lambda: yoneda_check(one, middle, Meter()),
                       lambda rep: rep.verdict is True))

    if pb.name in EXACT_BASES:
        for label, P, expected in (("one", one, down == "flat"),
                                   (f"repr{bottom}", reprs[bottom], True),
                                   ("pair", pair, False)):
            def exact(P=P):
                meter = Meter()
                return check_left_exact(P, generate_bilimit_cones(base, meter), meter)
            qs.append(Question(f"exact/{pb.name}/{label}", exact,
                               lambda rep, e=expected: rep.verdict is e
                               and not rep.no_evidence))

    if pb.name in LIMIT_BASES:
        qs.extend(_limit_questions(pb, base, p, reprs, LIMIT_BASES[pb.name]))
    return qs


def _limit_questions(pb, base, p, reprs, n) -> list[Question]:
    """Weighted limits in the four flavours, against oracle counts.

    Yoneda: with a representable weight at A, strict and pseudo limits
    of a diagram P are P(A) (up to equivalence for pseudo), and strict
    transformations between representables at X and Y number |hom(Y, X)|.
    With the terminal weight, lax limits of the constant n-chain are the
    monotone maps base -> chain_n under the pointwise order, and sigma
    limits are the maps constant along the marked 1-cells.
    """
    qs = []
    chain_n = orc.chain(n)
    cat_n = poset_category(list(chain_n[0]),
                           [(f"c{i}", f"c{i + 1}") for i in range(n - 1)])
    delta_n = constant_diagram(base, cat_n)
    one = constant_diagram(base, terminal_category())

    for A, R in reprs.items():
        for fl, check in ((STRICT, orc.is_thin_and_isomorphic),
                          (PSEUDO, orc.skeleton_isomorphic)):
            qs.append(Question(
                f"limit/{pb.name}/{fl.kind}/repr{A}",
                lambda R=R, fl=fl: weighted_limit_cat(R, delta_n, fl, Meter()),
                lambda h, check=check: check(h.cat, chain_n)))
    names = list(reprs)
    for X in names:
        for Y in names:
            expected = 1 if (Y, X) in p[1] else 0
            qs.append(Question(
                f"hom/{pb.name}/s/repr{X}->repr{Y}",
                lambda X=X, Y=Y: hom_eps(reprs[X], reprs[Y], STRICT, Meter()),
                lambda h, e=expected: len(h.cat.objects) == e))

    lax_size = orc.functor_poset_size(p, chain_n)
    qs.append(Question(f"limit/{pb.name}/l/one->chain{n}",
                       lambda: weighted_limit_cat(one, delta_n, LAX, Meter()),
                       lambda h, e=lax_size: (len(h.cat.objects), len(h.cat.arrows)) == e))
    first = pb.relations[0]
    sig_size = orc.functor_poset_size(p, chain_n, glued=[first])
    sig = sigma_flavor(wide_from(base, [f"{first[0]}<{first[1]}"]))
    qs.append(Question(f"limit/{pb.name}/sigma/one->chain{n}",
                       lambda: weighted_limit_cat(one, delta_n, sig, Meter()),
                       lambda h, e=sig_size: (len(h.cat.objects), len(h.cat.arrows)) == e))
    qs.append(Question(f"hom/{pb.name}/p/one->chain{n}",
                       lambda: hom_eps(one, delta_n, PSEUDO, Meter()),
                       lambda h: orc.skeleton_isomorphic(h.cat, chain_n)))
    return qs


# ---------------------------------------------------------------------------
# cli_corpus


def _cli_question(name: str, argv: list, expect_code: int, check,
                  written: Path | None = None) -> Question:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        out = buf.getvalue()
        if code == cli.EXIT_INVALID and "budget" in out:
            raise SizeLimitExceeded(out)
        return code, out

    seen = {}

    def full_check(report) -> bool:
        code, out = report
        # Every report, and the file it wrote, must be byte-identical
        # across passes.
        key = (code, out, written.read_text(encoding="utf-8") if written else None)
        if seen.setdefault("first", key) != key:
            return False
        if code != expect_code:
            return False
        return check is None or bool(check(json.loads(out)))

    return Question(f"cli/{name}", run, full_check)


FIX = "fixtures"
ARROW_BASE_DIAGRAMS = ["const_terminal", "diagram_collapse", "diagram_pick0",
                       "representable_0", "weight_on_op_arrow"]
STRICT_DIAGRAMS = ARROW_BASE_DIAGRAMS + [
    "const_discrete_pair", "const_terminal_parallel", "parallel_diagram",
    "repr_diamond_a", "representable_diamond_top"]
PSEUDO_DIAGRAMS = ["pseudo_not_flat", "pseudo_swap", "pseudo_z2"]
# Hand-worked verdicts (README.md): representables are flat; the constant
# point is flat on the walking arrow and not on the parallel pair; the
# constant discrete pair is never flat.
FLAT_EXPECTED = {
    "const_terminal": "flat", "representable_0": "flat",
    "repr_diamond_a": "flat", "representable_diamond_top": "flat",
    "const_discrete_pair": "not-flat", "const_terminal_parallel": "not-flat",
    "pseudo_z2": "not-flat", "pseudo_swap": "flat", "pseudo_not_flat": "not-flat",
}
# Lattice bases (the walking arrow, its dual and the diamond), where left
# exactness must agree with flatness.
LATTICE_DIAGRAMS = ARROW_BASE_DIAGRAMS + ["repr_diamond_a", "representable_diamond_top"]
ALL_ONE_CELLS = {"arrow": "f", "parallel": "u,v", "diamond":
                 "bot<a,bot<b,a<top,b<top,bot<top", "terminal": ""}
BASE_OF = {**{d: "arrow" for d in ARROW_BASE_DIAGRAMS + PSEUDO_DIAGRAMS},
           "const_discrete_pair": "terminal", "const_terminal_parallel": "parallel",
           "parallel_diagram": "parallel", "repr_diamond_a": "diamond",
           "representable_diamond_top": "diamond"}
# The Hom categories with a representable or constant source on the
# walking arrow, with their object counts: strict and pseudo ones are
# P(0) by Yoneda (representable_0 is the constant point), lax ones are
# the pairs (c0, c1) with an arrow P(f)c0 -> c1.
HOM_PAIRS = {("representable_0", "diagram_pick0"): {"s": 1, "p": 1, "lax": 2},
             ("representable_0", "diagram_collapse"): {"s": 2, "p": 2, "lax": 2},
             ("const_terminal", "representable_0"): {"s": 1, "p": 1, "lax": 1}}


def _write_setup_documents(docs: Path) -> dict:
    """Documents the fixtures lack: 2-functors, functors, transformations."""
    docs.mkdir(parents=True, exist_ok=True)
    a, t2 = arrow_2cat(), terminal_2cat()
    two = arrow_category()
    const1 = Functor(two, two, {"0": "1", "1": "1"}, {x: "id_1" for x in two.arrows})
    idf = identity_functor(two)
    step = NatTransf(idf, const1, {"0": "f", "1": "id_1"})
    written = {
        "incl_1": sio.twofunctor_to_doc(
            TwoFunctor(t2, a, {"*": "1"}, {"id_*": "id_1"}, {"i2_id_*": "i2_id_1"})),
        "incl_0": sio.twofunctor_to_doc(
            TwoFunctor(t2, a, {"*": "0"}, {"id_*": "id_0"}, {"i2_id_*": "i2_id_0"})),
        "id_functor": sio.functor_to_doc(idf),
        "const1_functor": sio.functor_to_doc(const1),
        "step_transf": sio.nat_transf_to_doc(step),
    }
    paths = {}
    for name, doc in written.items():
        path = docs / f"{name}.json"
        path.write_text(sio.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


def cli_corpus(workdir: Path) -> list[Question]:
    docs = _write_setup_documents(workdir / "docs")
    fx = {p.stem: f"{FIX}/{p.name}" for p in sorted(Path(FIX).glob("*.json"))}
    qs = []

    def add(name, argv, expect_code=0, check=None, written=None):
        qs.append(_cli_question(name, argv, expect_code, check, written))

    for stem, path in fx.items():
        add(f"validate/{stem}", ["validate", path],
            check=lambda d: d["verdict"] == "valid")
    # On lattice bases left exactness must agree with flatness, also where
    # neither verdict is known beforehand.
    verdicts = {}

    def agrees(stem, command, verdict):
        verdicts.setdefault(stem, {})[command] = verdict
        return len(set(verdicts[stem].values())) == 1

    for stem in STRICT_DIAGRAMS + PSEUDO_DIAGRAMS:
        exp = FLAT_EXPECTED.get(stem)
        add(f"flat/{stem}", ["flat", fx[stem]],
            check=lambda d, e=exp, s=stem: (e is None or d["verdict"] == e) and
            agrees(s, "flat", d["verdict"] == "flat"))
    add("flat/representable_0/pseudo", ["flat", fx["representable_0"], "--pseudo"],
        check=lambda d: d["verdict"] == "flat")
    for stem in STRICT_DIAGRAMS:
        add(f"elements/{stem}", ["elements", fx[stem]],
            check=lambda d: set(d["cart"]) <=
            {c["name"] for c in d["category"]["cells1"]})
    for stem in PSEUDO_DIAGRAMS + ["diagram_pick0"]:
        add(f"elements/{stem}/pseudo", ["elements", fx[stem], "--pseudo"])
    for stem in ARROW_BASE_DIAGRAMS:
        add(f"elements/{stem}/sigma", ["elements", fx[stem], "--sigma", "f"],
            check=lambda d: set(d["cart_sigma"]) <= set(d["cart"]))
    for stem in LATTICE_DIAGRAMS:
        exp = FLAT_EXPECTED.get(stem)
        add(f"exact/{stem}", ["exact", fx[stem]],
            check=lambda d, e=exp, s=stem: bool(d["per_shape"]) and
            (e is None or d["verdict"] == (e == "flat")) and
            agrees(s, "exact", d["verdict"]))
    for stem in ["const_terminal", "diagram_collapse", "diagram_pick0",
                 "representable_0", "const_discrete_pair", "parallel_diagram",
                 "representable_diamond_top"]:
        add(f"colimit/{stem}", ["colimit", fx[stem]],
            check=lambda d: d["status"] == "finite" and
            all(c["ok"] for c in d["certificate"]))
        add(f"colimit/{stem}/sigma",
            ["colimit", fx[stem], "--sigma", ALL_ONE_CELLS[BASE_OF[stem]]],
            check=lambda d: d["status"] == "finite")
    # The parallel pair localizes to the integers: no finite answer exists.
    add("colimit/const_terminal_parallel/sigma",
        ["colimit", fx["const_terminal_parallel"], "--sigma", "u,v"],
        expect_code=cli.EXIT_UNDECIDED,
        check=lambda d: d["status"] == "undecided-at-cap" and "category" not in d)
    for stem, sigma, verdict in (("arrow_2cat", None, False), ("arrow_2cat", "f", True),
                                 ("arrow_2cat_marked", None, True),
                                 ("diamond_2cat", None, False),
                                 ("diamond_2cat", ALL_ONE_CELLS["diamond"], True)):
        for co in (False, True):
            argv = ["filtered", fx[stem]] + (["--sigma", sigma] if sigma else []) + \
                (["--co"] if co else [])
            add(f"filtered/{stem}/{sigma or '-'}/{'co' if co else 'f'}", argv,
                check=lambda d, v=verdict: d["verdict"] is v)
    for (src, tgt), counts in HOM_PAIRS.items():
        for fl, n in counts.items():
            add(f"hom/{src}->{tgt}/{fl}", ["hom", fx[src], fx[tgt], "--flavor", fl],
                check=lambda d, n=n: d["objects"] == n)
            add(f"limit/{src}->{tgt}/{fl}", ["limit", fx[src], fx[tgt], "--flavor", fl],
                check=lambda d, n=n: len(d["category"]["objects"]) == n)
    add("bilimit/biproduct", ["bilimit", "--shape", "biproduct",
                              fx["arrow_category"], fx["iso_pair"]],
        check=lambda d: len(d["category"]["objects"]) == 4)
    add("bilimit/biinserter", ["bilimit", "--shape", "biinserter",
                               docs["id_functor"], docs["const1_functor"]],
        check=lambda d: len(d["category"]["objects"]) == 2)
    add("bilimit/biequalizer", ["bilimit", "--shape", "biequalizer",
                                docs["id_functor"], docs["const1_functor"]])
    add("bilimit/biequifier", ["bilimit", "--shape", "biequifier",
                               docs["step_transf"], docs["step_transf"]])
    for base, obj, against in (("arrow_2cat", "0", "representable_0"),
                               ("arrow_2cat", "1", "diagram_pick0"),
                               ("arrow_2cat", "0", "diagram_collapse"),
                               ("diamond_2cat", "a", "repr_diamond_a"),
                               ("diamond_2cat", "bot", "representable_diamond_top")):
        add(f"yoneda/{against}@{obj}",
            ["yoneda", fx[base], "--object", obj, "--against", fx[against]],
            check=lambda d: d["verdict"] is True)
    add("cofinal/incl_1", ["cofinal", docs["incl_1"], "--sigma", "", "--sigma-prime", "f"],
        check=lambda d: d["verdict"] is True)
    add("cofinal/incl_0", ["cofinal", docs["incl_0"], "--sigma", "", "--sigma-prime", ""],
        check=lambda d: d["verdict"] is False)
    for stem in PSEUDO_DIAGRAMS:
        out = workdir / f"strict_{stem}.json"
        add(f"strictify/{stem}", ["strictify", fx[stem], "-o", str(out)],
            check=lambda d: "written" in d, written=out)
    return qs


WORKLOADS = {
    "cli_corpus": cli_corpus,
    "colimit_ladder": colimit_ladder,
    "flatness_ladder": flatness_ladder,
}
