"""Command-line front end.

Machine-readable JSON goes to standard output, human prose to standard
error.  Exit codes: 0 a verdict was computed, 1 an internal consistency
or certificate check failed (always a bug), 2 the arguments or the input
were invalid or over budget, 3 the answer is undecided at the configured
cap.  A usage error is reported as ``{"command", "error": "usage",
"detail"}``, with argparse's message as the detail and its usage text on
standard error.  Identical inputs produce byte-identical reports.

The argument parser is built on the first ``run`` and reused by later
ones in the process, since building it costs more than many questions.
Reuse is safe: ``parse_args`` leaves the parser unchanged and no default
is mutable, ``--budget`` defaults to ``None`` and each ``Meter`` reads
``SIGMACAT_BUDGET``, and help width is read when help is formatted.  Only
each subcommand's ``fn``, a ``cmd_*`` function, is fixed when the parser
is built; nothing patches those.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import DEFAULT_CAP, Meter
from .errors import (CertificateFailure, Inconsistency, ParseError,
                     PreconditionFailed, SizeLimitExceeded, UndecidedAtCap,
                     ValidationError)
from . import io as sio
from .two_cat import Fin2Cat, Marked2Cat, WideSub, wide_from
from .transforms import (CatDiagram, LAX, PSEUDO, STRICT, TwoFunctor,
                         reinterpret_as_pseudo, sigma_flavor)
from .colimits import (bilimit_cat, conical_sigma_colimit, weighted_limit_cat,
                       weighted_sigma_colimit)
from .elements import cart_sigma, elements_of, elements_of_pseudo
from .filteredness import (check_sigma_cofiltered, check_sigma_cofinal,
                           check_sigma_filtered)
from .flatness import (check_flat, check_flat_pseudo, check_left_exact,
                       generate_bilimit_cones, strictify, yoneda_check)
from .shapes import SHAPES

EXIT_OK = 0
EXIT_BUG = 1
EXIT_INVALID = 2
EXIT_UNDECIDED = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(doc) -> None:
    sys.stdout.write(sio.dumps(doc))


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_as(path: str, kind, what: str):
    value = sio.parse_document(_read(path))
    if not isinstance(value, kind):
        raise ValidationError(what)
    return value


def _marking(base: Fin2Cat, raw: str | None) -> WideSub:
    """The wide sub-2-category of ``base`` named by comma-separated 1-cells.
    A name may hold commas: from each piece on, the longest run of pieces
    that joins to a 1-cell's name is one name; a piece that starts none is
    passed on as it is, for ``wide_from`` to reject."""
    pieces = (raw or "").split(",")
    names, k = [], 0
    while k < len(pieces):
        n = next((n for n in range(len(pieces), k, -1)
                  if ",".join(pieces[k:n]) in base._cell1_home), k + 1)
        names.append(",".join(pieces[k:n]))
        k = n
    return wide_from(base, [name for name in names if name])


_FLAVORS = {"s": STRICT, "p": PSEUDO, "lax": LAX}


def _flavor(args, base: Fin2Cat):
    if args.flavor == "sigma":
        return sigma_flavor(_marking(base, args.sigma))
    return _FLAVORS[args.flavor]


def _report_filteredness(rep) -> dict:
    doc = {"verdict": rep.verdict,
           "witnesses": [{"axiom": w.axiom,
                          "instance": list(w.instance),
                          "data": list(w.data)} for w in rep.witnesses]}
    if rep.counterexample is not None:
        doc["counterexample"] = {"axiom": rep.counterexample.axiom,
                                 "instance": list(rep.counterexample.instance)}
    else:
        doc["counterexample"] = None
    return doc


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> int:
    value = sio.parse_document(_read(args.file))
    kind = type(value).__name__
    _emit({"command": "validate", "kind": kind, "verdict": "valid"})
    _say(f"{args.file}: valid {kind}")
    return EXIT_OK


def cmd_hom(args) -> int:
    P = sio.parse_document(_read(args.source))
    Q = sio.parse_document(_read(args.target))
    if not isinstance(P, CatDiagram) or not isinstance(Q, CatDiagram):
        raise ValidationError("hom expects two diagram documents")
    fl = _flavor(args, P.source)
    h = weighted_limit_cat(P, Q, fl, Meter(args.budget))
    _emit({"command": "hom", "flavor": sio.flavor_to_doc(fl),
           "objects": len(h.cat.objects), "arrows": len(h.cat.arrows),
           "category": sio.fincat_to_doc(h.cat)})
    _say(f"{len(h.cat.objects)} transformations, {len(h.cat.arrows)} modifications")
    return EXIT_OK


def cmd_elements(args) -> int:
    P = _read_as(args.file, CatDiagram, "elements expects a diagram document")
    meter = Meter(args.budget)
    if args.pseudo:
        if not P.is_pseudo:
            P = reinterpret_as_pseudo(P)
        el = elements_of_pseudo(P, meter)
    else:
        el = elements_of(P, meter)
    doc = {"command": "elements",
           "category": sio.fin2cat_to_doc(el.cat),
           "cart": sorted(el.cart.arrows)}
    if args.sigma is not None:
        doc["cart_sigma"] = sorted(cart_sigma(el, _marking(P.source, args.sigma)).arrows)
    _emit(doc)
    _say(f"{len(el.cat.objects)} objects, {len(el.cart.arrows)} cartesian arrows")
    return EXIT_OK


def cmd_limit(args) -> int:
    W = sio.parse_document(_read(args.weight))
    P = sio.parse_document(_read(args.diagram))
    if not isinstance(W, CatDiagram) or not isinstance(P, CatDiagram):
        raise ValidationError("limit expects two diagram documents")
    fl = _flavor(args, P.source)
    h = weighted_limit_cat(W, P, fl, Meter(args.budget))
    _emit({"command": "limit", "flavor": sio.flavor_to_doc(fl),
           "category": sio.fincat_to_doc(h.cat)})
    _say(f"weighted limit has {len(h.cat.objects)} objects")
    return EXIT_OK


def cmd_colimit(args) -> int:
    P = _read_as(args.diagram, CatDiagram, "colimit expects a diagram document")
    meter = Meter(args.budget)
    if args.weight is not None:
        W = _read_as(args.weight, CatDiagram, "--weight expects a diagram document")
        res = weighted_sigma_colimit(W, P, _marking(P.source, args.sigma), args.cap, meter)
        conical, cert = res.conical, res.certificate
    else:
        conical = conical_sigma_colimit(P, _marking(P.source, args.sigma), args.cap, meter)
        cert = conical.certificate
    doc = {"command": "colimit", "status": conical.status,
           "certificate": [{"test": label, "ok": ok} for label, ok in cert]}
    if conical.finite:
        doc["category"] = sio.fincat_to_doc(conical.category)
    _emit(doc)
    if not conical.finite:
        growth = " ".join(map(str, conical.presented.growth))
        _say(f"undecided at cap {args.cap}; live cosets per word length: {growth}")
        return EXIT_UNDECIDED
    _say(f"colimit has {len(conical.category.objects)} objects; certificate passed")
    return EXIT_OK


def cmd_bilimit(args) -> int:
    meter = Meter(args.budget)
    x, y = (sio.parse_document(_read(path)) for path in args.args)
    shape = SHAPES[args.shape]
    h = bilimit_cat(shape.weight, shape.cat_diagram(x, y), meter)
    _emit({"command": "bilimit", "shape": args.shape,
           "category": sio.fincat_to_doc(h.cat)})
    _say(f"{args.shape} has {len(h.cat.objects)} objects")
    return EXIT_OK


def cmd_filtered(args) -> int:
    m = _read_as(args.file, (Marked2Cat, Fin2Cat),
                 "filtered expects a 2-category document")
    if isinstance(m, Fin2Cat) or args.sigma is not None:
        base = m if isinstance(m, Fin2Cat) else m.cat
        m = Marked2Cat(base, _marking(base, args.sigma))
    meter = Meter(args.budget)
    rep = check_sigma_cofiltered(m, meter) if args.co else \
        check_sigma_filtered(m, meter)
    doc = {"command": "filtered", "co": bool(args.co)}
    doc.update(_report_filteredness(rep))
    _emit(doc)
    _say(f"verdict: {rep.verdict}")
    return EXIT_OK


def cmd_cofinal(args) -> int:
    T = _read_as(args.file, TwoFunctor, "cofinal expects a 2-functor document")
    rep = check_sigma_cofinal(T, _marking(T.source, args.sigma),
                              _marking(T.target, args.sigma_prime), Meter(args.budget))
    doc = {"command": "cofinal"}
    doc.update(_report_filteredness(rep))
    _emit(doc)
    _say(f"verdict: {rep.verdict}")
    return EXIT_OK


def cmd_flat(args) -> int:
    P = _read_as(args.file, CatDiagram, "flat expects a diagram document")
    meter = Meter(args.budget)
    v = check_flat_pseudo(P, meter) if (args.pseudo or P.is_pseudo) \
        else check_flat(P, meter)
    doc = {"command": "flat", "verdict": v.verdict, "route": v.route}
    if hasattr(v.evidence, "verdict"):
        doc["evidence"] = _report_filteredness(v.evidence)
    _emit(doc)
    _say(f"verdict: {v.verdict}")
    return EXIT_OK


def cmd_exact(args) -> int:
    P = _read_as(args.file, CatDiagram, "exact expects a diagram document")
    meter = Meter(args.budget)
    rep = check_left_exact(P, generate_bilimit_cones(P.source, meter), meter)
    _emit({"command": "exact", "verdict": rep.verdict,
           "no_evidence": rep.no_evidence,
           "per_shape": [{"shape": label, "ok": ok}
                         for label, ok in rep.per_shape]})
    _say(f"verdict: {rep.verdict} over {len(rep.per_shape)} shapes")
    return EXIT_OK


def cmd_strictify(args) -> int:
    P = _read_as(args.file, CatDiagram, "strictify expects a diagram document")
    tilde, eta, eps = strictify(P, Meter(args.budget))
    out_doc = sio.diagram_to_doc(tilde)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(sio.dumps(out_doc))
        _emit({"command": "strictify", "written": args.output,
               "objects": {A: len(tilde.on_obj[A].objects)
                           for A in sorted(tilde.source.objects)}})
    else:
        _emit({"command": "strictify", "diagram": out_doc})
    _say("strictified diagram computed")
    return EXIT_OK


def cmd_yoneda(args) -> int:
    base_doc = sio.parse_document(_read(args.file))
    Q = _read_as(args.against, CatDiagram, "yoneda expects a diagram via --against")
    base = base_doc.cat if isinstance(base_doc, Marked2Cat) else base_doc
    if Q.source != base:
        raise ValidationError("diagram does not live on the given base")
    rep = yoneda_check(Q, args.object, Meter(args.budget))
    _emit({"command": "yoneda", "object": args.object, "verdict": rep.verdict,
           "witness": rep.witness})
    _say(f"verdict: {rep.verdict}")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _UsageError(Exception):
    """A usage error: the subcommand it arose in, or None, and argparse's
    message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Write argparse's usage text to stderr and hand the error to
        ``run``, which reports it on stdout."""
        self.print_usage(sys.stderr)
        _say(f"{self.prog}: error: {message}")
        raise _UsageError(self.prog.partition(" ")[2] or None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sigmacat",
        description="finite 2-categories, relative limits, and flatness")
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration budget (candidates)")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="parse and validate a document")
    q.add_argument("file")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("hom", help="category of transformations P => Q")
    q.add_argument("source")
    q.add_argument("target")
    q.add_argument("--flavor", default="p", choices=["s", "p", "sigma", "lax"])
    q.add_argument("--sigma", default=None, help="comma-separated 1-cells")
    q.set_defaults(fn=cmd_hom)

    q = sub.add_parser("elements", help="the 2-category of elements")
    q.add_argument("file")
    q.add_argument("--pseudo", action="store_true")
    q.add_argument("--sigma", default=None)
    q.set_defaults(fn=cmd_elements)

    q = sub.add_parser("limit", help="weighted limit of a diagram")
    q.add_argument("weight")
    q.add_argument("diagram")
    q.add_argument("--flavor", default="p", choices=["s", "p", "sigma", "lax"])
    q.add_argument("--sigma", default=None)
    q.set_defaults(fn=cmd_limit)

    q = sub.add_parser("colimit", help="conical or weighted relative colimit")
    q.add_argument("diagram")
    q.add_argument("--sigma", default=None)
    q.add_argument("--weight", default=None)
    q.add_argument("--cap", type=int, default=DEFAULT_CAP)
    q.set_defaults(fn=cmd_colimit)

    q = sub.add_parser("bilimit", help="one of the four binary generating bilimits")
    q.add_argument("--shape", required=True, choices=list(SHAPES))
    q.add_argument("args", nargs=2)
    q.set_defaults(fn=cmd_bilimit)

    q = sub.add_parser("filtered", help="filteredness of a marked 2-category")
    q.add_argument("file")
    q.add_argument("--sigma", default=None)
    q.add_argument("--co", action="store_true")
    q.set_defaults(fn=cmd_filtered)

    q = sub.add_parser("cofinal", help="cofinality of a 2-functor")
    q.add_argument("file")
    q.add_argument("--sigma", default=None)
    q.add_argument("--sigma-prime", dest="sigma_prime", default=None)
    q.set_defaults(fn=cmd_cofinal)

    q = sub.add_parser("flat", help="flatness of a diagram")
    q.add_argument("file")
    q.add_argument("--pseudo", action="store_true")
    q.set_defaults(fn=cmd_flat)

    q = sub.add_parser("exact", help="left exactness against bilimit cones")
    q.add_argument("file")
    q.set_defaults(fn=cmd_exact)

    q = sub.add_parser("strictify", help="strictify a pseudofunctor")
    q.add_argument("file")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(fn=cmd_strictify)

    q = sub.add_parser("yoneda", help="the Yoneda comparison at an object")
    q.add_argument("file")
    q.add_argument("--object", required=True)
    q.add_argument("--against", required=True)
    q.set_defaults(fn=cmd_yoneda)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        command, detail = e.args
        _emit({"command": command, "error": "usage", "detail": detail})
        return EXIT_INVALID
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (Inconsistency, CertificateFailure) as e:
        _emit({"command": args.command, "error": "consistency",
               "detail": str(e)})
        _say(f"consistency failure: {e}")
        return EXIT_BUG
    except UndecidedAtCap as e:
        _emit({"command": args.command, "error": "undecided", "detail": str(e)})
        _say(f"undecided: {e}")
        return EXIT_UNDECIDED
    except (ParseError, ValidationError, PreconditionFailed,
            SizeLimitExceeded, FileNotFoundError) as e:
        _emit({"command": args.command, "error": "invalid-input",
               "detail": str(e)})
        _say(f"invalid input: {e}")
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
