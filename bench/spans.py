"""Spans around sigmacat's public functions, installed from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
sigmacat module (and the ladder module) that holds a reference to it,
since ``from .x import f`` copies the reference into the importer.
``Meter.tick`` is wrapped as well, so each span knows how many budget
ticks were charged while it was open.  Spans stay in memory and are
written out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Per-layer metric groups: metric stem -> (module, function) pairs.
GROUPS = {
    "cli.build_parser": [("cli", "build_parser")],
    "cli.run": [("cli", "run")],
    "io.parse": [("io", "parse_document")],
    "io.encode": [("io", "dumps")] + [("io", f) for f in (
        "fincat_to_doc", "fin2cat_to_doc", "functor_to_doc", "nat_transf_to_doc",
        "diagram_to_doc", "twofunctor_to_doc", "flavor_to_doc",
        "transformation_to_doc")],
    "fincat.validate": [("fincat", "validate_category")],
    "two_cat.validate": [("two_cat", "validate_2category")],
    "transforms.validate": [("transforms", "validate_diagram"),
                            ("transforms", "validate_twofunctor")],
    "presented.localize": [("presented", "localize")],
    "fincat.functor_category": [("fincat", "functor_category_full"),
                                ("fincat", "functor_category")],
    "fincat.enumerate_functors": [("fincat", "enumerate_functors")],
    "fincat.find_isomorphism": [("fincat", "find_isomorphism")],
    "fincat.is_equivalence": [("fincat", "is_equivalence")],
    "colimits.cones_sigma": [("colimits", "cones_sigma")],
    "colimits.conical": [("colimits", "conical_sigma_colimit")],
    "colimits.weighted": [("colimits", "weighted_sigma_colimit")],
    "colimits.comparison_functor": [("colimits", "comparison_functor")],
    "transforms.hom_eps": [("transforms", "hom_eps")],
    "transforms.enumerate_transformations": [("transforms", "enumerate_transformations")],
    "elements.build": [("elements", "elements_of"), ("elements", "elements_of_pseudo"),
                       ("elements", "gamma_dual")],
    "filteredness.check": [("filteredness", "check_sigma_filtered"),
                           ("filteredness", "check_sigma_cofiltered"),
                           ("filteredness", "check_sigma_cofinal")],
    "flatness.check_flat": [("flatness", "check_flat"), ("flatness", "check_flat_pseudo")],
    "flatness.bilimit_cones": [("flatness", "generate_bilimit_cones")],
    "flatness.check_left_exact": [("flatness", "check_left_exact")],
    "flatness.canonical_expression": [("flatness", "canonical_expression")],
    "flatness.strictify": [("flatness", "strictify")],
}

# The per-layer metrics: name -> (kind, group stem).  "ms" and "ticks" are
# inclusive of callees, with nested spans of the same group counted once;
# "self_ms" is a span's time less its child spans'.
PER_LAYER = {
    "cli.build_parser_ms": ("ms", "cli.build_parser"),
    "cli.self_ms": ("self_ms", "cli.run"),
    "io.parse_ms": ("ms", "io.parse"),
    "io.parse_calls": ("calls", "io.parse"),
    "io.encode_ms": ("ms", "io.encode"),
    "io.report_bytes": ("bytes", "io.encode"),
    "fincat.validate_ms": ("ms", "fincat.validate"),
    "two_cat.validate_ms": ("ms", "two_cat.validate"),
    "transforms.validate_ms": ("ms", "transforms.validate"),
    "presented.localize_ms": ("ms", "presented.localize"),
    "presented.localize_ticks": ("ticks", "presented.localize"),
    "presented.localize_calls": ("calls", "presented.localize"),
    "fincat.functor_category_ms": ("ms", "fincat.functor_category"),
    "fincat.functor_category_ticks": ("ticks", "fincat.functor_category"),
    "fincat.enumerate_functors_ms": ("ms", "fincat.enumerate_functors"),
    "fincat.find_isomorphism_ms": ("ms", "fincat.find_isomorphism"),
    "fincat.is_equivalence_ms": ("ms", "fincat.is_equivalence"),
    "colimits.cones_sigma_ms": ("ms", "colimits.cones_sigma"),
    "colimits.cones_sigma_ticks": ("ticks", "colimits.cones_sigma"),
    "colimits.conical_ms": ("ms", "colimits.conical"),
    "colimits.weighted_ms": ("ms", "colimits.weighted"),
    "colimits.comparison_functor_ms": ("ms", "colimits.comparison_functor"),
    "colimits.self_ms": ("module_self_ms", "colimits"),
    "transforms.hom_eps_ms": ("ms", "transforms.hom_eps"),
    "transforms.hom_eps_ticks": ("ticks", "transforms.hom_eps"),
    "transforms.enumerate_transformations_ms": ("ms", "transforms.enumerate_transformations"),
    "elements.build_ms": ("ms", "elements.build"),
    "elements.build_ticks": ("ticks", "elements.build"),
    "filteredness.check_ms": ("ms", "filteredness.check"),
    "filteredness.check_ticks": ("ticks", "filteredness.check"),
    "flatness.check_flat_ms": ("ms", "flatness.check_flat"),
    "flatness.bilimit_cones_ms": ("ms", "flatness.bilimit_cones"),
    "flatness.bilimit_cones_ticks": ("ticks", "flatness.bilimit_cones"),
    "flatness.check_left_exact_ms": ("ms", "flatness.check_left_exact"),
    "flatness.canonical_expression_ms": ("ms", "flatness.canonical_expression"),
    "flatness.strictify_ms": ("ms", "flatness.strictify"),
}

UNITS = {"ms": "ms", "self_ms": "ms", "module_self_ms": "ms", "calls": "count",
         "ticks": "count", "bytes": "count"}

# Span record fields.
NAME, START, END, PARENT, TICKS0, TICKS1, QUESTION, SIZE = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.ticks = 0
        self.question = -1
        self._restore = []

    def _wrap(self, name, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.ticks, 0, tracer.question, 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[TICKS1] = tracer.ticks
                tracer.stack.pop()
            if size is not None:
                span[SIZE] = size(out)
            return out

        return wrapper

    def install(self, extra_modules=()) -> None:
        holders = [m for name, m in sys.modules.items()
                   if name == "sigmacat" or name.startswith("sigmacat.")]
        holders += list(extra_modules)
        for pairs in GROUPS.values():
            for mod_name, fn_name in pairs:
                mod = sys.modules[f"sigmacat.{mod_name}"]
                orig = getattr(mod, fn_name)
                size = len if fn_name == "dumps" else None
                wrapped = self._wrap(f"{mod_name}.{fn_name}", orig, size)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, attr, wrapped)
                            self._restore.append((holder, attr, orig))
        meter = sys.modules["sigmacat.config"].Meter
        orig_tick = meter.tick
        tracer = self

        def tick(m, n=1):
            tracer.ticks += n
            orig_tick(m, n)

        meter.tick = tick
        self._restore.append((meter, "tick", orig_tick))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def layer_metrics(self, factors: list, rounds: int) -> dict:
        """Per-layer metrics per traced round, times scaled by ``factors``.

        ``factors[q]`` converts the wall time of question ``q`` to
        reference-speed time (see run.py).
        """
        spans = self.spans
        group_of = {f"{m}.{f}": stem for stem, pairs in GROUPS.items()
                    for m, f in pairs}
        child_ms = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ms[s[PARENT]] += s[END] - s[START]

        def outermost(i, stem):
            p = spans[i][PARENT]
            while p >= 0:
                if group_of[spans[p][NAME]] == stem:
                    return False
                p = spans[p][PARENT]
            return True

        totals = {}
        for i, s in enumerate(spans):
            stem = group_of[s[NAME]]
            scale = 1000.0 * factors[s[QUESTION]]
            t = totals.setdefault(stem, {"ms": 0.0, "ticks": 0, "calls": 0,
                                         "self_ms": 0.0, "bytes": 0})
            t["calls"] += 1
            t["bytes"] += s[SIZE]
            t["self_ms"] += (s[END] - s[START] - child_ms[i]) * scale
            if outermost(i, stem):
                t["ms"] += (s[END] - s[START]) * scale
                t["ticks"] += s[TICKS1] - s[TICKS0]
        out = {}
        for metric, (kind, stem) in PER_LAYER.items():
            if kind == "module_self_ms":
                value = sum(t["self_ms"] for g, t in totals.items()
                            if g.split(".")[0] == stem)
            else:
                value = totals.get(stem, {}).get(kind, 0)
            out[metric] = (value / rounds, UNITS[kind])
        return out

    def module_table(self, factors: list, rounds: int) -> dict:
        """Self time, calls and ticks per sigmacat module, per traced round."""
        spans = self.spans
        child = [[0.0, 0] for _ in spans]
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]][0] += s[END] - s[START]
                child[s[PARENT]][1] += s[TICKS1] - s[TICKS0]
        table = {}
        for i, s in enumerate(spans):
            row = table.setdefault(s[NAME].split(".")[0],
                                   {"self_ms": 0.0, "calls": 0, "self_ticks": 0})
            row["self_ms"] += (s[END] - s[START] - child[i][0]) * 1000.0 \
                * factors[s[QUESTION]] / rounds
            row["calls"] += 1 / rounds
            row["self_ticks"] += (s[TICKS1] - s[TICKS0] - child[i][1]) / rounds
        return table

    def write(self, path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "ticks_start",
                              "ticks_end", "question", "bytes"]
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc), encoding="utf-8")
