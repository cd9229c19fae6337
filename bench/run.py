"""Benchmark for sigmacat: one closed-loop caller, one process, one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli_corpus --seed 1 --seconds 25 --trace 0

Workloads are defined in ladders.py and described in README.md.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

Times are reported at a fixed reference speed.  The machine's speed
drifts by a quarter within seconds, so a short calibration loop that
does not touch sigmacat runs between questions and, from a timer signal,
during them; each question's time, less the loops inside it, is scaled
by REFERENCE_LOOP_MS over the median of the loop times in and around it.
The wall-clock figures are printed on the line before the result.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"

WORKLOADS = ("cli_corpus", "colimit_ladder", "flatness_ladder")
# Number of set-ups per run; setup_s is their median.
SETUPS = 11
# The calibration loop's time at the reference speed, how often it also
# runs from a timer signal while a question runs, and how many loops on
# each side of a question join those inside it to set its speed.
REFERENCE_LOOP_MS = 1.0
SAMPLE_EVERY_S = 0.1
NEIGHBOURS = 8


def calibration_loop() -> int:
    d = {}
    for i in range(1200):
        k = (i % 97, "x%d" % (i & 15))
        d[k] = d.get(k, 0) + i
    return len(sorted(d))


class Clock:
    """Times of the calibration loop, taken between questions and, from a
    timer signal, during them, so long questions are sampled inside too."""

    def __init__(self):
        self.samples = []  # (start, end), in time order
        self._sampling = False
        self._cached = []

    def sample(self) -> None:
        if self._sampling:
            return
        self._sampling = True
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append((t0, time.perf_counter()))
        self._sampling = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _starts(self) -> list:
        if len(self._cached) != len(self.samples):
            self._cached = [s for s, _ in self.samples]
        return self._cached

    def busy(self, start: float, end: float) -> float:
        """Wall time in [start, end], less the loops that ran inside it."""
        starts = self._starts()
        inside = self.samples[bisect.bisect_left(starts, start):
                              bisect.bisect_left(starts, end)]
        return end - start - sum(e - s for s, e in inside if e <= end)

    def factor(self, start: float, end: float) -> float:
        """Scales time spent in [start, end] to reference speed.

        The speed is the median loop time over the loops inside the
        interval and the NEIGHBOURS loops on each side of it.
        """
        starts = self._starts()
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        window = self.samples[max(0, lo - NEIGHBOURS): hi + NEIGHBOURS]
        return REFERENCE_LOOP_MS / 1000.0 / statistics.median(e - s for s, e in window)


def purge_program_modules() -> None:
    for name in list(sys.modules):
        if name == "sigmacat" or name.startswith("sigmacat.") or name == "ladders":
            del sys.modules[name]


def set_up(workload: str):
    """Compile sigmacat from source, import it, and build the questions."""
    purge_program_modules()
    ladders = importlib.import_module("ladders")
    return ladders, ladders.WORKLOADS[workload](OUT / workload)


def quantile(values: list, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile.

    It averages every order statistic with Beta((n+1)p, (n+1)(1-p))
    weights, so a question whose time crosses a gap in the distribution
    moves the figure a little instead of making it jump to the next
    question's time.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 8  # Simpson's rule on each interval [(i-1)/n, i/n]
    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        ys = [density(lo + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class Runner:
    def __init__(self, questions, failures, seed: int, clock: Clock):
        self.questions = questions
        self.failures = failures
        self.rng = random.Random(seed)
        self.clock = clock
        self.spans = []  # (start, end) of each question asked, in order
        self.asked = []  # the index of each question asked, in order
        self.failed = 0
        self.correct = True
        self.wrong = []
        self.round_ends = []

    def round(self, tracer=None) -> float:
        order = list(range(len(self.questions)))
        self.rng.shuffle(order)
        t_round = time.perf_counter()
        for i in order:
            q = self.questions[i]
            if tracer is not None:
                tracer.question = len(self.spans)
            t0 = time.perf_counter()
            failed = raised = False
            try:
                value = q.run()
            except self.failures:
                failed = True
            except Exception:
                raised = True
                traceback.print_exc()
            self.spans.append((t0, time.perf_counter()))
            self.asked.append(i)
            self.clock.sample()
            if failed:
                self.failed += 1
            elif raised or not q.check(value):
                self.correct = False
                self.wrong.append(q.name)
        self.round_ends.append(len(self.spans))
        return time.perf_counter() - t_round


def measure_setups(workload: str, clock: Clock):
    samples = []
    for _ in range(SETUPS):
        # Collect the previous set-up's modules now, not inside this one.
        gc.collect()
        for _ in range(5):
            clock.sample()
        t0 = time.perf_counter()
        ladders, questions = set_up(workload)
        t1 = time.perf_counter()
        for _ in range(5):
            clock.sample()
        busy = clock.busy(t0, t1)
        samples.append((busy, busy * clock.factor(t0, t1)))
    return ladders, questions, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sigmacat").is_dir() or not (ROOT / "fixtures").is_dir():
        print("bench: src/sigmacat and fixtures/ are missing; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    # Compile sigmacat from source at every set-up: write no bytecode and
    # look for cached bytecode only in a directory that stays empty.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(OUT / "no-bytecode")

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with Clock() as clock:
        ladders, questions, setups = measure_setups(args.workload, clock)
        runner = Runner(questions, ladders.FAILURES, args.seed, clock)
        tracer = None
        reference_round = None
        start = time.perf_counter()
        if args.trace:
            # A warm-up round, then an untraced round to take the tracing
            # overhead against: the first round after set-up runs slower.
            runner.round()
            warm = len(runner.spans)
            runner.round()
            reference_round = len(runner.spans)
            from spans import Tracer
            tracer = Tracer()
            tracer.install([sys.modules["ladders"]])
        while True:
            last = runner.round(tracer)
            if time.perf_counter() - start + last > args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()

    factors = [clock.factor(s, e) for s, e in runner.spans]
    wall = [clock.busy(s, e) for s, e in runner.spans]
    scaled = [w * f for w, f in zip(wall, factors)]
    attempted = len(wall)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        metrics = end_to_end(scaled, setups, rss_mb)
        raw = end_to_end(wall, [(w, w) for w, _ in setups], rss_mb)
        print("wall-clock: " + json.dumps({k: v["value"] for k, v in raw.items()}))
    else:
        rounds = len(runner.round_ends) - 2
        # Overhead: the median over questions of the traced time less the
        # untraced time of the same question.
        untraced = dict(zip(runner.asked[warm:reference_round],
                            scaled[warm:reference_round]))
        overheads = [t - untraced[i] for i, t in
                     zip(runner.asked[reference_round:], scaled[reference_round:])]
        layer = tracer.layer_metrics(factors, rounds)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        # Ticks per ms over the questions that charge at least 100 ticks.
        rates = sorted(t / (s * 1000.0) for t, s in question_ticks(tracer, scaled)
                       if t >= 100)
        metrics["config.ticks"] = {"value": tracer.ticks / rounds, "unit": "count"}
        metrics["config.ticks_per_ms"] = {"value": statistics.median(rates) if rates
                                          else 0.0, "unit": "1/ms"}
        metrics["config.ticks_per_ms_spread"] = {
            "value": rates[-1] / rates[0] if rates else 0.0, "unit": "ratio"}
        metrics["trace.overhead_ms"] = {"value": statistics.median(overheads) * 1000.0,
                                        "unit": "ms"}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "traced_rounds": rounds,
            "questions": [questions[i].name for i in runner.asked],
            "modules": tracer.module_table(factors, rounds)})

    if runner.wrong:
        print("wrong answers: " + ", ".join(sorted(set(runner.wrong))), file=sys.stderr)
    print(json.dumps({"correct": runner.correct, "attempted": attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def question_ticks(tracer, scaled: list):
    """(ticks, scaled seconds) for each traced question."""
    from spans import QUESTION, TICKS0, TICKS1, PARENT
    ticks = {}
    for s in tracer.spans:
        if s[PARENT] < 0:
            ticks[s[QUESTION]] = ticks.get(s[QUESTION], 0) + s[TICKS1] - s[TICKS0]
    return [(t, scaled[q]) for q, t in ticks.items()]


def end_to_end(times: list, setups: list, rss_mb: float) -> dict:
    ms = [t * 1000.0 for t in times]
    return {
        "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
        "questions_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "question_ms_p50": {"value": quantile(ms, 0.5), "unit": "ms"},
        "question_ms_p90": {"value": quantile(ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


if __name__ == "__main__":
    sys.exit(main())
