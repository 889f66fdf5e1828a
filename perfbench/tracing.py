"""Span tracing of the weightbounds package, installed from outside it.

`install` replaces each function named in WRAPPED, at every module of the
package that bound it by name, with a wrapper that records one span per
call: (id, name, parent id, start, end, busy), times in nanoseconds.  A
module's calls to its own globals go through the wrapper as well, so nested
calls nest as child spans.  A layer's self time is its busy time minus the
busy time of its child spans.  A name that the package no longer defines is
listed in `Tracer.dropped` and its metrics read 0; the run goes on.

Only entry points are wrapped.  Per-codeword and per-weight helpers
(`hamming_weight`, `ceil_div`, `GF.add`) would cost more to wrap than the
work they do, so `GF.add`/`GF.mul` are timed by `gf_op_ns` on a fixed
sample instead, and `residual_griesmer_min_n` is only counted.
"""

from __future__ import annotations

import functools
import itertools
import random
import statistics
from collections import Counter
from time import perf_counter_ns

# (home module, function); the span name is "<home>.<function>".
WRAPPED = (
    ("gf", "make_field"),
    ("codes", "spectrum"),
    ("codes", "row_reduce"),
    ("codes", "residual"),
    ("codes", "min_distance"),
    ("corpus", "random_code"),
    ("selfcheck", "run_selftest"),
    ("selfcheck", "check_residual_lemma"),
    ("selfcheck", "check_global_weight"),
    ("selfcheck", "check_distance_ratio"),
    ("selfcheck", "check_exclusion_soundness"),
    ("exclusion", "compare_methods"),
    ("exclusion", "griesmer_excluded"),
    ("exclusion", "audit_against_spectrum"),
    ("bounds", "parameter_verdicts"),
    ("tables", "compare_table"),
    ("cli", "main"),
    ("cli", "build_parser"),
)
# Generators: one span per generator, busy time summed over next().
GENERATORS = (("codes", "iter_codewords"),)
# Counted, not spanned: (home, function, the span the call must come from).
COUNTED = (("bounds", "residual_griesmer_min_n", "exclusion.griesmer_excluded"),)

SUITES = {
    "residual_lemma": "selfcheck.check_residual_lemma",
    "global_weight": "selfcheck.check_global_weight",
    "distance_ratio": "selfcheck.check_distance_ratio",
    "exclusion_soundness": "selfcheck.check_exclusion_soundness",
}
FIELD_CLASSES = ("gf2", "prime", "ext2", "extp")


def field_class(gf) -> str:
    """The ROADMAP's four field classes: GF(2), odd prime, GF(2^m), GF(p^m) odd p."""
    if gf.q == 2:
        return "gf2"
    if gf.m == 1:
        return "prime"
    return "ext2" if gf.p == 2 else "extp"


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent id, start, end, busy)
        self.stack: list[list] = []  # open frames: [id, name, child busy]
        self.calls: Counter = Counter()
        self.busy_ns: Counter = Counter()  # outermost spans of each name only
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.dropped: list[str] = []
        self.enumerated: set = set()  # codes whose spectrum was already counted
        self._ids = itertools.count()

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def _finish(self, frame, parent, start, end, busy) -> None:
        span_id, name, _ = frame
        if not self.inside(name):
            self.busy_ns[name] += busy
        self.calls[name] += 1
        self.spans.append(
            (span_id, name, parent[0] if parent else None, start, end, busy)
        )

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        frame = [next(self._ids), name, 0]
        self.stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            self.self_ns[name] += end - start - frame[2]
            if parent is not None:
                parent[2] += end - start
            self._finish(frame, parent, start, end, end - start)
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self, args, result, end - start)
        return result

    def generator(self, name, gen):
        parent = self.stack[-1] if self.stack else None
        frame = [next(self._ids), name, 0]
        first = last = None
        busy = 0
        try:
            while True:
                consumer = self.stack[-1] if self.stack else None
                frame[2] = 0
                self.stack.append(frame)
                t0 = perf_counter_ns()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter_ns()
                    self.stack.pop()
                    busy += t1 - t0
                    self.self_ns[name] += t1 - t0 - frame[2]
                    if consumer is not None:
                        consumer[2] += t1 - t0
                    first = t0 if first is None else first
                    last = t1
                self.counts[name + ".items"] += 1
                yield item
        finally:
            gen.close()
            # Each next() was credited to the span that called it, above.
            self._finish(frame, parent, first, last, busy)

    def count(self, name, within, fn, args, kwargs):
        if self.stack and self.stack[-1][1] == within:
            self.counts[name] += 1
        return fn(*args, **kwargs)


def _spectrum_hook(tracer, args, result, dur_ns) -> None:
    code = args[0]
    cls = field_class(code.gf)
    tracer.counts["spectrum_ns." + cls] += dur_ns
    if code not in tracer.enumerated:
        tracer.enumerated.add(code)
        tracer.counts["spectrum_cw." + cls] += code.q**code.k


def _residual_lemma_hook(tracer, args, result, dur_ns) -> None:
    tracer.counts["residual_lemma.window_codewords"] += result.checked


def _residual_hook(tracer, args, result, dur_ns) -> None:
    if tracer.inside(SUITES["residual_lemma"]):
        tracer.counts["residual_lemma.supports"] += 1


HOOKS = {
    "codes.spectrum": _spectrum_hook,
    "codes.residual": _residual_hook,
    SUITES["residual_lemma"]: _residual_lemma_hook,
}


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every traced name at each module in `modules` that binds it."""

    def rebind(home, fname, make):
        original = getattr(modules[home], fname, None)
        if original is None:
            tracer.dropped.append(f"{home}.{fname}")
            return
        wrapper = functools.wraps(original)(make(f"{home}.{fname}", original))
        for module in modules.values():
            if getattr(module, fname, None) is original:
                setattr(module, fname, wrapper)

    for home, fname in WRAPPED:
        rebind(home, fname, lambda name, fn: lambda *a, **kw: tracer.call(name, fn, a, kw))
    for home, fname in GENERATORS:
        rebind(
            home, fname,
            lambda name, fn: lambda *a, **kw: tracer.generator(name, fn(*a, **kw)),
        )
    for home, fname, within in COUNTED:
        rebind(
            home, fname,
            lambda name, fn, within=within: lambda *a, **kw: tracer.count(
                name, within, fn, a, kw
            ),
        )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (set-up included), in s and counts."""
    s = {name: ns / 1e9 for name, ns in tracer.busy_ns.items()}
    self_s = {name: ns / 1e9 for name, ns in tracer.self_ns.items()}
    calls, counts = tracer.calls, tracer.counts
    out = {}
    for name in ("gf.make_field", "codes.spectrum", "codes.row_reduce",
                 "codes.residual", "codes.min_distance", "corpus.random_code",
                 "exclusion.compare_methods", "exclusion.audit_against_spectrum",
                 "bounds.parameter_verdicts", "tables.compare_table"):
        out[name + ".s"] = s.get(name, 0.0)
        out[name + ".calls"] = calls[name]
    for cls in FIELD_CLASSES:
        ns = counts["spectrum_ns." + cls]
        out["codes.spectrum.cw_per_s." + cls] = (
            counts["spectrum_cw." + cls] * 1e9 / ns if ns else 0.0
        )
    out["codes.iter_codewords.codewords"] = counts["codes.iter_codewords.items"]
    out["codes.iter_codewords.s"] = s.get("codes.iter_codewords", 0.0)
    for suite, name in SUITES.items():
        out[f"selfcheck.{suite}.self_s"] = self_s.get(name, 0.0)
    window = counts["residual_lemma.window_codewords"]
    supports = counts["residual_lemma.supports"]
    out["selfcheck.residual_lemma.window_codewords"] = window
    out["selfcheck.residual_lemma.supports"] = supports
    out["selfcheck.residual_lemma.dedup_yield"] = window / supports if supports else 0.0
    out["exclusion.griesmer_excluded.s"] = s.get("exclusion.griesmer_excluded", 0.0)
    out["exclusion.griesmer_excluded.window_weights"] = counts[
        "bounds.residual_griesmer_min_n"
    ]
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    out["cli.main.calls"] = calls["cli.main"]
    out["cli.build_parser.s"] = s.get("cli.build_parser", 0.0)
    return out


def gf_op_ns(make_field, orders, pairs: int = 4000, repeats: int = 5) -> dict[str, float]:
    """ns per GF.add / GF.mul call for each field class among `orders`.

    The element sample is seeded by a constant, not by the benchmark seed,
    so the numbers compare across runs.  Each field is timed `repeats`
    times and the median kept; a class reports the mean over its fields.
    """
    rng = random.Random(20250903)
    fields = {}
    for q in orders:
        field = make_field(q)
        fields.setdefault(field_class(field), []).append(field)
    out = {}
    for cls in FIELD_CLASSES:
        for op in ("add", "mul"):
            per_field = []
            for field in fields.get(cls, ()):
                sample = [(rng.randrange(field.q), rng.randrange(field.q))
                          for _ in range(pairs)]
                fn = getattr(field, op)
                times = []
                for _ in range(repeats):
                    t0 = perf_counter_ns()
                    for a, b in sample:
                        fn(a, b)
                    times.append((perf_counter_ns() - t0) / pairs)
                per_field.append(statistics.median(times))
            out[f"gf.{op}_ns.{cls}"] = statistics.fmean(per_field) if per_field else 0.0
    return out
