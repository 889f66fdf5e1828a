"""Property suites run over the seeded random-code corpus.

These are the executable forms of the core guarantees: the residual-code
dimension/distance lemma, the global weight cap q*(n-d), the distance
ratio (q+1)*d <= q*n, and soundness of all three exclusion criteria
against true spectra.  Used both by the test suite and by the CLI
`selftest` subcommand.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, NamedTuple

from .bounds import ceil_div, distance_ratio_holds, global_weight_max, max_window_weight
from .codes import (SPECTRUM_CACHE_SIZE, LinearCode, _support_masks, code_params,
                    min_distance, spectrum)
from .corpus import random_corpus
from .exclusion import audit_against_spectrum


class CheckResult(NamedTuple):
    """Outcome of one property suite: items checked and violations found."""

    name: str
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_residual_lemma(codes: Iterable[LinearCode]) -> CheckResult:
    """Residual codes of in-window codewords: dimension k-1 and minimum
    distance at least d - w + ceil(w/q); the length n-w holds by construction.

    The residual at c is the code punctured on supp(c), so both are read from
    the support masks of one codeword per scalar class (`_support_masks`), and
    no residual is built.  For each distinct window support S, (q^t - 1)/(q - 1)
    classes have their mask inside S when the residual has dimension k - t, and
    the least nonzero popcount(m & ~S) is its minimum distance.  The masks go
    into per-weight buckets in one pass; the bucket sizes times q - 1 must be
    the spectrum, which counts the window codewords checked.  Supports are
    taken in message order.  Only masks lighter than B = w + max(floor, 1) are
    scanned, the first lighter[min(B, n + 1)] in bucket order: a heavier m
    keeps |m| - w >= max(floor, 1) coordinates outside S, so it is neither
    inside S nor below.
    """
    checked = 0
    violations = []
    for code in codes:
        n, k, d, q = params = code_params(code)
        hi = max_window_weight(d, q)
        counts = spectrum(code).counts
        masks = _support_masks(code.gf, code.rows)
        buckets: list[list[int]] = [[] for _ in range(n + 1)]  # a mask per q - 1 codewords
        for m in masks:
            buckets[m.bit_count()].append(m)
        if [len(b) * (q - 1) for b in buckets[1:]] != list(counts[1:]):
            raise AssertionError(f"support masks of {params} disagree with its spectrum")
        by_weight = [m for b in buckets for m in b]
        lighter = list(accumulate(map(len, buckets), initial=0))  # lighter[w]: masks below w
        checked += sum(counts[1:hi + 1])
        for s in dict.fromkeys(m for m in masks if m.bit_count() <= hi):
            w = s.bit_count()
            if w == n:
                violations.append(f"{params} w={w}: codeword has full support; nothing remains")
                continue
            out, floor_d = ~s, d - w + ceil_div(w, q)
            prefix = by_weight[:lighter[min(w + max(floor_d, 1), n + 1)]]
            rest = [(m & out).bit_count() for m in prefix]
            inside = rest.count(0)
            if inside == len(masks):
                violations.append(f"{params} w={w}: all generator rows vanish after puncturing")
                continue
            if inside != 1:
                t = next((t for t in range(k) if q**t == inside * (q - 1) + 1), None)
                if t is None:
                    raise AssertionError(f"{inside} scalar classes inside a support of {params}")
                violations.append(f"{params} w={w}: residual dimension {k - t} != {k - 1}")
            if (res_d := min((r for r in rest if r), default=floor_d)) < floor_d:
                violations.append(f"{params} w={w}: residual distance {res_d} < {floor_d}")
    return CheckResult("residual-lemma", checked, tuple(violations))


def check_global_weight(codes: Iterable[LinearCode]) -> CheckResult:
    """Every nonzero weight of a k > 1 code is at most q*(n-d)."""
    checked = 0
    violations = []
    for code in codes:
        if code.k <= 1:
            continue
        spec = spectrum(code)
        cap = global_weight_max(code.n, spec.min_distance, code.q)
        checked += 1
        for w, count in spec.nonzero().items():
            if w > cap:
                violations.append(
                    f"{code_params(code)}: {count} codeword(s) of weight {w} > {cap}"
                )
    return CheckResult("global-weight", checked, tuple(violations))


def check_distance_ratio(codes: Iterable[LinearCode]) -> CheckResult:
    """(q+1)*d <= q*n for every k > 1 code."""
    checked = 0
    violations = []
    for code in codes:
        if code.k <= 1:
            continue
        checked += 1
        if not distance_ratio_holds(code.n, min_distance(code), code.q).holds:
            violations.append(f"{code_params(code)}: (q+1)*d exceeds q*n")
    return CheckResult("distance-ratio", checked, tuple(violations))


def check_exclusion_soundness(codes: Iterable[LinearCode]) -> CheckResult:
    """No criterion excludes a weight the code actually attains."""
    checked = 0
    violations = []
    for code in codes:
        checked += 1
        for v in audit_against_spectrum(code):
            violations.append(f"{code_params(code)}: {v}")
    return CheckResult("exclusion-soundness", checked, tuple(violations))


def run_selftest(trials: int, seed: int) -> list[CheckResult]:
    """Run all four suites over the seeded corpus; deterministic in (trials, seed).
    Slices of SPECTRUM_CACHE_SIZE codes keep each spectrum cached for all four."""
    codes, step = list(random_corpus(trials, seed)), SPECTRUM_CACHE_SIZE
    suites = (check_residual_lemma, check_global_weight, check_distance_ratio,
              check_exclusion_soundness)
    parts = zip(*([suite(codes[i:i + step]) for suite in suites]
                  for i in range(0, len(codes) or 1, step)))
    return [CheckResult(p[0].name, sum(r.checked for r in p), sum((r.violations for r in p), ()))
            for p in parts]
