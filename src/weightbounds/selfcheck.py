"""Property suites run over the seeded random-code corpus.

These are the executable forms of the core guarantees: the residual-code
dimension/distance lemma, the global weight cap q*(n-d), the distance
ratio (q+1)*d <= q*n, and soundness of all three exclusion criteria
against true spectra.  Used both by the test suite and by the CLI
`selftest` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bounds import ceil_div, distance_ratio_holds, global_weight_max, max_window_weight
from .codes import LinearCode, code_params, min_distance, projective_codewords, spectrum
from .corpus import random_corpus
from .exclusion import audit_against_spectrum


@dataclass(frozen=True)
class CheckResult:
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

    The residual at c is the code punctured on supp(c), so both are read
    from the support masks of one codeword per scalar class, and no residual
    is built.  For each distinct window support S, (q^t - 1)/(q - 1) classes
    have their mask inside S when the residual has dimension k - t, and the
    least nonzero popcount(m & ~S) is its minimum distance.  Every window
    codeword still counts as checked, read from the spectrum.
    """
    checked = 0
    violations = []
    for code in codes:
        params = code_params(code)
        n, k, d, q = params.n, params.k, params.d, params.q
        hi = max_window_weight(d, q)
        checked += sum(spectrum(code).counts[1:hi + 1])
        # One byte per coordinate, so a popcount counts coordinates.
        masks = [int.from_bytes(bytes(map(bool, cw)), "little")
                 for cw in projective_codewords(code.gf, code.rows)]
        for s in dict.fromkeys(m for m in masks if m.bit_count() <= hi):
            w = s.bit_count()
            if w == n:
                violations.append(f"{params} w={w}: codeword has full support; nothing remains")
                continue
            out = ~s
            rest = [(m & out).bit_count() for m in masks]
            inside = rest.count(0)
            if inside == len(masks):
                violations.append(f"{params} w={w}: all generator rows vanish after puncturing")
                continue
            if inside != 1:
                t = next((t for t in range(k) if q**t == inside * (q - 1) + 1), None)
                if t is None:
                    raise AssertionError(f"{inside} scalar classes inside a support of {params}")
                violations.append(f"{params} w={w}: residual dimension {k - t} != {k - 1}")
            floor_d = d - w + ceil_div(w, q)
            if (res_d := min(r for r in rest if r)) < floor_d:
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
            if w and w > cap:
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
    """Run all four suites over the seeded corpus; deterministic in (trials, seed)."""
    codes = list(random_corpus(trials, seed))
    return [
        check_residual_lemma(codes),
        check_global_weight(codes),
        check_distance_ratio(codes),
        check_exclusion_soundness(codes),
    ]
