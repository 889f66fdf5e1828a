"""Excluded-weight criteria: which weights cannot appear in any [n,k,d]_q code.

Three methods are implemented:

* Chen-Xie interval: weights in [n-k+2, floor(q*d/(q-1)) - 1] vanish.
* Singleton criterion: weights w with d <= w < q*d/(q-1) and
  w > q*(n-k-d+2) vanish; a consecutive interval.
* Griesmer criterion: weights w with d <= w < q*d/(q-1) vanish whenever
  n < residual_griesmer_min_n(k, d, q, w); this set need not be an
  interval.

Endpoint logic is exact-integer throughout.  Both upper endpoints use
the strict window w*(q-1) < q*d; the Chen-Xie endpoint additionally
requires w <= q*d/(q-1) - 1, which is one lower when (q-1) does not
divide q*d.  Clamped variants stop at n (every lower endpoint is >= 1);
raw variants keep the formula intervals even past n (some published
tables print those).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import max_window_weight, residual_griesmer_min_n
from .codes import CodeParams, LinearCode, code_params, spectrum
from .errors import ParamRangeError


@dataclass(frozen=True)
class ExclusionReport:
    """Per-criterion excluded weights for one parameter tuple."""

    params: CodeParams
    chen_xie: frozenset[int]
    singleton: frozenset[int]
    griesmer: frozenset[int]
    clamped: bool
    notes: tuple[str, ...]

    @property
    def sets(self) -> dict[str, frozenset[int]]:
        """Method name to excluded set: chen-xie, singleton, griesmer."""
        return {"chen-xie": self.chen_xie, "singleton": self.singleton,
                "griesmer": self.griesmer}

    @property
    def union(self) -> frozenset[int]:
        return self.chen_xie | self.singleton | self.griesmer


@dataclass(frozen=True)
class AuditViolation:
    """A weight that a criterion excludes but the code actually attains."""

    criterion: str
    weight: int
    count: int

    def __str__(self) -> str:
        return f"{self.criterion} excludes attained weight {self.weight} (A_w = {self.count})"


def chen_xie_upper(d: int, q: int) -> int:
    """Largest integer <= q*d/(q-1) - 1, i.e. floor(q*d/(q-1)) - 1."""
    return (q * d) // (q - 1) - 1


def chen_xie_excluded(params: CodeParams, clamp: bool = True) -> set[int]:
    """The Chen-Xie interval [n-k+2, floor(q*d/(q-1)) - 1] (may be empty)."""
    lo, hi = params.n - params.k + 2, chen_xie_upper(params.d, params.q)
    return set(range(lo, (min(hi, params.n) if clamp else hi) + 1))


def singleton_excluded(params: CodeParams, clamp: bool = True) -> set[int]:
    """Weights ruled out by the residual-Singleton argument (an interval).

    Requires k >= 2: the argument passes to a residual code of dimension
    k-1, and for k = 1 the claim is simply false (a [5,1,5] binary
    repetition code attains the weight 5 that the formula would rule out).
    """
    n, k, d, q = params.n, params.k, params.d, params.q
    if k < 2:
        raise ParamRangeError("the Singleton criterion needs k >= 2")
    lo, hi = max(d, q * (n - k - d + 2) + 1), max_window_weight(d, q)
    return set(range(lo, (min(hi, n) if clamp else hi) + 1))


def griesmer_excluded(params: CodeParams, clamp: bool = True) -> set[int]:
    """Weights ruled out by the residual-Griesmer argument (possibly gappy).

    Scans d <= w < q*d/(q-1) (and w <= n when clamping) and keeps w
    whenever the forced length exceeds n.  Requires k >= 2.
    """
    n, k, d, q = params.n, params.k, params.d, params.q
    if k < 2:
        raise ParamRangeError("the Griesmer criterion needs k >= 2")
    hi = max_window_weight(d, q)
    return {
        w for w in range(d, (min(hi, n) if clamp else hi) + 1)
        if n < residual_griesmer_min_n(k, d, q, w)
    }


def compare_methods(params: CodeParams, clamp: bool = True) -> ExclusionReport:
    """Evaluate all three criteria side by side.

    Records the left-endpoint relation: whenever (q-1)*(n-k+2) < q*d and
    d respects the Singleton bound d <= n-k+1 (tuples violating it admit
    no code at all), the Singleton set must contain the Chen-Xie set, and
    that containment is checked here rather than assumed.
    """
    n, k, d, q = params.n, params.k, params.d, params.q
    cx = frozenset(chen_xie_excluded(params, clamp))
    si = frozenset(singleton_excluded(params, clamp)) if k >= 2 else frozenset()
    gr = frozenset(griesmer_excluded(params, clamp)) if k >= 2 else frozenset()
    notes = []
    if d > 1:
        notes.append(
            f"weights 1..{d - 1} are trivially absent (below the minimum distance)"
        )
    if k < 2:
        notes.append("residual-based criteria skipped: they need k >= 2")
    if n - k + 2 > max_window_weight(d, q):
        notes.append("left-endpoint condition void: chen-xie interval is empty")
    elif k >= 2 and d <= n - k + 1:
        if not cx <= si:
            raise AssertionError(
                f"singleton set fails to contain chen-xie set at {params}"
            )
        notes.append("left-endpoint condition holds: singleton contains chen-xie")
    else:
        notes.append(
            "left-endpoint comparison inapplicable: no code has these parameters"
        )
    if not clamp:
        for name, s in (("chen-xie", cx), ("singleton", si), ("griesmer", gr)):
            over = sorted(w for w in s if w > n)
            if over:
                notes.append(f"{name} raw interval exceeds n={n}: {over}")
    return ExclusionReport(
        params=params,
        chen_xie=cx,
        singleton=si,
        griesmer=gr,
        clamped=clamp,
        notes=tuple(notes),
    )


def audit_against_spectrum(
    code: LinearCode, limit: int | None = None
) -> list[AuditViolation]:
    """Check every criterion against the code's true weight distribution.

    Computes (n, k, d) from the code itself, derives the clamped excluded
    sets from `compare_methods`, and reports every weight that is both
    excluded and attained, in the order of `ExclusionReport.sets`.  Sound
    criteria return an empty list.
    """
    counts = spectrum(code, limit).counts
    sets = compare_methods(code_params(code, limit)).sets
    return [
        AuditViolation(criterion=name, weight=w, count=counts[w])
        for name, excluded in sets.items()
        for w in sorted(excluded)
        if counts[w]
    ]
