"""Excluded-weight criteria: which weights cannot appear in any [n,k,d]_q code.

Three methods are implemented:

* Chen-Xie interval: weights in [n-k+2, floor(q*d/(q-1)) - 1] vanish.
* Singleton criterion: weights w with d <= w < q*d/(q-1) and
  w > q*(n-k-d+2) vanish; a consecutive interval.
* Griesmer criterion: weights w with d <= w < q*d/(q-1) vanish whenever
  n < f(w) = residual_griesmer_min_n(k, d, q, w); in each residue class
  mod q^(k-1) a suffix of the window, so not always an interval.

No criterion excludes a weight once n >= C = d + k - 2 + ceil((d+1)/(q-1)).
Proof: with r = d - w + ceil(w/q), each of the k-1 ceilings in f = d +
ceil(w/q) + sum_{i=1}^{k-2} ceil(r/q^i) is below x + 1, and r < d + 1 -
w*(q-1)/q; the w terms cancel, and f < d + k - 1 + (d+1)/(q-1) gives f <= C.
The other two sets start past the window once n-k+2 >= d + (d+1)/(q-1).

Endpoint logic is exact-integer throughout.  Both upper endpoints use
the strict window w*(q-1) < q*d; the Chen-Xie endpoint additionally
requires w <= q*d/(q-1) - 1, which is one lower when (q-1) does not
divide q*d.  Clamped variants stop at n (every lower endpoint is >= 1);
raw variants keep the formula intervals even past n (some published
tables print those).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .bounds import ceil_div, max_window_weight, residual_griesmer_min_n
from .codes import CodeParams, LinearCode, code_params, spectrum
from .errors import ParamRangeError

# The criterion names, in the order of every report, table cell and audit.
CRITERIA = ("chen-xie", "singleton", "griesmer")
_EMPTY: frozenset[int] = frozenset()  # what a criterion excluding nothing returns


def _interval(lo: int, hi: int) -> frozenset[int]:
    return frozenset(range(lo, hi + 1)) if lo <= hi else _EMPTY


class ExclusionReport(NamedTuple):
    """Per-criterion excluded weights for one parameter tuple; `sets`,
    `union` and `notes` are derived from these five fields on access."""

    params: CodeParams
    chen_xie: frozenset[int]
    singleton: frozenset[int]
    griesmer: frozenset[int]
    clamped: bool

    @property
    def sets(self) -> dict[str, frozenset[int]]:
        """Method name to excluded set, in CRITERIA order."""
        return dict(zip(CRITERIA, (self.chen_xie, self.singleton, self.griesmer)))

    @property
    def union(self) -> frozenset[int]:
        return self.chen_xie | self.singleton | self.griesmer

    @property
    def notes(self) -> tuple[str, ...]:
        """The weights below d, then the left-endpoint relation in the first
        regime that applies: k < 2 (the residual-based criteria are skipped);
        void (the Chen-Xie interval is empty); d > n-k+1 (no code at all: the
        Singleton bound fails); else it holds, and the Singleton set contains
        the Chen-Xie set (`compare_methods` checks that, not this text).  Raw
        sets then name their weights past n."""
        n, k, d, q = self.params
        notes = []
        if d > 1:
            notes.append(
                f"weights 1..{d - 1} are trivially absent (below the minimum distance)"
            )
        if k < 2:
            notes.append("residual-based criteria skipped: they need k >= 2")
        elif n - k + 2 > max_window_weight(d, q):
            notes.append("left-endpoint condition void: chen-xie interval is empty")
        elif d > n - k + 1:
            notes.append(
                "left-endpoint comparison inapplicable: no code has these parameters"
            )
        else:
            notes.append("left-endpoint condition holds: singleton contains chen-xie")
        if not self.clamped:
            for name, s in self.sets.items():
                over = sorted(w for w in s if w > n)
                if over:
                    notes.append(f"{name} raw interval exceeds n={n}: {over}")
        return tuple(notes)

    def audit(self, counts: Sequence[int]) -> list[AuditViolation]:
        """Every excluded weight w that the spectrum attains, counts[w] = A_w > 0
        (as in `WeightSpectrum.counts`; raw weights past its end are not
        attained), in `sets` order, weights ascending.  Sound criteria give []."""
        return [
            AuditViolation(name, w, counts[w])
            for name, excluded in self.sets.items()
            for w in sorted(excluded)
            if w < len(counts) and counts[w]
        ]


class AuditViolation(NamedTuple):
    """A weight that a criterion excludes but the code actually attains."""

    criterion: str
    weight: int
    count: int

    def __str__(self) -> str:
        return f"{self.criterion} excludes attained weight {self.weight} (A_w = {self.count})"


def chen_xie_excluded(params: CodeParams, clamp: bool = True) -> frozenset[int]:
    """The Chen-Xie interval [n-k+2, floor(q*d/(q-1)) - 1] (may be empty)."""
    n, k, d, q = params
    lo, hi = n - k + 2, (q * d) // (q - 1) - 1
    return _interval(lo, min(hi, n) if clamp else hi)


def singleton_excluded(params: CodeParams, clamp: bool = True) -> frozenset[int]:
    """Weights ruled out by the residual-Singleton argument (an interval).

    Requires k >= 2: the argument passes to a residual code of dimension
    k-1, and for k = 1 the claim is simply false (a [5,1,5] binary
    repetition code attains the weight 5 that the formula would rule out).
    """
    n, k, d, q = params
    if k < 2:
        raise ParamRangeError("the Singleton criterion needs k >= 2")
    lo, hi = max(d, q * (n - k - d + 2) + 1), max_window_weight(d, q)
    return _interval(lo, min(hi, n) if clamp else hi)


def griesmer_excluded(params: CodeParams, clamp: bool = True) -> frozenset[int]:
    """Weights ruled out by the residual-Griesmer argument (possibly gappy).

    Keeps each w in the window d <= w < q*d/(q-1) (and w <= n when
    clamping) whose forced length f(w) = residual_griesmer_min_n(k, d, q, w)
    exceeds n.  Requires k >= 2.  With r = d - w + ceil(w/q), three lemmas:
    Cap: f(w) <= C = d + k - 2 + ceil((d+1)/(q-1)), so n >= C excludes none.
    Each of the k-1 ceilings in f is below x + 1, r < d + 1 - w*(q-1)/q,
    and the w terms cancel, so f < d + k - 1 + (d+1)/(q-1).
    Period: with P = q^(k-1), f(w + P) = f(w) + 1, because ceil(w/q)
    grows by q^(k-2) while the k-2 terms of the sum lose q^(k-2) - 1
    together.  So in the residue class of w0 the weights w0 + j*P are
    excluded exactly from j = n - f(w0) + 1 on, with gaps between the
    classes.  Any P wider than the window serves too (no class has a
    second weight), so for large k P stays near the window width.
    Step: f(w+1) = f(w) + 1 when q | w, since ceil(w/q) grows and r stays;
    else r drops by one and f loses one per 1 <= i <= k-2 with q^i | r - 1.
    So f is evaluated once, at w0 = d, and stepped to each next class.
    """
    n, k, d, q = params
    if k < 2:
        raise ParamRangeError("the Griesmer criterion needs k >= 2")
    if n >= d + k - 2 + ceil_div(d + 1, q - 1):
        return _EMPTY
    hi = max_window_weight(d, q)
    stop = (min(hi, n) if clamp else hi) + 1
    period = q ** min(k - 1, (stop - d).bit_length())
    f, rest, out = residual_griesmer_min_n(k, d, q, d), ceil_div(d, q), set()
    for w0 in range(d, min(d + period, stop)):
        out.update(range(w0 + max(0, n + 1 - f) * period, stop, period))
        if w0 % q == 0:
            f += 1
        else:
            rest, m = rest - 1, rest - 1
            i = 0 if m else k - 2  # r - 1 = 0 only past the window: every q^i divides it
            while i < k - 2 and m % q == 0:
                m, i = m // q, i + 1
            f -= i
    return frozenset(out) if out else _EMPTY


def compare_methods(params: CodeParams, clamp: bool = True) -> ExclusionReport:
    """Evaluate all three criteria side by side.

    Where a code can exist, k >= 2 and d <= n-k+1, the Singleton set must
    contain the Chen-Xie set (in the void regime the Chen-Xie set is empty);
    that is checked here, on every report, rather than assumed.
    """
    n, k, d, _ = params
    cx = chen_xie_excluded(params, clamp)
    si = singleton_excluded(params, clamp) if k >= 2 else _EMPTY
    gr = griesmer_excluded(params, clamp) if k >= 2 else _EMPTY
    if k >= 2 and d <= n - k + 1 and not cx <= si:
        raise AssertionError(f"singleton set fails to contain chen-xie set at {params}")
    return ExclusionReport(params, cx, si, gr, clamp)


def audit_against_spectrum(code: LinearCode) -> list[AuditViolation]:
    """`ExclusionReport.audit` of the clamped report for the code's own
    (n, k, d) against its true weight distribution."""
    return compare_methods(code_params(code)).audit(spectrum(code).counts)
