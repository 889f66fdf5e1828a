"""Classical and weight-aware bounds for [n, k, d]_q linear codes.

Every comparison is exact integer arithmetic; the non-integer threshold
q*d/(q-1) is never materialized (window membership is decided by the
cross-multiplied test w*(q-1) < q*d).  These functions are arithmetic
contracts on parameter tuples; nothing here assumes a code exists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import ParamRangeError, WindowViolatedError

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for positive b."""
    return -(-a // b)


def ceil_div_sum(a: int, q: int, terms: int) -> int:
    """sum of ceil(a/q^i) for 0 <= i < terms, for a >= 1 and q >= 2.

    Once q^i >= a every remaining term is 1, so at most about log_q(a)
    terms are divided out and the rest are counted.
    """
    total, power = 0, 1
    for i in range(terms):
        if power >= a:
            return total + terms - i
        total += ceil_div(a, power)
        power *= q
    return total


@dataclass(frozen=True)
class BoundVerdict:
    """One evaluated bound, the comparison `lhs relation rhs`.

    `holds` is that comparison and `tight` is lhs == rhs, both derived
    from the stored fields.  `relation` is one of "<=", ">=", "<".
    """

    name: str
    lhs: int
    relation: str
    rhs: int

    @property
    def holds(self) -> bool:
        return _RELATIONS[self.relation](self.lhs, self.rhs)

    @property
    def tight(self) -> bool:
        return self.lhs == self.rhs


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamRangeError(msg)


def singleton_max_d(n: int, k: int) -> int:
    """Largest distance allowed by the Singleton bound: n - k + 1."""
    _require(1 <= k <= n, f"need 1 <= k <= n, got n={n} k={k}")
    return n - k + 1


def griesmer_min_n(k: int, d: int, q: int) -> int:
    """Smallest length allowed by the Griesmer bound: sum of ceil(d/q^i)."""
    _require(k >= 1 and d >= 1 and q >= 2, f"bad parameters k={k} d={d} q={q}")
    return ceil_div_sum(d, q, k)


def weight_in_window(d: int, q: int, w: int) -> bool:
    """Whether w < q*d/(q-1), decided as w*(q-1) < q*d."""
    _require(d >= 1 and q >= 2 and w >= 1, f"bad parameters d={d} q={q} w={w}")
    return w * (q - 1) < q * d


def max_window_weight(d: int, q: int) -> int:
    """Largest integer weight inside the window, i.e. strictly below q*d/(q-1)."""
    _require(d >= 1 and q >= 2, f"bad parameters d={d} q={q}")
    return (q * d - 1) // (q - 1)


def residual_singleton_max_d(n: int, k: int, q: int, w: int) -> int:
    """Distance cap n - k - ceil(w/q) + 2 forced by a weight-w codeword.

    Contract: if an [n, k, d]_q code with k >= 2 has a nonzero codeword
    of weight w with weight_in_window(d, q, w), then d is at most this
    value.  (k = 1 repetition codes escape the cap: the underlying
    residual argument needs a (k-1)-dimensional code.)
    """
    _require(1 <= k <= n and 1 <= w and q >= 2, f"bad parameters n={n} k={k} q={q} w={w}")
    return n - k - ceil_div(w, q) + 2


def residual_griesmer_min_n(k: int, d: int, q: int, w: int) -> int:
    """Length floor forced by a weight-w codeword in the window.

    Returns d + ceil(w/q) + sum_{i=1}^{k-2} ceil((d - w + ceil(w/q)) / q^i);
    the sum is empty for k = 2.  Requires k >= 2 and w in the window
    (which guarantees the numerator d - w + ceil(w/q) is >= 1).
    """
    _require(k >= 2 and d >= 1 and q >= 2 and w >= 1, f"bad parameters k={k} d={d} q={q} w={w}")
    if not weight_in_window(d, q, w):
        raise WindowViolatedError(f"w={w} is not below q*d/(q-1) = {q}*{d}/{q - 1}")
    lead = ceil_div(w, q)
    rest = d - w + lead
    return d + lead + ceil_div_sum(rest, q, k - 1) - rest


def global_weight_max(n: int, d: int, q: int) -> int:
    """Weight cap q*(n - d) satisfied by every nonzero codeword when k > 1."""
    _require(1 <= d <= n and q >= 2, f"bad parameters n={n} d={d} q={q}")
    return q * (n - d)


def distance_ratio_holds(n: int, d: int, q: int) -> BoundVerdict:
    """The ratio bound (q+1)*d <= q*n, equivalent to d <= q*n/(q+1)."""
    _require(1 <= d <= n and q >= 2, f"bad parameters n={n} d={d} q={q}")
    return BoundVerdict("distance-ratio", (q + 1) * d, "<=", q * n)


def parameter_verdicts(
    n: int, k: int, d: int, q: int, w: int | None = None
) -> list[BoundVerdict]:
    """Evaluate every applicable bound for (n, k, d, q) and optionally w.

    The ratio bound, the weight cap and all residual-based bounds hold
    only for k >= 2 and are omitted for one-dimensional parameters.
    """
    _require(1 <= k <= n and 1 <= d <= n and q >= 2, f"bad parameters n={n} k={k} d={d} q={q}")
    d_max = singleton_max_d(n, k)
    out = [
        BoundVerdict("singleton", d, "<=", d_max),
        BoundVerdict("griesmer", n, ">=", griesmer_min_n(k, d, q)),
    ]
    if k >= 2:
        out.append(distance_ratio_holds(n, d, q))
    if w is None:
        return out
    _require(w >= 1, f"bad weight w={w}")
    window = BoundVerdict("weight-window", w * (q - 1), "<", q * d)
    out.append(window)
    if k < 2:
        return out
    out.append(BoundVerdict("global-weight", w, "<=", global_weight_max(n, d, q)))
    if window.holds:
        out.append(BoundVerdict("residual-singleton", d, "<=",
                                residual_singleton_max_d(n, k, q, w)))
        out.append(BoundVerdict("residual-griesmer", n, ">=",
                                residual_griesmer_min_n(k, d, q, w)))
        # MDS weight rule: with d = n-k+1 and k >= 2, an in-window w >= d needs w <= q.
        if d == d_max and d <= w:
            out.append(BoundVerdict("mds-weight", w, "<=", q))
    return out
