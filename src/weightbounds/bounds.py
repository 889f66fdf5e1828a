"""Classical and weight-aware bounds for [n, k, d]_q linear codes.

Every comparison is exact integer arithmetic; the non-integer threshold
q*d/(q-1) is never materialized (a weight w is in the window when
w <= max_window_weight(d, q), the integer form of w*(q-1) < q*d).  These
functions are arithmetic contracts on parameter tuples; nothing here
assumes a code exists.  A public function checks its arguments, then returns
its rule's unchecked core, which `parameter_verdicts` calls directly.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

from .errors import ParamRangeError, WindowViolatedError

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}
_new = tuple.__new__  # builds a BoundVerdict from its fields, skipping NamedTuple's __new__


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


class BoundVerdict(NamedTuple):
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


def _singleton_max_d(n: int, k: int) -> int:
    return n - k + 1


def singleton_max_d(n: int, k: int) -> int:
    """Largest distance allowed by the Singleton bound: n - k + 1."""
    if not (1 <= k <= n):
        raise ParamRangeError(f"need 1 <= k <= n, got n={n} k={k}")
    return _singleton_max_d(n, k)


def griesmer_min_n(k: int, d: int, q: int) -> int:
    """Smallest length allowed by the Griesmer bound: sum of ceil(d/q^i)."""
    if not (k >= 1 and d >= 1 and q >= 2):
        raise ParamRangeError(f"bad parameters k={k} d={d} q={q}")
    return ceil_div_sum(d, q, k)


def _max_window_weight(d: int, q: int) -> int:
    return (q * d - 1) // (q - 1)


def max_window_weight(d: int, q: int) -> int:
    """Largest integer weight inside the window, i.e. strictly below q*d/(q-1)."""
    if not (d >= 1 and q >= 2):
        raise ParamRangeError(f"bad parameters d={d} q={q}")
    return _max_window_weight(d, q)


def _residual_singleton_max_d(n: int, k: int, q: int, w: int) -> int:
    return n - k - ceil_div(w, q) + 2


def residual_singleton_max_d(n: int, k: int, q: int, w: int) -> int:
    """Distance cap n - k - ceil(w/q) + 2 forced by a weight-w codeword.

    Contract: if an [n, k, d]_q code with k >= 2 has a nonzero codeword
    of weight w <= max_window_weight(d, q), then d is at most this
    value.  (k = 1 repetition codes escape the cap: the underlying
    residual argument needs a (k-1)-dimensional code.)
    """
    if not (1 <= k <= n and 1 <= w and q >= 2):
        raise ParamRangeError(f"bad parameters n={n} k={k} q={q} w={w}")
    return _residual_singleton_max_d(n, k, q, w)


def _residual_griesmer_min_n(k: int, d: int, q: int, w: int) -> int:
    lead = ceil_div(w, q)
    rest = d - w + lead
    return d + lead + ceil_div_sum(rest, q, k - 1) - rest


def residual_griesmer_min_n(k: int, d: int, q: int, w: int) -> int:
    """Length floor forced by a weight-w codeword in the window.

    Returns d + ceil(w/q) + sum_{i=1}^{k-2} ceil((d - w + ceil(w/q)) / q^i);
    the sum is empty for k = 2.  Requires k >= 2 and w in the window
    (which guarantees the numerator d - w + ceil(w/q) is >= 1).
    """
    if not (k >= 2 and d >= 1 and q >= 2 and w >= 1):
        raise ParamRangeError(f"bad parameters k={k} d={d} q={q} w={w}")
    if w > _max_window_weight(d, q):
        raise WindowViolatedError(f"w={w} is not below q*d/(q-1) = {q}*{d}/{q - 1}")
    return _residual_griesmer_min_n(k, d, q, w)


def _global_weight_max(n: int, d: int, q: int) -> int:
    return q * (n - d)


def global_weight_max(n: int, d: int, q: int) -> int:
    """Weight cap q*(n - d) satisfied by every nonzero codeword when k > 1."""
    if not (1 <= d <= n and q >= 2):
        raise ParamRangeError(f"bad parameters n={n} d={d} q={q}")
    return _global_weight_max(n, d, q)


def _distance_ratio_holds(n: int, d: int, q: int) -> BoundVerdict:
    return _new(BoundVerdict, ("distance-ratio", (q + 1) * d, "<=", q * n))


def distance_ratio_holds(n: int, d: int, q: int) -> BoundVerdict:
    """The ratio bound (q+1)*d <= q*n, equivalent to d <= q*n/(q+1)."""
    if not (1 <= d <= n and q >= 2):
        raise ParamRangeError(f"bad parameters n={n} d={d} q={q}")
    return _distance_ratio_holds(n, d, q)


@functools.lru_cache(maxsize=256, typed=True)
def _classical_verdicts(n: int, k: int, d: int, q: int) -> tuple[BoundVerdict, ...]:
    """The verdicts of (n, k, d, q) that no weight changes, built once per
    tuple (an LRU; typed, so 7 and 7.0 or 1 and True get their own entries)."""
    if not (1 <= k <= n and 1 <= d <= n and q >= 2):
        raise ParamRangeError(f"bad parameters n={n} k={k} d={d} q={q}")
    out = (_new(BoundVerdict, ("singleton", d, "<=", _singleton_max_d(n, k))),
           _new(BoundVerdict, ("griesmer", n, ">=", ceil_div_sum(d, q, k))))
    return out if k < 2 else (*out, _distance_ratio_holds(n, d, q))


def parameter_verdicts(
    n: int, k: int, d: int, q: int, w: int | None = None
) -> list[BoundVerdict]:
    """Evaluate every applicable bound for (n, k, d, q) and optionally w.

    The ratio bound, the weight cap and all residual-based bounds hold
    only for k >= 2 and are omitted for one-dimensional parameters.
    Each call returns a fresh list; the verdicts that do not depend on w
    (singleton, griesmer, distance-ratio) are immutable records shared by
    every call with the same (n, k, d, q).
    """
    out = list(_classical_verdicts(n, k, d, q))
    if w is None:
        return out
    if w < 1:
        raise ParamRangeError(f"bad weight w={w}")
    lhs, rhs = w * (q - 1), q * d
    out.append(_new(BoundVerdict, ("weight-window", lhs, "<", rhs)))
    if k < 2:
        return out
    out.append(_new(BoundVerdict, ("global-weight", w, "<=", _global_weight_max(n, d, q))))
    if lhs < rhs:  # w is in the window
        out.append(_new(BoundVerdict, ("residual-singleton", d, "<=",
                                       _residual_singleton_max_d(n, k, q, w))))
        out.append(_new(BoundVerdict, ("residual-griesmer", n, ">=",
                                       _residual_griesmer_min_n(k, d, q, w))))
        # MDS weight rule: with d = n-k+1 and k >= 2, an in-window w >= d needs w <= q.
        if d == _singleton_max_d(n, k) and d <= w:
            out.append(_new(BoundVerdict, ("mds-weight", w, "<=", q)))
    return out
