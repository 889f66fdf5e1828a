import time
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weightbounds.bounds import (
    BoundVerdict,
    ceil_div,
    ceil_div_sum,
    distance_ratio_holds,
    global_weight_max,
    griesmer_min_n,
    max_window_weight,
    parameter_verdicts,
    residual_griesmer_min_n,
    residual_singleton_max_d,
    singleton_max_d,
    weight_in_window,
)
from weightbounds.errors import ParamRangeError, WindowViolatedError

qs = st.integers(min_value=2, max_value=9)
ds = st.integers(min_value=1, max_value=300)
ws = st.integers(min_value=1, max_value=600)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_ceil_div_matches_fraction_oracle(a, b):
    assert ceil_div(a, b) == ceil(Fraction(a, b))


@given(
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=2, max_value=70000),
    st.integers(min_value=0, max_value=120),
)
def test_ceil_div_sum_matches_naive_sum(a, q, terms):
    assert ceil_div_sum(a, q, terms) == sum(ceil_div(a, q**i) for i in range(terms))


def test_griesmer_sums_are_linear_in_the_terms_they_divide():
    start = time.perf_counter()
    assert griesmer_min_n(80000, 1, 2) == 80000
    verdicts = parameter_verdicts(80000, 80000, 1, 2, 1)
    assert all(v.holds for v in verdicts[:2])
    # d + ceil(w/q) + ceil(100/2^i) for 1 <= i <= 19998: six terms above 1.
    assert residual_griesmer_min_n(20000, 200, 2, 200) == (
        200 + 100 + (50 + 25 + 13 + 7 + 4 + 2) + (19998 - 6)
    )
    assert time.perf_counter() - start < 1.0


def test_bound_verdict_derives_holds_and_tight():
    assert BoundVerdict("b", 3, "<=", 3).holds and BoundVerdict("b", 3, "<=", 3).tight
    assert BoundVerdict("b", 4, ">=", 3).holds and not BoundVerdict("b", 4, ">=", 3).tight
    assert not BoundVerdict("b", 2, ">=", 3).holds
    assert not BoundVerdict("b", 3, "<", 3).holds and BoundVerdict("b", 3, "<", 3).tight
    assert BoundVerdict("b", 2, "<", 3).holds


def mds_weight_ok(q: int, d: int, w: int) -> bool:
    """Oracle: whether a weight w is admissible for an MDS code, w <= q.

    Applies only under the MDS context with k >= 2, d <= w and w in the
    window; a False return then means no such MDS code can contain a
    codeword of weight w.  ([n,1,n] repetition codes are MDS but escape
    the restriction.)
    """
    if w < d or not weight_in_window(d, q, w):
        raise WindowViolatedError(f"need d <= w < q*d/(q-1); got d={d}, w={w}, q={q}")
    return w <= q


@given(qs, st.integers(min_value=2, max_value=8), ds, ws)
def test_mds_weight_verdict_equals_mds_weight_ok(q, k, d, w):
    n = d + k - 1  # MDS: d = n - k + 1
    verdicts = {v.name: v for v in parameter_verdicts(n, k, d, q, w)}
    applies = d <= w and weight_in_window(d, q, w)
    assert ("mds-weight" in verdicts) == applies
    if applies:
        assert verdicts["mds-weight"].holds == mds_weight_ok(q, d, w)


def test_singleton_max_d():
    assert singleton_max_d(11, 3) == 9
    assert singleton_max_d(5, 2) == 4  # the [q+1, 2, q] family at q = 4
    assert singleton_max_d(7, 7) == 1
    with pytest.raises(ParamRangeError):
        singleton_max_d(3, 4)


def test_griesmer_min_n():
    assert griesmer_min_n(1, 9, 3) == 9
    assert griesmer_min_n(5, 7, 2) == 7 + 4 + 2 + 1 + 1 == 15
    assert griesmer_min_n(3, 6, 2) == 6 + 3 + 2 == 11
    with pytest.raises(ParamRangeError):
        griesmer_min_n(0, 5, 2)


def test_weight_window_examples():
    assert weight_in_window(6, 2, 11)
    assert not weight_in_window(6, 2, 12)  # strict at the boundary
    assert weight_in_window(132, 2, 263)
    assert not weight_in_window(132, 2, 264)


@given(ds, qs, ws)
def test_weight_window_matches_fraction_oracle(d, q, w):
    assert weight_in_window(d, q, w) == (Fraction(w) < Fraction(q * d, q - 1))


@given(ds, qs)
def test_max_window_weight_is_the_window_boundary(d, q):
    top = max_window_weight(d, q)
    assert weight_in_window(d, q, top)
    assert not weight_in_window(d, q, top + 1)


def test_residual_singleton_examples():
    assert residual_singleton_max_d(13, 10, 3, 4) == 3
    assert residual_singleton_max_d(27, 8, 3, 20) == 14
    assert residual_singleton_max_d(15, 10, 2, 6) == 4
    assert residual_singleton_max_d(15, 5, 2, 7) == 8
    assert residual_singleton_max_d(31, 5, 2, 16) == 20


def test_residual_griesmer_examples():
    assert residual_griesmer_min_n(5, 7, 2, 7) == 7 + 4 + (2 + 1 + 1) == 15
    assert residual_griesmer_min_n(5, 16, 2, 16) == 16 + 8 + (4 + 2 + 1) == 31
    for d, q, w in [(6, 2, 7), (9, 3, 10), (8, 4, 9)]:
        assert residual_griesmer_min_n(2, d, q, w) == d + ceil_div(w, q)


def test_residual_griesmer_window_enforcement():
    with pytest.raises(WindowViolatedError):
        residual_griesmer_min_n(3, 6, 2, 12)
    with pytest.raises(ParamRangeError):
        residual_griesmer_min_n(1, 6, 2, 5)


def test_global_weight_max():
    assert global_weight_max(16, 8, 2) == 16
    assert global_weight_max(9, 9, 3) == 0
    assert global_weight_max(11, 6, 2) == 10


def test_distance_ratio():
    for q in (2, 3, 4, 5):
        verdict = distance_ratio_holds(q + 1, q, q)
        assert verdict.holds and verdict.tight
    verdict = distance_ratio_holds(16, 8, 2)
    assert verdict.holds and not verdict.tight
    verdict = distance_ratio_holds(3, 3, 2)
    assert not verdict.holds  # no binary [3, k>1, 3] code exists
    assert (verdict.lhs, verdict.rhs) == (9, 6)


def test_mds_weight_ok():
    def mds_verdict(q, d, w, k=2):
        verdicts = {v.name: v for v in parameter_verdicts(d + k - 1, k, d, q, w)}
        return verdicts.get("mds-weight")

    assert mds_verdict(4, 4, 4).holds
    assert not mds_verdict(4, 4, 5).holds  # 5*3 < 16 so in window, but 5 > 4
    assert (mds_verdict(4, 4, 5).lhs, mds_verdict(4, 4, 5).rhs) == (5, 4)
    assert mds_verdict(2, 2, 4) is None  # 4*1 >= 2*2: outside the window
    assert mds_verdict(3, 5, 4) is None  # w < d
    assert mds_verdict(4, 4, 4, k=1) is None  # repetition codes escape the rule


GRID = [
    (q, d, k)
    for q in (2, 3, 4)
    for d in range(1, 41)
    for k in range(2, 9)
]


def test_consistency_at_w_equals_d_over_grid():
    # Taking w = d must telescope back to the plain Griesmer sum.
    for q, d, k in GRID:
        assert residual_griesmer_min_n(k, d, q, d) == griesmer_min_n(k, d, q)


def test_refinement_over_grid():
    # The length floor dominates a crude count, and implies the distance cap.
    for q, d, k in GRID:
        for w in range(1, max_window_weight(d, q) + 1):
            floor_n = residual_griesmer_min_n(k, d, q, w)
            lead = ceil_div(w, q)
            assert floor_n >= w + (d - w + lead) + (k - 2)
            # residual-Griesmer implies residual-Singleton:
            # any n >= floor_n satisfies d <= residual_singleton_max_d(n, ...).
            assert d <= residual_singleton_max_d(floor_n, k, q, w)


@given(qs, ds, st.integers(min_value=2, max_value=10))
def test_residual_griesmer_equals_griesmer_at_minimum_weight(q, d, k):
    assert residual_griesmer_min_n(k, d, q, d) == griesmer_min_n(k, d, q)


def test_parameter_verdicts_shape():
    names = [v.name for v in parameter_verdicts(15, 5, 7, 2, 7)]
    assert names == [
        "singleton",
        "griesmer",
        "distance-ratio",
        "weight-window",
        "global-weight",
        "residual-singleton",
        "residual-griesmer",
    ]
    assert all(v.holds for v in parameter_verdicts(15, 5, 7, 2, 7))
    # MDS parameters bring in the weight restriction.
    verdicts = {v.name: v for v in parameter_verdicts(5, 2, 4, 4, 4)}
    assert verdicts["mds-weight"].holds
    verdicts = {v.name: v for v in parameter_verdicts(5, 2, 4, 4, 5)}
    assert not verdicts["mds-weight"].holds
    # Out-of-window weights only get the window and global verdicts.
    names = [v.name for v in parameter_verdicts(11, 3, 6, 2, 12)]
    assert "residual-singleton" not in names
    assert "weight-window" in names and "global-weight" in names
    # k = 1 parameters get only the bounds that actually apply there:
    # a [5,1,5] repetition code is a legal code violating the others.
    names = [v.name for v in parameter_verdicts(5, 1, 5, 2, 5)]
    assert names == ["singleton", "griesmer", "weight-window"]
    assert all(v.holds for v in parameter_verdicts(5, 1, 5, 2, 5))
