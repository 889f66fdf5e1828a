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


def test_bound_verdict_is_an_immutable_hashable_record():
    v = BoundVerdict("b", 3, "<=", 4)
    with pytest.raises(AttributeError):
        v.lhs = 5
    assert list(v._asdict().items()) == [
        ("name", "b"), ("lhs", 3), ("relation", "<="), ("rhs", 4)
    ]
    twin = BoundVerdict("b", 3, "<=", 4)
    assert v == twin and hash(v) == hash(twin) and len({v, twin}) == 1


def mds_weight_ok(q: int, d: int, w: int) -> bool:
    """Oracle: whether a weight w is admissible for an MDS code, w <= q.

    Applies only under the MDS context with k >= 2, d <= w and w in the
    window; a False return then means no such MDS code can contain a
    codeword of weight w.  ([n,1,n] repetition codes are MDS but escape
    the restriction.)
    """
    if w < d or w > max_window_weight(d, q):
        raise WindowViolatedError(f"need d <= w < q*d/(q-1); got d={d}, w={w}, q={q}")
    return w <= q


@given(qs, st.integers(min_value=2, max_value=8), ds, ws)
def test_mds_weight_verdict_equals_mds_weight_ok(q, k, d, w):
    n = d + k - 1  # MDS: d = n - k + 1
    verdicts = {v.name: v for v in parameter_verdicts(n, k, d, q, w)}
    applies = d <= w <= max_window_weight(d, q)
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
    assert 11 <= max_window_weight(6, 2) < 12  # strict at the boundary 2*6/1
    assert 263 <= max_window_weight(132, 2) < 264


@given(ds, qs, ws)
def test_weight_window_matches_fraction_oracle(d, q, w):
    top = max_window_weight(d, q)
    assert Fraction(top) < Fraction(q * d, q - 1) <= top + 1
    assert (w <= top) == (Fraction(w) < Fraction(q * d, q - 1))


@given(ds, qs)
def test_max_window_weight_is_the_window_boundary(d, q):
    top = max_window_weight(d, q)
    assert Fraction(top) < Fraction(q * d, q - 1) <= top + 1


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


griesmer_qs = st.sampled_from([2, 3, 4, 5, 7, 8, 9])
griesmer_ks = st.integers(min_value=2, max_value=6)
griesmer_ds = st.integers(min_value=1, max_value=299)


@given(griesmer_qs, griesmer_ks, griesmer_ds)
def test_residual_griesmer_is_griesmer_of_the_residual_code(q, k, d):
    # The residual of a weight-w codeword is an [n - w, k - 1, >= d - w + ceil(w/q)]
    # code, and the floor is w plus that code's Griesmer length.
    for w in range(1, max_window_weight(d, q) + 1):
        residual_n = griesmer_min_n(k - 1, d - w + ceil_div(w, q), q)
        assert residual_griesmer_min_n(k, d, q, w) == w + residual_n


@given(griesmer_qs, griesmer_ks, griesmer_ds)
def test_residual_griesmer_has_period_q_to_the_k_minus_1(q, k, d):
    # Shifting w by q^(k-1) raises the floor by exactly one.
    step, top = q ** (k - 1), max_window_weight(d, q)
    for w in range(1, top - step + 1):
        assert residual_griesmer_min_n(k, d, q, w + step) == (
            residual_griesmer_min_n(k, d, q, w) + 1
        )


@given(griesmer_qs, griesmer_ks, griesmer_ds)
def test_residual_griesmer_steps_by_one_weight(q, k, d):
    # With r = d - w + ceil(w/q): w -> w+1 raises the floor by one when q | w
    # (r stays), else lowers it by #{1 <= i <= k-2 : q^i | r - 1} (r drops by one).
    for w in range(1, max_window_weight(d, q)):
        r = d - w + ceil_div(w, q)
        step = 1 if w % q == 0 else -sum((r - 1) % q**i == 0 for i in range(1, k - 1))
        assert residual_griesmer_min_n(k, d, q, w + 1) == (
            residual_griesmer_min_n(k, d, q, w) + step
        )


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


@pytest.mark.parametrize("call, message", [
    (lambda: singleton_max_d(0, 1), "need 1 <= k <= n, got n=0 k=1"),
    (lambda: griesmer_min_n(0, 1, 2), "bad parameters k=0 d=1 q=2"),
    (lambda: max_window_weight(0, 2), "bad parameters d=0 q=2"),
    (lambda: residual_singleton_max_d(5, 2, 2, 0), "bad parameters n=5 k=2 q=2 w=0"),
    (lambda: residual_griesmer_min_n(1, 3, 2, 3), "bad parameters k=1 d=3 q=2 w=3"),
    (lambda: global_weight_max(3, 4, 2), "bad parameters n=3 d=4 q=2"),
    (lambda: distance_ratio_holds(5, 0, 1), "bad parameters n=5 d=0 q=1"),
    (lambda: parameter_verdicts(5, 6, 2, 2), "bad parameters n=5 k=6 d=2 q=2"),
    (lambda: parameter_verdicts(5, 2, 2, 2, 0), "bad weight w=0"),
], ids=["singleton_max_d", "griesmer_min_n", "max_window_weight",
        "residual_singleton_max_d", "residual_griesmer_min_n", "global_weight_max",
        "distance_ratio_holds", "parameter_verdicts", "parameter_verdicts_weight"])
def test_every_guard_names_the_bad_parameters(call, message):
    with pytest.raises(ParamRangeError) as caught:
        call()
    assert str(caught.value) == message


def classical_oracle(n, k, d, q):
    """The verdicts that no weight changes, as (name, lhs, relation, rhs),
    written from the formulas: the Singleton cap n - k + 1, the Griesmer sum
    of ceil(d/q^i) over i < k, and for k >= 2 the ratio (q+1)d <= qn."""
    out = [("singleton", d, "<=", n - k + 1),
           ("griesmer", n, ">=", sum(-(-d // q**i) for i in range(k)))]
    if k >= 2:
        out.append(("distance-ratio", (q + 1) * d, "<=", q * n))
    return out


CLASSICAL = {"singleton", "griesmer", "distance-ratio"}


@st.composite
def parameter_tuples(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    k = draw(st.integers(min_value=1, max_value=min(n, 12)))
    d = draw(st.integers(min_value=1, max_value=n))
    return n, k, d, draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 27]))


@given(parameter_tuples(), st.lists(st.integers(min_value=1, max_value=600), max_size=4))
def test_the_verdicts_without_w_match_their_formulas_at_every_weight(params, weights):
    # The first call fills the cache; the later ones, at weights and again
    # without one, read the same tuple back from it.
    expected = classical_oracle(*params)
    for w in (None, *weights, None):
        verdicts = parameter_verdicts(*params, w)
        assert [tuple(v) for v in verdicts[:len(expected)]] == expected
        assert not CLASSICAL & {v.name for v in verdicts[len(expected):]}


def test_each_call_returns_a_fresh_list():
    expected = [tuple(v) for v in parameter_verdicts(15, 5, 7, 2)]
    parameter_verdicts(15, 5, 7, 2).append(BoundVerdict("extra", 0, "<=", 0))
    assert [tuple(v) for v in parameter_verdicts(15, 5, 7, 2)] == expected
    parameter_verdicts(15, 5, 7, 2, 7).clear()
    assert [tuple(v) for v in parameter_verdicts(15, 5, 7, 2)] == expected
    assert [tuple(v) for v in parameter_verdicts(15, 5, 7, 2, 7)[:3]] == expected


def test_tuples_that_differ_in_one_parameter_get_their_own_verdicts():
    # One after another, so a cache key that drops a parameter would hand the
    # first tuple's verdicts to the next.
    tuples = [(15, 5, 7, 2), (15, 5, 7, 3), (16, 5, 7, 3), (16, 4, 7, 3), (16, 4, 6, 3)]
    for params in tuples + tuples[::-1]:
        assert [tuple(v) for v in parameter_verdicts(*params)] == classical_oracle(*params)
    assert len({tuple(map(tuple, parameter_verdicts(*p))) for p in tuples}) == len(tuples)


def test_the_cache_keeps_equal_arguments_of_other_types_apart():
    # 7 == 7.0 == ... and 1 == True, with equal hashes: an untyped key would
    # return the verdicts of whichever came first.
    assert type(parameter_verdicts(15, 5, 7, 2)[1].lhs) is int
    assert type(parameter_verdicts(15.0, 5, 7, 2)[1].lhs) is float
    assert type(parameter_verdicts(15, 5, 7, 2)[1].lhs) is int
    assert type(parameter_verdicts(4, 1, 1, 2)[0].lhs) is int
    assert type(parameter_verdicts(4, 1, True, 2)[0].lhs) is bool
    assert repr(parameter_verdicts(4, 1, 1, 2)[0]) == (
        "BoundVerdict(name='singleton', lhs=1, relation='<=', rhs=4)"
    )


def test_the_cache_neither_stores_errors_nor_skips_the_guard():
    parameter_verdicts(5, 2, 2, 2)
    for _ in range(2):
        for call, message in [
            (lambda: parameter_verdicts(5, 6, 2, 2), "bad parameters n=5 k=6 d=2 q=2"),
            (lambda: parameter_verdicts(5, 2, 2, 1), "bad parameters n=5 k=2 d=2 q=1"),
            (lambda: parameter_verdicts(5, 2, 6, 2, 3), "bad parameters n=5 k=2 d=6 q=2"),
            (lambda: parameter_verdicts(5, 2, 2, 2, 0), "bad weight w=0"),
        ]:
            with pytest.raises(ParamRangeError) as caught:
                call()
            assert str(caught.value) == message


def test_the_verdicts_without_w_are_shared_between_calls():
    lists = [parameter_verdicts(15, 5, 7, 2, w) for w in (None, 7, 12, None)]
    first = lists[0]
    assert len(first) == 3
    for other in lists[1:]:
        assert other is not first
        assert all(a is b for a, b in zip(first, other[:3]))
