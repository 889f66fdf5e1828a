import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weightbounds import exclusion
from weightbounds.cli import render_audit
from weightbounds.codes import CodeParams, LinearCode, code_params, spectrum
from weightbounds.corpus import example_11_3_6, parse_weights, reed_muller_1
from weightbounds.errors import ParamRangeError
from weightbounds.exclusion import (
    ExclusionReport,
    audit_against_spectrum,
    chen_xie_excluded,
    chen_xie_upper,
    compare_methods,
    griesmer_excluded,
    singleton_excluded,
)
from weightbounds.gf import make_field
from weightbounds.selfcheck import check_exclusion_soundness


def chen_xie_excluded_by_slack(params: CodeParams, clamp: bool = True) -> set[int]:
    """Chen-Xie set built from the slack-parameter form (cross-check path).

    Scans every slack v >= 0 with (n-k+2+v)*(q-1) < q*d and unions the
    integer weights in [q*d/(q-1) - v - 1, q*d/(q-1) - 1].  Must agree
    with the closed-form interval; kept to guard endpoint off-by-ones.
    """
    n, k, d, q = params.n, params.k, params.d, params.q
    hi = chen_xie_upper(d, q)
    out: set[int] = set()
    v = 0
    while (n - k + 2 + v) * (q - 1) < q * d:
        # smallest integer >= q*d/(q-1) - v - 1
        lo = -((-(q * d)) // (q - 1)) - v - 1
        out.update(range(lo, hi + 1))
        v += 1
    return {w for w in out if 1 <= w <= n} if clamp else out


def params_strategy():
    return st.builds(
        lambda q, k, extra_n, d: CodeParams(
            n=k + extra_n, k=k, d=min(d, k + extra_n), q=q
        ),
        st.sampled_from([2, 3, 4, 5]),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=60),
    )


def test_chen_xie_examples():
    assert chen_xie_excluded(CodeParams(15, 5, 7, 2)) == {12, 13}
    assert chen_xie_excluded(CodeParams(27, 4, 18, 3)) == {25, 26}
    raw = chen_xie_excluded(CodeParams(93, 5, 48, 2), clamp=False)
    assert raw == set(range(90, 96))
    assert chen_xie_excluded(CodeParams(93, 5, 48, 2), clamp=True) == set(range(90, 94))


def test_chen_xie_odd_ternary_upper_endpoint():
    # 3*81/2 = 121.5: the largest admissible integer is 120, not 121.
    assert max(chen_xie_excluded(CodeParams(121, 5, 81, 3))) == 120


def test_singleton_examples():
    assert singleton_excluded(CodeParams(15, 5, 7, 2)) == {11, 12, 13}
    assert singleton_excluded(CodeParams(11, 3, 6, 2)) == {9, 10, 11}
    assert singleton_excluded(CodeParams(27, 4, 18, 3)) == set(range(22, 27))


def test_griesmer_examples():
    assert griesmer_excluded(CodeParams(11, 3, 6, 2)) == {7, 9, 10, 11}
    printed = parse_weights(
        "133-135, 167, 183, 191, 195, 197-199, 215, 223, 227, 229-231, 239, "
        "243, 245-247, 251, 253-255, 257-263"
    )
    assert len(printed) == 32
    assert griesmer_excluded(CodeParams(267, 8, 132, 2)) == printed


def test_griesmer_never_excludes_d_at_admissible_length():
    from weightbounds.bounds import griesmer_min_n

    for q in (2, 3, 4):
        for d in range(1, 30):
            for k in range(2, 7):
                n = griesmer_min_n(k, d, q)
                if n < max(d, k):
                    continue
                assert d not in griesmer_excluded(CodeParams(n, k, d, q))


def test_griesmer_set_need_not_be_an_interval():
    weights = griesmer_excluded(CodeParams(11, 3, 6, 2))
    assert 7 in weights and 9 in weights and 8 not in weights


def test_griesmer_requires_k_at_least_2():
    with pytest.raises(ParamRangeError):
        griesmer_excluded(CodeParams(9, 1, 3, 2))


@given(params_strategy())
def test_clamping_is_intersection_with_coordinate_range(params):
    n = params.n
    assert chen_xie_excluded(params, True) == {
        w for w in chen_xie_excluded(params, False) if 1 <= w <= n
    }
    assert singleton_excluded(params, True) == {
        w for w in singleton_excluded(params, False) if 1 <= w <= n
    }
    if params.k >= 2:
        assert griesmer_excluded(params, True) == {
            w for w in griesmer_excluded(params, False) if 1 <= w <= n
        }


@given(params_strategy())
def test_raw_interval_sets_are_consecutive(params):
    for weights in (
        chen_xie_excluded(params, clamp=False),
        singleton_excluded(params, clamp=False),
    ):
        if weights:
            assert max(weights) - min(weights) + 1 == len(weights)


@given(params_strategy())
def test_chen_xie_closed_form_equals_slack_scan(params):
    for clamp in (False, True):
        assert chen_xie_excluded(params, clamp) == chen_xie_excluded_by_slack(
            params, clamp
        )


@given(params_strategy())
def test_singleton_contains_chen_xie_when_feasible(params):
    # The containment concerns parameters of actual codes, so d must also
    # respect the Singleton bound (otherwise chen-xie may reach below d).
    n, k, d, q = params.n, params.k, params.d, params.q
    if (q - 1) * (n - k + 2) < q * d and d <= n - k + 1:
        assert chen_xie_excluded(params) <= singleton_excluded(params)


def test_endpoint_dominance_over_grid():
    for q in (2, 3, 4):
        for d in range(1, 41):
            for k in range(2, 9):
                for n in range(k, 61):
                    if d > n - k + 1 or (q - 1) * (n - k + 2) >= q * d:
                        continue
                    params = CodeParams(n, k, d, q)
                    assert chen_xie_excluded(params) <= singleton_excluded(params)


def test_residual_criteria_require_dimension_2():
    # The [5,1,5] repetition code attains w = 5 although the interval
    # formula would exclude it; both residual-based criteria demand k >= 2.
    with pytest.raises(ParamRangeError):
        singleton_excluded(CodeParams(5, 1, 5, 2))
    rep = LinearCode(make_field(2), ((1, 1, 1, 1, 1),))
    assert spectrum(rep).nonzero() == {0: 1, 5: 1}
    report = compare_methods(CodeParams(5, 1, 5, 2))
    assert report.singleton == frozenset() and report.griesmer == frozenset()
    assert any("k >= 2" in note for note in report.notes)


def test_compare_methods_progression_on_the_11_3_6_example():
    report = compare_methods(CodeParams(11, 3, 6, 2))
    assert report.chen_xie == {10, 11}
    assert report.singleton == {9, 10, 11}
    assert report.griesmer == {7, 9, 10, 11}
    assert report.chen_xie < report.singleton < report.union
    assert report.union == {7, 9, 10, 11}
    assert report.clamped
    assert any("singleton contains chen-xie" in note for note in report.notes)


def test_compare_methods_counts():
    report = compare_methods(CodeParams(15, 5, 7, 2))
    assert (len(report.chen_xie), len(report.singleton)) == (2, 3)


def test_compare_methods_degenerate_all_empty():
    report = compare_methods(CodeParams(10, 2, 2, 2))
    assert report.chen_xie == report.singleton == report.griesmer == set()
    assert report.union == set()
    assert any("void" in note for note in report.notes)


def test_compare_methods_raw_notes_values_past_n():
    report = compare_methods(CodeParams(93, 5, 48, 2), clamp=False)
    assert not report.clamped
    assert any("exceeds n=93" in note for note in report.notes)
    assert max(report.singleton) == 95


def test_audit_the_11_3_6_code():
    code = example_11_3_6()
    assert audit_against_spectrum(code) == []
    # The non-excluded weights within [d, n] are exactly the true spectrum.
    report = compare_methods(CodeParams(11, 3, 6, 2))
    survivors = set(range(6, 12)) - report.union
    actual = {w for w in spectrum(code).nonzero() if w > 0}
    assert survivors == actual == {6, 8}


def test_audit_rm_1_4():
    code = reed_muller_1(4)
    assert spectrum(code).nonzero() == {0: 1, 8: 30, 16: 1}
    assert audit_against_spectrum(code) == []


def test_audit_handles_k_equal_1():
    code = LinearCode(make_field(2), ((1, 1, 1, 1, 1),))
    assert audit_against_spectrum(code) == []


def test_audit_random_sample(corpus1000):
    for code in corpus1000[:200]:
        assert audit_against_spectrum(code) == []


def test_compare_methods_on_a_long_griesmer_sum_is_fast():
    # The Griesmer scan sums 19998 terms for each of 200 window weights.
    start = time.perf_counter()
    report = compare_methods(CodeParams(n=40000, k=20000, d=200, q=2))
    assert time.perf_counter() - start < 1.0
    assert report.sets == {"chen-xie": frozenset(), "singleton": frozenset(),
                           "griesmer": frozenset()}


def test_compare_methods_clamps_before_building_the_sets():
    # The raw intervals run to about 2*d = 4 million weights; cut at n, two remain.
    tracemalloc.start()
    try:
        report = compare_methods(CodeParams(2000000, 2, 1999999, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert report.chen_xie == {2000000}
    assert report.singleton == report.griesmer == {1999999, 2000000}


def test_audit_lists_violations_in_the_order_of_the_sets(monkeypatch):
    # An unsound stand-in for the criteria: every attained weight it names
    # is reported, criterion by criterion, weights ascending.
    code = example_11_3_6()  # A_6 = 6, A_8 = 1
    fake = ExclusionReport(
        params=code_params(code),
        chen_xie=frozenset({8, 6}),
        singleton=frozenset({8}),
        griesmer=frozenset({7, 6}),
        clamped=True,
        notes=(),
    )
    monkeypatch.setattr(exclusion, "compare_methods", lambda params: fake)
    got = [(v.criterion, v.weight, v.count) for v in audit_against_spectrum(code)]
    assert got == [("chen-xie", 6, 6), ("chen-xie", 8, 1), ("singleton", 8, 1),
                   ("griesmer", 6, 6)]
    # The selftest suite and the CLI report print the same sentence.
    sentences = [f"{c} excludes attained weight {w} (A_w = {n})" for c, w, n in got]
    assert [str(v) for v in audit_against_spectrum(code)] == sentences
    assert check_exclusion_soundness([code]).violations == tuple(
        f"[11,3,6]_2: {s}" for s in sentences)
    text = render_audit(fake, spectrum(code).nonzero(), audit_against_spectrum(code), "text")
    assert text.splitlines()[-4:] == [f"  - {s}" for s in sentences]
