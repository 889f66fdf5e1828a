import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from conftest import fixture_code, run_main
from hypothesis import given
from hypothesis import strategies as st

from weightbounds import exclusion
from weightbounds.bounds import (
    griesmer_min_n,
    max_window_weight,
    residual_griesmer_min_n,
    residual_singleton_max_d,
    singleton_max_d,
)
from weightbounds.cli import render_audit
from weightbounds.codes import CodeParams, LinearCode, code_params, spectrum
from weightbounds.corpus import EXTERNAL_SPECTRA
from weightbounds.errors import ParamRangeError
from weightbounds.exclusion import (
    ExclusionReport,
    audit_against_spectrum,
    chen_xie_excluded,
    compare_methods,
    griesmer_excluded,
    singleton_excluded,
)
from weightbounds.gf import make_field
from weightbounds.selfcheck import check_exclusion_soundness
from weightbounds.tables import parse_weights


def chen_xie_excluded_by_slack(params: CodeParams, clamp: bool = True) -> set[int]:
    """Chen-Xie set built from the slack-parameter form (cross-check path).

    Scans every slack v >= 0 with (n-k+2+v)*(q-1) < q*d and unions the
    integer weights in [q*d/(q-1) - v - 1, q*d/(q-1) - 1].  Must agree
    with the closed-form interval; kept to guard endpoint off-by-ones, so it
    computes its upper endpoint in exact rationals, not with the package.
    """
    n, k, d, q = params.n, params.k, params.d, params.q
    hi = math.floor(Fraction(q * d, q - 1) - 1)
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


def griesmer_excluded_by_scan(params: CodeParams, clamp: bool = True) -> set[int]:
    """The Griesmer criterion evaluated at every window weight (oracle path)."""
    n, k, d, q = params.n, params.k, params.d, params.q
    hi = max_window_weight(d, q)
    return {
        w for w in range(d, (min(hi, n) if clamp else hi) + 1)
        if n < residual_griesmer_min_n(k, d, q, w)
    }


def griesmer_cap(k: int, d: int, q: int) -> int:
    """C = d + k - 2 + ceil((d+1)/(q-1)), the cap on f over the window."""
    return d + k - 2 + math.ceil(Fraction(d + 1, q - 1))


def test_the_forced_length_never_exceeds_the_cap():
    # The slow side of the cap: f at every window weight of a grid of tuples.
    # At n = C every criterion, clamped or raw, excludes nothing.
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 256):
        for k in range(2, 13):
            for d in range(1, 81):
                cap = griesmer_cap(k, d, q)
                window = range(d, max_window_weight(d, q) + 1)
                assert max(residual_griesmer_min_n(k, d, q, w) for w in window) <= cap
                for clamp in (True, False):
                    report = compare_methods(CodeParams(cap, k, d, q), clamp)
                    assert report.union == frozenset(), (q, k, d, clamp)


def test_the_cap_is_attained():
    # (q, k, d) = (3, 2, 3): C = 3 + 0 + ceil(4/2) = 5 = f(4), so a cap one
    # lower would wrongly skip the scan at n = 4.
    assert griesmer_cap(2, 3, 3) == residual_griesmer_min_n(2, 3, 3, 4) == 5
    assert griesmer_excluded(CodeParams(4, 2, 3, 3)) == {4}
    assert griesmer_excluded(CodeParams(5, 2, 3, 3)) == frozenset()


@st.composite
def griesmer_params(draw):
    # Small q and k give a period q^(k-1) below the window width (about
    # d/(q-1)): far below for large d, near or above it for small d.
    # Large k gives a period far above it.  q = 4 and 9 are prime powers
    # p^m with m > 1, where the unit step's divisibility by powers of q
    # differs from divisibility by powers of p.  n spans the forced lengths
    # at the ends of the window, so the set runs from the whole window to
    # empty, or sits next to the cap C where the scan is skipped.
    q = draw(st.sampled_from([2, 3, 4, 9]))
    k = draw(st.integers(2, 4) | st.integers(5, 60))
    d = draw(st.integers(1, 60) | st.integers(1, 2000))
    lo = residual_griesmer_min_n(k, d, q, d)
    hi = residual_griesmer_min_n(k, d, q, max_window_weight(d, q))
    cap = griesmer_cap(k, d, q)
    n = draw(st.integers(lo - 2, hi + 1) | st.sampled_from([cap - 1, cap, cap + 1]))
    return CodeParams(max(n, k, d), k, d, q)


@given(griesmer_params(), st.booleans())
def test_griesmer_by_period_equals_the_scan(params, clamp):
    assert griesmer_excluded(params, clamp) == griesmer_excluded_by_scan(params, clamp)


def test_griesmer_evaluations_do_not_grow_with_the_window(monkeypatch):
    # The window holds 2 million weights; each pass, one clamped and one
    # raw, evaluates f once at w = d and steps to the other classes.
    calls = []
    original = exclusion.residual_griesmer_min_n

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exclusion, "residual_griesmer_min_n", counted)
    for clamp in (True, False):
        compare_methods(CodeParams(4000000, 3, 2000000, 2), clamp)
    assert len(calls) == 2


def test_griesmer_evaluates_nothing_from_the_cap_on(monkeypatch):
    # n >= C: every criterion is empty and f is never evaluated, clamped
    # or raw, however wide the window; the empty sets are one shared object.
    calls = []
    original = exclusion.residual_griesmer_min_n

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exclusion, "residual_griesmer_min_n", counted)
    for q, k, d in ((2, 3, 2000000), (3, 2, 3), (256, 12, 300), (9, 40, 1500)):
        for n in (griesmer_cap(k, d, q), griesmer_cap(k, d, q) + 7):
            for clamp in (True, False):
                report = compare_methods(CodeParams(n, k, d, q), clamp)
                assert report.chen_xie is report.singleton is report.griesmer
                assert report.union == frozenset()
    assert calls == []


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


@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("params, expected", [
    (CodeParams(5, 1, 5, 2), "residual-based criteria skipped: they need k >= 2"),
    (CodeParams(10, 5, 7, 2), "no code has these parameters"),
    (CodeParams(10, 2, 2, 2), "left-endpoint condition void"),
    (CodeParams(11, 3, 6, 2), "left-endpoint condition holds"),
], ids=["k=1", "no-code", "void", "holds"])
def test_compare_methods_notes_one_left_endpoint_regime(params, expected, clamp):
    # The [5,1,5] repetition code exists, so no note may say that no code does.
    regimes = ("skipped", "void", "no code", "holds")
    notes = [n for n in compare_methods(params, clamp).notes if any(r in n for r in regimes)]
    assert len(notes) == 1 and expected in notes[0]


REGIME_NOTES = (
    "residual-based criteria skipped: they need k >= 2",
    "left-endpoint condition void: chen-xie interval is empty",
    "left-endpoint comparison inapplicable: no code has these parameters",
    "left-endpoint condition holds: singleton contains chen-xie",
)


@given(params_strategy(), st.booleans())
def test_every_report_has_one_regime_note_and_the_low_weights_note_past_d_1(params, clamp):
    # `exclude` prints its notes block unguarded: it is never empty.
    notes = compare_methods(params, clamp).notes
    assert sum(note in REGIME_NOTES for note in notes) == 1
    low = f"weights 1..{params.d - 1} are trivially absent (below the minimum distance)"
    assert (low in notes) == (params.d > 1)


def test_the_inline_singleton_forms_are_the_bounds_rules(monkeypatch):
    # exclusion.py writes the Singleton cap n - k + 1 (in the notes' regime and
    # in compare_methods' containment check) and the residual Singleton rule
    # solved for w (the start of singleton_excluded) beside their homes in
    # bounds.py: over a grid they must decide as singleton_max_d and
    # residual_singleton_max_d do.  With the Singleton set emptied, the
    # containment check fails wherever it runs on a nonempty Chen-Xie set.
    grid = [CodeParams(n, k, d, q) for q in (2, 3, 4, 5, 7, 9) for n in range(2, 13)
            for k in range(2, n + 1) for d in range(1, n + 1)]
    for params in grid:
        n, k, d, q = params
        window = range(d, max_window_weight(d, q) + 1)
        assert singleton_excluded(params, clamp=False) == {
            w for w in window if residual_singleton_max_d(n, k, q, w) < d}
        if n - k + 2 <= max_window_weight(d, q):  # not the void regime
            no_code = REGIME_NOTES[2] in compare_methods(params).notes
            assert no_code == (d > singleton_max_d(n, k))
    monkeypatch.setattr(exclusion, "singleton_excluded", lambda params, clamp=True: frozenset())
    for params in grid:
        n, k, d, _ = params
        checked = bool(chen_xie_excluded(params)) and d <= singleton_max_d(n, k)
        try:
            compare_methods(params)
        except AssertionError:
            assert checked, params
        else:
            assert not checked, params


def _drop_the_top_singleton_weight(monkeypatch):
    real = exclusion.singleton_excluded
    monkeypatch.setattr(exclusion, "singleton_excluded",
                        lambda params, clamp=True: (s := real(params, clamp)) - {max(s)})


@pytest.mark.parametrize("clamp", [True, False])
def test_compare_methods_checks_containment_before_any_note_is_read(monkeypatch, clamp):
    # [11,3,6]_2: chen-xie {10, 11} must lie in singleton {9, 10, 11}.
    _drop_the_top_singleton_weight(monkeypatch)
    monkeypatch.setattr(ExclusionReport, "notes", property(lambda r: pytest.fail("notes read")))
    with pytest.raises(AssertionError, match=r"fails to contain chen-xie set at \[11,3,6\]_2"):
        compare_methods(CodeParams(11, 3, 6, 2), clamp)


@pytest.mark.parametrize("fmt", ["text", "csv"])  # csv prints no notes
def test_exclude_exits_3_when_singleton_misses_chen_xie(monkeypatch, fmt):
    _drop_the_top_singleton_weight(monkeypatch)
    argv = ["exclude", "--n", "11", "--k", "3", "--d", "6", "--q", "2", "--format", fmt]
    status, out, err, _ = run_main(argv)
    assert (status, out) == (3, "")
    assert err == "internal error: singleton set fails to contain chen-xie set at [11,3,6]_2\n"


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
    # The audit reads a spectrum of length n+1; weights past n are not attained.
    assert max(v.weight for v in report.audit([1] * 94)) == 93


def test_audit_the_11_3_6_code():
    code = fixture_code("example_11_3_6")
    assert audit_against_spectrum(code) == []
    # The non-excluded weights within [d, n] are exactly the true spectrum.
    report = compare_methods(CodeParams(11, 3, 6, 2))
    survivors = set(range(6, 12)) - report.union
    actual = {w for w in spectrum(code).nonzero() if w > 0}
    assert survivors == actual == {6, 8}


@pytest.mark.parametrize("name, params", [
    ("ding_27_8_14_ternary", CodeParams(27, 8, 14, 3)),
    ("cyclic_15_10_4_binary", CodeParams(15, 10, 4, 2)),
])
def test_audit_the_published_spectra(name, params):
    # The published enumerators, without generator files.
    published = EXTERNAL_SPECTRA[name]
    counts = [published.get(w, 0) for w in range(params.n + 1)]
    report = compare_methods(params)
    assert report.audit(counts) == []
    if name == "cyclic_15_10_4_binary":
        assert all(7 in s for s in report.sets.values()) and counts[7] == 0


def test_audit_rm_1_4():
    code = fixture_code("rm_1_4")
    assert spectrum(code).nonzero() == {0: 1, 8: 30, 16: 1}
    assert audit_against_spectrum(code) == []


def test_audit_handles_k_equal_1():
    code = LinearCode(make_field(2), ((1, 1, 1, 1, 1),))
    assert audit_against_spectrum(code) == []


def test_audit_random_sample(corpus1000):
    for code in corpus1000[:200]:
        assert audit_against_spectrum(code) == []


def test_compare_methods_on_a_long_griesmer_sum_is_fast():
    # f sums k - 2 = 19998 ceilings at each of 200 window weights.  n is the
    # Griesmer length, below the cap C = 20399, so the loop runs: the largest
    # f is 20398 and 148 weights are excluded.
    params = CodeParams(n=20393, k=20000, d=200, q=2)
    assert griesmer_min_n(20000, 200, 2) == 20393
    start = time.perf_counter()
    report = compare_methods(params)
    assert time.perf_counter() - start < 1.0
    assert len(report.griesmer) == 148
    assert report.griesmer == griesmer_excluded_by_scan(params)
    assert report.chen_xie == chen_xie_excluded_by_slack(params)
    assert report.singleton == set(range(391, 400))


@pytest.mark.parametrize("clamp", [True, False])
def test_the_step_past_the_window_takes_no_loop_over_k(clamp):
    # The last class steps f to the weight past the window, where r - 1 = 0:
    # every q^i divides it, so f loses k - 2 at once, not in k - 2 = 2^31 - 2
    # divisions by q.
    params = CodeParams(n=2**31, k=2**31, d=23, q=2)
    start = time.perf_counter()
    report = compare_methods(params, clamp)
    assert time.perf_counter() - start < 1.0
    assert report.griesmer == griesmer_excluded_by_scan(params, clamp) == set(range(23, 46))


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
    code = fixture_code("example_11_3_6")  # A_6 = 6, A_8 = 1
    fake = ExclusionReport(
        params=code_params(code),
        chen_xie=frozenset({8, 6}),
        singleton=frozenset({8}),
        griesmer=frozenset({7, 6}),
        clamped=True,
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
