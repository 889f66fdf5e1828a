
import pytest
from conftest import ratio_rows, run_main

from weightbounds import bounds, codes, selfcheck
from weightbounds.codes import (
    LinearCode,
    code_params,
    hamming_weight,
    iter_codewords,
    min_distance,
    projective_codewords,
    residual,
    spectrum,
)
from weightbounds.errors import DegenerateResidualError
from weightbounds.corpus import random_corpus
from weightbounds.gf import make_field
from weightbounds.selfcheck import (
    CheckResult,
    check_distance_ratio,
    check_exclusion_soundness,
    check_global_weight,
    check_residual_lemma,
    run_selftest,
)


def test_run_selftest_small_corpus_passes_and_is_deterministic():
    first = run_selftest(80, 7)
    second = run_selftest(80, 7)
    assert first == second
    names = [res.name for res in first]
    assert names == [
        "residual-lemma",
        "global-weight",
        "distance-ratio",
        "exclusion-soundness",
    ]
    for res in first:
        assert res.ok
        assert res.checked > 0


def test_individual_checks_on_shared_corpus(corpus1000):
    sample = corpus1000[:100]
    assert check_residual_lemma(sample).ok
    assert check_global_weight(sample).ok
    assert check_distance_ratio(sample).ok
    assert check_exclusion_soundness(sample).ok
    assert check_global_weight(sample).checked == 100


def residual_oracle(codes_, residual_of=residual):
    """The residual-lemma suite as it was before it read support masks: build
    each distinct window support's residual with `residual_of` and enumerate
    its spectrum.  The window and the distance floor are read through
    `selfcheck`, so a patch there changes both forms."""
    checked = 0
    violations = []
    for code in codes_:
        params = code_params(code)
        n, k, d, q = params.n, params.k, params.d, params.q
        hi = selfcheck.max_window_weight(d, q)
        checked += sum(spectrum(code).counts[1:hi + 1])
        supports = {}
        for cw in projective_codewords(code.gf, code.rows):
            if hamming_weight(cw) <= hi:
                supports.setdefault(bytes(map(bool, cw)), cw)
        for cw in supports.values():
            w = hamming_weight(cw)
            try:
                res = residual_of(code, cw)
            except DegenerateResidualError as exc:
                violations.append(f"{params} w={w}: {exc}")
                continue
            if res.n != n - w:
                violations.append(f"{params} w={w}: residual length {res.n} != {n - w}")
            if res.k != k - 1:
                violations.append(f"{params} w={w}: residual dimension {res.k} != {k - 1}")
            floor_d = d - w + selfcheck.ceil_div(w, q)
            res_d = min_distance(res)
            if res_d < floor_d:
                violations.append(f"{params} w={w}: residual distance {res_d} < {floor_d}")
    return CheckResult("residual-lemma", checked, tuple(violations))


def test_the_mask_suite_equals_the_residual_oracle(corpus1000):
    result = check_residual_lemma(corpus1000)
    assert result == residual_oracle(corpus1000)
    assert result.ok and result.checked > 0


@pytest.mark.parametrize("q, rows, message", [
    (2, ((1, 1, 1),), "[3,1,3]_2 w=3: codeword has full support; nothing remains"),
    (2, ((1, 1, 0),), "[3,1,2]_2 w=2: all generator rows vanish after puncturing"),
    (3, ((1, 2, 0, 0),), "[4,1,2]_3 w=2: all generator rows vanish after puncturing"),
])
def test_a_degenerate_residual_is_a_violation_in_both_forms(q, rows, message):
    # k = 1 leaves a residual of dimension 0; the random corpus has k >= 2.
    code = LinearCode(make_field(q), rows)
    result = check_residual_lemma([code])
    assert result == residual_oracle([code])
    assert result.violations == (message,)


def test_residual_lemma_walk_matches_a_full_codeword_walk(corpus1000, monkeypatch):
    # Walk every codeword in message order, count the window ones and keep
    # the first codeword of each support: the oracle builds the residual at
    # exactly those, and the suite, walking one codeword per scalar class
    # once per code, counts the same and reads the same results.
    sample = corpus1000[:150]
    expected_checked, expected_words = 0, []
    for code in sample:
        d, q = min_distance(code), code.q
        seen = set()
        for cw in iter_codewords(code):
            w = hamming_weight(cw)
            if w == 0 or w * (q - 1) >= q * d:
                continue
            expected_checked += 1
            support = tuple(j for j, x in enumerate(cw) if x)
            if support not in seen:
                seen.add(support)
                expected_words.append(cw)

    handed, walks = [], []

    def recording_residual(code, cw):
        handed.append(tuple(cw))
        return residual(code, cw)

    def recording_walk(gf, rows):
        walks.append(rows)
        return projective_codewords(gf, rows)

    def no_full_walk(code):
        raise AssertionError("the residual-lemma suite walked every codeword")

    monkeypatch.setattr(selfcheck, "projective_codewords", recording_walk)
    monkeypatch.setattr(codes, "iter_codewords", no_full_walk)
    result = check_residual_lemma(sample)
    assert walks == [code.rows for code in sample]
    assert result == residual_oracle(sample, recording_residual)
    assert result.ok
    assert result.checked == expected_checked
    assert handed == expected_words


def test_a_broken_residual_invariant_is_an_internal_error_not_a_violation(
    corpus1000, monkeypatch
):
    # Every scalar class walked twice: 2(q^t - 1)/(q - 1) classes inside a
    # support is no count of a subspace's classes, so the suite stops.
    def doubled_walk(gf, rows):
        return [cw for cw in projective_codewords(gf, rows) for _ in range(2)]

    monkeypatch.setattr(selfcheck, "projective_codewords", doubled_walk)
    with pytest.raises(AssertionError, match="scalar classes inside a support"):
        check_residual_lemma(corpus1000[:5])
    status, _, err, _ = run_main(["selftest", "--trials", "5"])
    assert status == 3
    assert err.startswith("internal error: ")
    assert "scalar classes inside a support" in err


def test_the_suite_builds_no_residual(corpus1000, monkeypatch):
    def refused(*args):
        raise AssertionError("the residual-lemma suite built a code")

    sample = corpus1000[:100]
    expected = check_residual_lemma(sample)
    for name in ("residual", "row_reduce"):  # row_reduce: every LinearCode
        monkeypatch.setattr(codes, name, refused)
    assert check_residual_lemma(sample) == expected


def test_run_selftest_results_are_pinned():
    # Taken from the full codeword walk that the suite used before it
    # walked one codeword per scalar class.  The value bitmaps are shared
    # across spectra, so the run is made from empty caches and again with
    # every bitmap already built; both must give these results.
    pinned = [
        ("residual-lemma", 1640, 0),
        ("global-weight", 200, 0),
        ("distance-ratio", 200, 0),
        ("exclusion-soundness", 200, 0),
    ]
    codes.spectrum.cache_clear()
    codes._value_bitmaps.cache_clear()
    cold = [(r.name, r.checked, len(r.violations)) for r in run_selftest(200, 12345)]
    built = codes._value_bitmaps.cache_info().misses
    codes.spectrum.cache_clear()
    warm = [(r.name, r.checked, len(r.violations)) for r in run_selftest(200, 12345)]
    assert codes._value_bitmaps.cache_info().misses == built > 0  # every bitmap reused
    assert cold == warm == pinned


def test_spectrum_cache_holds_a_whole_selftest_run():
    # run_selftest(1000, 777) enumerates each of its 995 distinct corpus
    # codes once and nothing else: the residual-lemma suite builds no
    # residual, and no entry is evicted, so no kernel call repeats.
    codes.spectrum.cache_clear()
    run_selftest(1000, 777)
    info = codes.spectrum.cache_info()
    assert info.misses == info.currsize == len(set(random_corpus(1000, 777)))


# Each home rule made one step too strict: the window claimed for one more
# weight, the weight cap lowered by one, the ratio bound made strict.
STRICTER = {
    "max_window_weight": (check_residual_lemma,
                          lambda d, q: bounds.max_window_weight(d, q) + 1),
    "global_weight_max": (check_global_weight,
                          lambda n, d, q: bounds.global_weight_max(n, d, q) - 1),
    "distance_ratio_holds": (check_distance_ratio, lambda n, d, q:
                             bounds.distance_ratio_holds(n, d, q)._replace(relation="<")),
}


@pytest.mark.filterwarnings("ignore::weightbounds.codes.ResidualWindowWarning")
@pytest.mark.parametrize("name", STRICTER)
def test_suites_read_the_rules_from_bounds(name, corpus1000, monkeypatch):
    suite, stricter = STRICTER[name]
    ratio_codes = [LinearCode(make_field(q), ratio_rows(q)) for q in (2, 3, 4, 5)]
    sample = corpus1000[:100] + ratio_codes
    assert suite(sample).ok
    monkeypatch.setattr(selfcheck, name, stricter)
    assert not suite(sample).ok


# The residual-lemma rules one step stricter: STRICTER's window, or the
# residual distance floor raised by one.
STRICTER_LEMMA = {
    "max_window_weight": (STRICTER["max_window_weight"][1], "dimension"),
    "ceil_div": (lambda a, b: bounds.ceil_div(a, b) + 1, "distance"),
}


@pytest.mark.filterwarnings("ignore::weightbounds.codes.ResidualWindowWarning")
@pytest.mark.parametrize("name", STRICTER_LEMMA)
def test_the_mask_suite_equals_the_oracle_under_a_stricter_rule(name, corpus1000, monkeypatch):
    # Violation text and order included.
    stricter, kind = STRICTER_LEMMA[name]
    monkeypatch.setattr(selfcheck, name, stricter)
    result = check_residual_lemma(corpus1000)
    assert result == residual_oracle(corpus1000)
    assert any(f"residual {kind}" in v for v in result.violations)
