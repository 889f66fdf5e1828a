import dataclasses

import pytest

from weightbounds import bounds, codes, selfcheck
from weightbounds.codes import hamming_weight, iter_codewords, min_distance, residual
from weightbounds.corpus import ratio_code
from weightbounds.selfcheck import (
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


def test_residual_lemma_walk_matches_a_full_codeword_walk(corpus1000, monkeypatch):
    # Oracle: walk every codeword in message order, count the window ones
    # and keep the first codeword of each support.
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

    handed = []

    def recording_residual(code, cw):
        handed.append(tuple(cw))
        return residual(code, cw)

    def no_full_walk(code):
        raise AssertionError("the residual-lemma suite walked every codeword")

    monkeypatch.setattr(selfcheck, "residual", recording_residual)
    monkeypatch.setattr(codes, "iter_codewords", no_full_walk)
    result = check_residual_lemma(sample)
    assert result.ok
    assert result.checked == expected_checked
    assert handed == expected_words


def test_run_selftest_results_are_pinned():
    # Taken from the full codeword walk that the suite used before it
    # walked one codeword per scalar class.
    results = [(r.name, r.checked, len(r.violations)) for r in run_selftest(200, 12345)]
    assert results == [
        ("residual-lemma", 1640, 0),
        ("global-weight", 200, 0),
        ("distance-ratio", 200, 0),
        ("exclusion-soundness", 200, 0),
    ]


# Each home rule made one step too strict: the window claimed for one more
# weight, the weight cap lowered by one, the ratio bound made strict.
STRICTER = {
    "max_window_weight": (check_residual_lemma,
                          lambda d, q: bounds.max_window_weight(d, q) + 1),
    "global_weight_max": (check_global_weight,
                          lambda n, d, q: bounds.global_weight_max(n, d, q) - 1),
    "distance_ratio_holds": (check_distance_ratio, lambda n, d, q: dataclasses.replace(
        bounds.distance_ratio_holds(n, d, q), relation="<")),
}


@pytest.mark.filterwarnings("ignore::weightbounds.codes.ResidualWindowWarning")
@pytest.mark.parametrize("name", STRICTER)
def test_suites_read_the_rules_from_bounds(name, corpus1000, monkeypatch):
    suite, stricter = STRICTER[name]
    sample = corpus1000[:100] + [ratio_code(q) for q in (2, 3, 4, 5)]
    assert suite(sample).ok
    monkeypatch.setattr(selfcheck, name, stricter)
    assert not suite(sample).ok
