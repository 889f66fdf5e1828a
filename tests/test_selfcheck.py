
import functools
import random

import pytest
from conftest import ratio_rows, run_main

from weightbounds import bounds, codes, exclusion, selfcheck
from weightbounds.codes import (
    LinearCode,
    WeightSpectrum,
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
from weightbounds.gf import GF, make_field
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
    # exactly those, and the suite, building one support mask per scalar
    # class once per code, counts the same and reads the same results.
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

    handed, built = [], []

    def recording_residual(code, cw):
        handed.append(tuple(cw))
        return residual(code, cw)

    def recording_masks(gf, rows):
        built.append(rows)
        return support_masks(gf, rows)

    def no_full_walk(code):
        raise AssertionError("the residual-lemma suite walked every codeword")

    support_masks = selfcheck._support_masks
    monkeypatch.setattr(selfcheck, "_support_masks", recording_masks)
    monkeypatch.setattr(codes, "iter_codewords", no_full_walk)
    result = check_residual_lemma(sample)
    assert built == [code.rows for code in sample]
    assert result == residual_oracle(sample, recording_residual)
    assert result.ok
    assert result.checked == expected_checked
    assert handed == expected_words


def walked_masks(gf, rows):
    """The oracle's support masks: one byte per coordinate of each word that
    `projective_codewords` walks."""
    return [int.from_bytes(bytes(map(bool, cw)), "little") for cw in projective_codewords(gf, rows)]


def coordinate_sets(masks, width):
    """The coordinates of each mask, one bit per width-bit lane; a set bit off
    a lane's bit 0 fails."""
    sets = [frozenset(j for j in range(m.bit_length()) if m >> j * width & 1) for m in masks]
    assert masks == [sum(1 << j * width for j in s) for s in sets]
    return sets


# (n, k) shapes: a one-coordinate code, then codes whose last column is zero;
# at most two rows where q^3 words would be many.
MASK_SHAPES = [(1, 1), (4, 1), (6, 2), (5, 3)]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 256, 9, 25, 27, 257])
def test_packed_masks_equal_the_walked_masks(q):
    gf, rng = make_field(q), random.Random(q)
    lane = 8 * len(codes._lanes(gf)[1][0])
    for n, k in MASK_SHAPES:
        k = min(k, 2) if q > 100 else k
        for _ in range(4):
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            for i, row in enumerate(rows):
                row[:i + 1] = [0] * i + [1]  # echelon form: the rows are independent
                if n > k:
                    row[-1] = 0
            rows = tuple(map(tuple, rows))
            walked = coordinate_sets(walked_masks(gf, rows), 8)
            assert coordinate_sets(codes._support_masks(gf, rows), lane) == walked
            assert len(walked) == (q**k - 1) // (q - 1)


@pytest.mark.parametrize("q", [4, 8, 9, 256, 65536])
def test_packed_masks_take_no_more_products_than_scaling_each_row(q, monkeypatch):
    # Scaling row t by each of its scalars takes one product per entry: n for
    # the last row, (q - 1) * n for every other.  The masks may take no more,
    # so no field size makes them cost one product per field element.
    # The count stops at the first product over budget, so a lookup over all of
    # GF(65536) fails at once instead of running its 4.3e9 products.
    gf, rng, mul, left = make_field(q), random.Random(q), GF.mul, [0]

    def counted(self, a, b):
        left[0] -= 1
        assert left[0] >= 0, "more products than scaling each row"
        return mul(self, a, b)

    monkeypatch.setattr(GF, "mul", counted)
    for n, k in [(1, 1), (4, 1), (4, 2), (6, 3)] if q < 1000 else [(4, 1), (4, 2)]:
        rows = tuple(tuple([0] * i + [1] + [rng.randrange(q) for _ in range(n - i - 1)])
                     for i in range(k))
        left[0] = ((k - 1) * (q - 1) + 1) * n
        assert len(codes._support_masks(gf, rows)) == (q**k - 1) // (q - 1)


def count_every_class_twice(monkeypatch):
    support_masks = selfcheck._support_masks
    monkeypatch.setattr(selfcheck, "_support_masks",
                        lambda gf, rows: [m for m in support_masks(gf, rows) for _ in range(2)])


def test_masks_that_disagree_with_the_spectrum_are_an_internal_error(
    corpus1000, monkeypatch
):
    # Every scalar class counted twice: the popcount histogram times q - 1 is
    # twice the spectrum, so the suite stops before it reads any support.
    count_every_class_twice(monkeypatch)
    with pytest.raises(AssertionError, match="disagree with its spectrum"):
        check_residual_lemma(corpus1000[:5])
    status, _, err, _ = run_main(["selftest", "--trials", "5"])
    assert status == 3
    assert err.startswith("internal error: ")
    assert "support masks of [" in err and "disagree with its spectrum" in err


def test_a_broken_residual_invariant_is_an_internal_error_not_a_violation(
    corpus1000, monkeypatch
):
    # Every scalar class counted twice, and the spectrum doubled to match:
    # 2(q^t - 1)/(q - 1) classes inside a support is no count of a
    # subspace's classes, so the suite stops.
    def doubled_spectrum(code):
        return WeightSpectrum(tuple(2 * c for c in spectrum(code).counts))

    count_every_class_twice(monkeypatch)
    monkeypatch.setattr(selfcheck, "spectrum", doubled_spectrum)
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
    for name in ("residual", "row_reduce", "echelon_insert"):  # every LinearCode inserts
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


def test_selftest_shares_spectra_slice_by_slice(monkeypatch):
    # A corpus of more distinct codes than a 64-code spectrum LRU holds, with
    # violations in three of its slices from a global weight cap one too low:
    # slices of 64 codes compute each spectrum once, and their merged results,
    # in code order, are those of one pass of each suite over the whole corpus.
    small = functools.lru_cache(maxsize=64)(codes.spectrum.__wrapped__)
    for module in (codes, selfcheck, exclusion):
        monkeypatch.setattr(module, "spectrum", small)
    monkeypatch.setattr(selfcheck, "SPECTRUM_CACHE_SIZE", 64)
    monkeypatch.setattr(selfcheck, "global_weight_max", STRICTER["global_weight_max"][1])
    corpus = list(random_corpus(300, 12345))
    whole = [suite(corpus) for suite in (check_residual_lemma, check_global_weight,
                                         check_distance_ratio, check_exclusion_soundness)]
    assert len(whole[1].violations) > 5
    small.cache_clear()
    assert run_selftest(300, 12345) == whole
    assert small.cache_info().misses == len(set(corpus)) > 64
    assert [r.checked for r in run_selftest(0, 12345)] == [0] * 4


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
