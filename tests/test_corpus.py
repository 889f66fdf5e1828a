import hashlib
from itertools import islice

import pytest
from conftest import dual, fixture_code, ratio_rows, reference_rref, simplex_rows

from weightbounds import corpus
from weightbounds.bounds import global_weight_max, griesmer_min_n
from weightbounds.codes import LinearCode, echelon_insert, min_distance, spectrum
from weightbounds.corpus import EXTERNAL_SPECTRA, random_code, random_corpus, splitmix64
from weightbounds.errors import ParamRangeError
from weightbounds.gf import make_field


def test_splitmix64_reference_vector():
    # First outputs for seed 0, per the reference implementation.
    assert list(islice(splitmix64(0), 3)) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_example_11_3_6_parameters_and_spectrum():
    code = fixture_code("example_11_3_6")
    assert (code.n, code.k, code.q) == (11, 3, 2)
    assert spectrum(code).nonzero() == {0: 1, 6: 6, 8: 1}
    assert min_distance(code) == 6
    assert griesmer_min_n(3, 6, 2) == 11  # the code meets the length bound


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ratio_code_parameters_and_tightness(q):
    code = LinearCode(make_field(q), ratio_rows(q))
    assert (code.n, code.k) == (q + 1, 2)
    spec = spectrum(code)
    d = spec.min_distance
    assert d == q
    assert spec.nonzero() == {0: 1, q: q * q - 1}  # every nonzero word has weight q
    assert (q + 1) * d == q * code.n


def test_reed_muller_1_4():
    code = fixture_code("rm_1_4")
    assert (code.n, code.k) == (16, 5)
    spec = spectrum(code)
    assert spec.min_distance == 8
    assert spec.counts[16] == 1  # the all-ones codeword
    assert max(spec.nonzero()) == global_weight_max(16, 8, 2)


def test_ternary_hamming():
    code = fixture_code("hamming_13_10_3_ternary")
    assert (code.n, code.k, code.q) == (13, 10, 3)
    # The generator rows are part of the enumeration order: pinned.
    assert ["".join(map(str, row)) for row in code.rows] == [
        "2210000000000", "1201000000000", "2000210000000", "1000201000000",
        "0200200100000", "2200200010000", "1200200001000", "0100200000100",
        "2100200000010", "1100200000001",
    ]
    spec = spectrum(code)
    assert spec.min_distance == 3
    assert sum(spec.counts) == 3**10
    assert spec.counts[4] > 0  # weight-4 codewords exist


def test_random_code_is_deterministic_and_full_rank():
    a = random_code(421, 3, 10, 4)
    b = random_code(421, 3, 10, 4)
    assert a == b
    assert (a.n, a.k, a.q) == (10, 4, 3)
    square = random_code(7, 2, 5, 5)
    assert square.k == 5  # rank n


def test_random_code_rejects_out_of_range_parameters():
    for q, n, k in [(5, 10, 3), (2, 15, 3), (2, 10, 6), (2, 3, 4)]:
        with pytest.raises(ParamRangeError):
            random_code(0, q, n, k)


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64) + 1, (1 << 65) + 1])
def test_seeds_outside_64_bits_are_refused(seed):
    # SplitMix64 masks its state to 64 bits; a corpus seed outside them would
    # name another seed's codes.
    with pytest.raises(ParamRangeError, match=r"seed must be in \[0, 2\*\*64\)"):
        random_code(seed, 2, 5, 2)
    with pytest.raises(ParamRangeError, match=r"seed must be in \[0, 2\*\*64\)"):
        next(random_corpus(1, seed))


def test_the_end_seeds_of_the_range_are_taken():
    for seed in (0, (1 << 64) - 1):
        assert random_code(seed, 3, 6, 3).k == 3
        assert len(list(random_corpus(5, seed))) == 5


def test_random_corpus_is_deterministic_and_in_range():
    first = list(random_corpus(50, 3))
    second = list(random_corpus(50, 3))
    assert first == second
    assert len(first) == 50
    for code in first:
        assert code.q in (2, 3, 4)
        assert 2 <= code.k <= 5
        assert code.k <= code.n <= 14


def test_the_default_corpus_is_pinned(corpus1000):
    # Every code of the default selftest corpus, rows and field, bit for bit.
    digest = hashlib.sha256(repr([(c.q, c.rows) for c in corpus1000]).encode()).hexdigest()
    assert digest == "c19dffef6ec79f16d8e111bbd048c282d9579ba9ad612061f43b044a0c4c85e3"


@pytest.mark.parametrize("seed", [12345, 7])
def test_corpus_codes_are_what_linear_code_would_build(corpus1000, seed):
    # random_code builds its result without LinearCode's checks; each code must
    # be one that the checked constructor accepts and builds equal, with
    # entries in the field and full rank by the scalar reference RREF.
    codes = corpus1000 if seed == 12345 else list(random_corpus(1000, seed))
    assert len(codes) == 1000
    for code in codes:
        gf, rows = code
        assert type(code) is LinearCode
        assert LinearCode(gf, rows) == code
        assert type(rows) is tuple
        for row in rows:
            assert type(row) is tuple and len(row) == code.n
            assert all(type(x) is int and 0 <= x < gf.q for x in row)
        assert reference_rref(gf, rows)[1] == code.k


def plain_rank_draws(seed, q, n, k):
    """The draws of `random_code(seed, q, n, k)` under the plain acceptance
    rule, each with the number of rows kept before it: a draw is kept when
    the rank of the kept rows plus the draw is one more than their number."""
    gf, rng = make_field(q), splitmix64(seed)
    accepted, draws = [], []
    while len(accepted) < k:
        row = tuple(next(rng) % q for _ in range(n))
        draws.append((row, len(accepted)))
        if reference_rref(gf, accepted + [row])[1] == len(accepted) + 1:
            accepted.append(row)
    return draws, tuple(accepted)


def test_each_draw_is_decided_like_the_plain_rank_test(monkeypatch):
    # random_code inserts each draw into the echelon basis of the kept rows;
    # the record of its inserts (the draw and how many rows were kept before
    # it) must be the oracle's, draw by draw, over a corpus whose draws
    # include rejections.
    seen, records = [], []

    def recording_insert(gf, basis, row):
        seen.append((tuple(row), len(basis)))
        return echelon_insert(gf, basis, row)

    def checked_code(seed, q, n, k):
        seen.clear()
        code = random_code(seed, q, n, k)
        records.append((list(seen), code.rows, plain_rank_draws(seed, q, n, k)))
        return code

    monkeypatch.setattr(corpus, "echelon_insert", recording_insert)
    monkeypatch.setattr(corpus, "random_code", checked_code)
    assert len(list(random_corpus(1000, 12345))) == 1000
    for draws, rows, expected in records:
        assert (draws, rows) == expected
    assert sum(len(draws) - len(rows) for draws, rows, _ in records) > 0  # rejections


def test_external_spectra_are_complete_distributions():
    assert sum(EXTERNAL_SPECTRA["ding_27_8_14_ternary"].values()) == 3**8
    assert sum(EXTERNAL_SPECTRA["cyclic_15_10_4_binary"].values()) == 2**10


def test_shipped_fixture_files_match_independent_constructions():
    # The ternary Hamming code is the dual of the [13,3]_3 simplex code, whose
    # columns are the points of PG(2, 3), and ratio_4 is the q = 4 member of
    # the ratio family.  The [11,3,6] and RM(1,4) files are pinned by their
    # spectra and the CLI transcript.
    pg23 = LinearCode(make_field(3), simplex_rows(3, 3))
    assert fixture_code("hamming_13_10_3_ternary") == dual(pg23)
    assert fixture_code("ratio_4") == LinearCode(make_field(4), ratio_rows(4))
