import copy
import itertools
import pickle
import re
import tracemalloc

import pytest
from conftest import (
    brute_codewords,
    dual,
    fixture_code,
    oracle_counts,
    reference_rref,
    simplex_rows,
)

from weightbounds import codes as codes_module
from weightbounds.codes import (
    CodeParams,
    LinearCode,
    ResidualWindowWarning,
    WeightSpectrum,
    code_from_matrix,
    code_params,
    echelon_insert,
    find_codeword_of_weight,
    generator_text,
    hamming_weight,
    iter_codewords,
    min_distance,
    parse_generator_text,
    projective_codewords,
    read_generator_file,
    residual,
    row_reduce,
    spectrum,
)
from weightbounds.corpus import EXTERNAL_SPECTRA, splitmix64
from weightbounds.errors import (
    DegenerateResidualError,
    EmptyMatrixError,
    EntryOutOfRangeError,
    LengthMismatchError,
    NotACodewordError,
    ParamRangeError,
    RankDeficientError,
    ZeroCodewordError,
)
from weightbounds.gf import make_field

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(4)

# The explicit binary [11, 3, 6] generator matrix used across the suite.
G_11_3_6 = (
    (1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0),
    (1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0),
    (1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1),
)


def test_row_reduce_identity():
    basis, rank = row_reduce(GF3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert rank == 3
    assert basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_row_reduce_dependent_rows():
    _, rank = row_reduce(GF3, [(1, 1), (2, 2)])
    assert rank == 1


def test_row_reduce_example_matrix():
    _, rank = row_reduce(GF2, G_11_3_6)
    assert rank == 3


def test_row_reduce_is_idempotent_and_normalized():
    rows = [(2, 1, 0, 2), (1, 2, 2, 0), (0, 1, 1, 1)]
    basis, rank = row_reduce(GF3, rows)
    again, rank2 = row_reduce(GF3, basis)
    assert (basis, rank) == (again, rank2)
    for row in basis:
        lead = next(x for x in row if x)
        assert lead == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_row_reduce_matches_scalar_reference(q):
    gf = make_field(q)
    rng = splitmix64(300 + q)
    for _ in range(30):
        k, n = 1 + next(rng) % 4, 1 + next(rng) % 7
        # Sparse entries make dependent rows and zero columns common.
        rows = [tuple(next(rng) % q if next(rng) % 3 else 0 for _ in range(n))
                for _ in range(k)]
        # The RREF of a row space does not depend on the order of the rows.
        assert row_reduce(gf, rows) == row_reduce(gf, rows[::-1]) == reference_rref(gf, rows)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_echelon_insert_matches_the_scalar_reference(q):
    # Inserting every row gives the scalar reference's rank and RREF pivots, and
    # keeps each stored row 1 at its pivot and 0 at the pivots stored before it.
    gf = make_field(q)
    rng = splitmix64(500 + q)
    dependent = 0
    for _ in range(60):
        k, n = 1 + next(rng) % 5, 1 + next(rng) % 7
        # Sparse entries make dependent rows and zero columns common.
        rows = [tuple(next(rng) % q if next(rng) % 3 else 0 for _ in range(n))
                for _ in range(k)]
        basis = []
        grew = [echelon_insert(gf, basis, row) for row in rows]
        rref, rank = reference_rref(gf, rows)
        assert sum(grew) == len(basis) == rank
        assert sorted(p for p, _ in basis) == [next(j for j, x in enumerate(r) if x)
                                               for r in rref]
        for t, (pivot, row) in enumerate(basis):
            assert row[pivot] == 1 and all(row[p] == 0 for p, _ in basis[:t])
        if rank < k:
            dependent += 1
            with pytest.raises(RankDeficientError):
                LinearCode(gf, rows)
        else:
            assert LinearCode(gf, rows).rows == tuple(rows)
    assert dependent > 0


def test_code_from_matrix_accepts_full_rank():
    code = code_from_matrix(GF2, G_11_3_6)
    assert (code.n, code.k, code.q) == (11, 3, 2)
    assert code.rows == G_11_3_6  # rows kept exactly as supplied
    eye = code_from_matrix(GF2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert (eye.n, eye.k) == (3, 3)


def test_code_from_matrix_rejections():
    with pytest.raises(RankDeficientError):
        code_from_matrix(GF2, [(1, 1, 0), (1, 1, 0)])
    with pytest.raises(EmptyMatrixError):
        code_from_matrix(GF2, [])
    with pytest.raises(EmptyMatrixError):
        code_from_matrix(GF2, [()])
    with pytest.raises(EntryOutOfRangeError):
        code_from_matrix(GF2, [(0, 2, 1)])


def test_code_from_matrix_auto_reduce():
    code = code_from_matrix(GF2, [(1, 1, 0), (1, 1, 0), (0, 1, 1)], auto_reduce=True)
    assert code.k == 2
    with pytest.raises(RankDeficientError):
        code_from_matrix(GF2, [(0, 0, 0)], auto_reduce=True)


@pytest.mark.parametrize("rows", [
    [(1, 0, 1), (1,)],
    [(1,), (1, 0, 1)],
    [(0, 1), (1, 1, 1)],
])
def test_code_from_matrix_auto_reduce_rejects_ragged_rows(rows):
    with pytest.raises(LengthMismatchError):
        code_from_matrix(GF2, rows, auto_reduce=True)


def test_iter_codewords_matches_naive_oracle():
    for gf, rows in [
        (GF2, ((1, 0, 1, 1), (0, 1, 1, 0))),
        (GF3, ((1, 2, 0), (0, 1, 1))),
        (GF4, ((1, 2, 3), (0, 1, 2))),
    ]:
        code = LinearCode(gf, rows)
        assert list(iter_codewords(code)) == brute_codewords(gf, rows)


def brute_projective_codewords(gf, rows):
    """The nonzero combinations whose last nonzero coefficient is 1, by filter.

    product() tuples pair with reversed rows (see brute_codewords), so the
    coefficient of the last row comes first.
    """
    coeffs = itertools.product(range(gf.q), repeat=len(rows))
    keep = [next((c for c in cs if c), 0) == 1 for cs in coeffs]
    return [cw for cw, kept in zip(brute_codewords(gf, rows), keep) if kept]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_projective_codewords_are_one_per_scalar_class(q):
    gf = make_field(q)
    rng = splitmix64(500 + q)
    for k in (1, 2, 3) if q <= 9 else (1, 2):
        rows = random_full_rank_rows(rng, gf, k + 2, k)
        words = list(projective_codewords(gf, rows))
        assert words == brute_projective_codewords(gf, rows)
        assert len(words) == (q**k - 1) // (q - 1)
        classes = {frozenset(tuple(gf.mul(c, x) for x in w) for c in range(1, q)) for w in words}
        assert len(classes) == len(words)
        assert set().union(*classes) == set(brute_codewords(gf, rows)[1:])


def test_iter_codewords_message_order():
    code = LinearCode(GF3, ((1, 0, 0), (0, 1, 0)))
    words = list(iter_codewords(code))
    # digit 0 scales rows[0]; messages 1, 2 are its multiples.
    assert words[0] == (0, 0, 0)
    assert words[1] == (1, 0, 0)
    assert words[2] == (2, 0, 0)
    assert words[3] == (0, 1, 0)  # message 3 = digit 1 of value 1
    assert words[5] == (2, 1, 0)


def test_spectrum_of_the_11_3_6_code():
    # Oracle: the eight codewords written out explicitly.
    code = LinearCode(GF2, G_11_3_6)
    words = brute_codewords(GF2, G_11_3_6)
    assert len(words) == 8
    expected = [0] * 12
    for w in words:
        expected[hamming_weight(w)] += 1
    assert spectrum(code).counts == tuple(expected)
    assert spectrum(code).nonzero() == {0: 1, 6: 6, 8: 1}


def test_spectrum_repetition_code():
    code = LinearCode(GF2, ((1, 1, 1, 1, 1),))
    assert spectrum(code).nonzero() == {0: 1, 5: 1}


def test_spectrum_small_random_codes_match_the_oracle():
    # The whole distribution, so also sum(A_w) = q^k and A_0 = 1.
    rng = splitmix64(99)
    for _ in range(40):
        q = (2, 3, 4)[next(rng) % 3]
        k = 1 + next(rng) % 3
        n = k + next(rng) % 8
        gf = make_field(q)
        rows = random_full_rank_rows(rng, gf, n, k)
        assert spectrum(LinearCode(gf, rows)).counts == oracle_counts(gf, rows)


def test_list_rows_and_tuple_rows_give_the_same_code():
    rows = ((1, 0, 1), (0, 1, 1))
    as_lists = LinearCode(GF2, [list(row) for row in rows])
    as_tuples = LinearCode(GF2, rows)
    assert as_lists == as_tuples and hash(as_lists) == hash(as_tuples)
    assert as_lists.rows == rows
    assert spectrum(as_lists) == spectrum(as_tuples)


def random_full_rank_rows(rng, gf, n, k):
    rows = []
    while len(rows) < k:
        row = tuple(next(rng) % gf.q for _ in range(n))
        _, rank = row_reduce(gf, rows + [row])
        if rank == len(rows) + 1:
            rows.append(row)
    return tuple(rows)


def test_spectrum_matches_brute_force_oracle_binary():
    # 200 random binary codes with n <= 20, k <= 10.
    rng = splitmix64(7)
    for _ in range(200):
        k = 1 + next(rng) % 10
        n = k + next(rng) % (21 - k)
        rows = random_full_rank_rows(rng, GF2, n, k)
        assert spectrum(LinearCode(GF2, rows)).counts == oracle_counts(GF2, rows)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_spectrum_matches_brute_force_oracle_other_fields(q):
    # Every q gets n = 1, k = 1 (no high part), and odd and even k.
    gf = make_field(q)
    rng = splitmix64(1000 + q)
    shapes = [(1, 1), (4, 1), (3, 2), (5, 2), (4, 3)]
    if q <= 9:
        shapes += [(6, 3), (6, 4)]
    if q <= 5:
        shapes += [(7, 5), (8, 6)]
    for n, k in shapes:
        for _ in range(2):
            rows = random_full_rank_rows(rng, gf, n, k)
            assert spectrum(LinearCode(gf, rows)).counts == oracle_counts(gf, rows)


def test_spectrum_matches_brute_force_oracle_on_corpus(corpus1000):
    for code in corpus1000:
        assert spectrum(code).counts == oracle_counts(code.gf, code.rows)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_spectrum_kernel_branches_match_oracle(q):
    # One field per class.  With k = 3 the low block is the first k - 1 = 2
    # rows: columns 0-2 have a zero low part (column 2 is zero throughout),
    # columns 3-5 share the low part (1, 1) with different high entries,
    # and the unit columns keep the rank at 3.  A k = 1 code has a = 0: one
    # low combination, and the row is the one projective high part.
    gf, top = make_field(q), q - 1
    columns = [(0, 0, 1), (0, 0, top), (0, 0, 0), (1, 1, 0), (1, 1, 1), (1, 1, top),
               (1, 0, 0), (0, 1, 0), (top, 1, 1)]
    rows = tuple(zip(*columns))
    for code_rows in (rows, rows[2:]):
        assert spectrum(LinearCode(gf, code_rows)).counts == oracle_counts(gf, code_rows)


@pytest.mark.parametrize("low_bits", [0, 50, 150])
def test_spectrum_with_a_smaller_low_block_matches_oracle(monkeypatch, low_bits):
    # A small low-bit budget lowers the low block below k - 1 rows, down to
    # a = 0 (one low combination, every codeword a high part).
    monkeypatch.setattr(codes_module, "_LOW_BITS", low_bits)
    clear_spectrum_caches()
    rng = splitmix64(low_bits)
    try:
        for q, n, k in [(2, 10, 5), (3, 6, 4), (4, 5, 3), (5, 4, 2), (7, 3, 1)]:
            gf = make_field(q)
            rows = random_full_rank_rows(rng, gf, n, k)
            code = LinearCode(gf, rows)
            assert low_block(code) < max(k - 1, 1)
            assert spectrum(code).counts == oracle_counts(gf, rows)
    finally:
        clear_spectrum_caches()


@pytest.mark.parametrize("q, shapes", [
    (2, [(10, 5), (16, 6), (17, 4)]), (3, [(7, 4), (9, 3)]), (4, [(6, 3), (8, 3)]),
    (9, [(5, 3), (4, 2)]),
])
def test_spectrum_at_every_low_block_size_matches_oracle(monkeypatch, q, shapes):
    # The weight split reads a different number of low combinations at each
    # a.  A budget of exactly D * q^(a+2), for the D distinct low columns of
    # length a, stops the rule at that a.  The simplex codes have one nonzero
    # weight, so each high part's L + H take one or two weights, and the split
    # drops every other part as soon as it empties.
    gf = make_field(q)
    rng = splitmix64(q * 1009)
    matrices = [random_full_rank_rows(rng, gf, n, k) for n, k in shapes]
    clear_spectrum_caches()
    try:
        for rows in matrices + [simplex_rows(q, 3)]:
            cols = list(zip(*rows))
            for a in range(len(rows)):
                monkeypatch.setattr(
                    codes_module, "_LOW_BITS", len({c[:a] for c in cols}) * q ** (a + 2))
                code = LinearCode(gf, rows)
                assert low_block(code) == a
                assert spectrum(code).counts == oracle_counts(gf, rows)
                clear_spectrum_caches()
    finally:
        clear_spectrum_caches()


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65])
def test_spectrum_counter_edge_cases_match_oracle(q, n):
    # A k = 1 code has a = 0: one low combination, so every value bitmap is
    # the single bit 1, and a coordinate gives the counter a bitmap only
    # where the high part is 0.  The zero high part gives n bitmaps (an odd
    # number for odd n), with a zero count of n: a power of two, so a new
    # top plane, for n = 1, 2, 8, 16, 64.  The row, zero on `zeros` of its
    # coordinates, gives that many: 0 (nonzero on every coordinate) to 3.
    # k = 2 and 3 put several low combinations in each bitmap, and L = 0
    # against the zero high part again has zero count n.
    gf, top = make_field(q), q - 1
    rng = splitmix64(100 * q + n)
    for zeros in range(min(n - 1, 3) + 1):
        rows = ((top,) * (n - zeros) + (0,) * zeros,)
        assert spectrum(LinearCode(gf, rows)).counts == oracle_counts(gf, rows)
    for k in range(2, min(n, 3) + 1):
        rows = random_full_rank_rows(rng, gf, n, k)
        assert spectrum(LinearCode(gf, rows)).counts == oracle_counts(gf, rows)


def clear_spectrum_caches():
    """Empty the spectrum cache and the value-bitmap cache under it, so the
    next spectrum builds its bitmaps again."""
    codes_module.spectrum.cache_clear()
    codes_module._value_bitmaps.cache_clear()


def low_block(code):
    """a, the number of low rows the spectrum kernel takes for the code: the
    length of every low column it asks `_value_bitmaps` for.  The spectrum
    is computed afresh, past its cache, which it leaves as it was."""
    lengths = set()
    cached = codes_module._value_bitmaps

    def spy(gf, g):
        lengths.add(len(g))
        return cached(gf, g)

    codes_module._value_bitmaps = spy
    try:
        codes_module.spectrum.__wrapped__(code)
    finally:
        codes_module._value_bitmaps = cached
    (a,) = lengths
    return a


def test_every_selftest_code_keeps_the_full_low_block(corpus1000):
    # The budget binds only past the selftest sizes (n <= 14, k <= 5, q <= 4).
    for code in corpus1000:
        assert low_block(code) == code.k - 1, code


# (q, n, k) of the spectrum benchmark's random codes, with the low block a
# that the budget D * q^(a+2) <= _LOW_BITS gives for D = n distinct low columns.
BENCHMARK_LOW_BLOCKS = {
    (2, 48, 21): 14,
    (3, 16, 10): 9,
    (5, 16, 7): 5,
    (4, 30, 8): 6,
    (256, 24, 2): 0,
    (9, 20, 4): 3,
    (25, 12, 3): 1,
}


@pytest.mark.parametrize("shape", sorted(BENCHMARK_LOW_BLOCKS))
def test_low_block_of_the_benchmark_shapes(shape):
    q, n, k = shape
    gf = make_field(q)
    rows = random_full_rank_rows(splitmix64(q * n * k), gf, n, k)
    assert low_block(LinearCode(gf, rows)) == BENCHMARK_LOW_BLOCKS[shape]


def inner_product_bitmaps(gf, g):
    """{v: bitmap} with bit m set iff <m, g> = v, taken digit by digit over
    every message m < q^len(g)."""
    q, expected = gf.q, {}
    for m in range(q ** len(g)):
        value, rest = 0, m
        for x in g:
            rest, digit = divmod(rest, q)
            value = gf.add(value, gf.mul(digit, x))
        expected[value] = expected.get(value, 0) | 1 << m
    return expected


@pytest.mark.parametrize("q, longest", [(2, 3), (3, 3), (4, 3), (9, 3), (8, 2)])
def test_value_bitmaps_match_inner_products(q, longest):
    # Every column g of length 0..longest, every message m < q^len(g): m's bit
    # is set in exactly one bitmap, the one of <m, g> taken digit by digit
    # (and a value no message takes has no bitmap).
    gf = make_field(q)
    for length in range(longest + 1):
        for g in itertools.product(range(q), repeat=length):
            assert codes_module._value_bitmaps(gf, g) == inner_product_bitmaps(gf, g), g


@pytest.mark.parametrize("q, longest", [(2, 14), (3, 8), (4, 5), (9, 5)])
def test_value_bitmaps_repeat_long_bitmaps_at_zero_entries(q, longest):
    # Random columns whose last 1-3 entries are 0: each zero entry repeats
    # bitmaps of q^i bits, up to q^(longest-1), where columns of length <= 3
    # repeat at most q^2.
    gf, rng = make_field(q), splitmix64(q * longest)
    for length in range(4, longest + 1):
        zeros = 1 + next(rng) % 3
        g = tuple(next(rng) % q for _ in range(length - zeros)) + (0,) * zeros
        assert codes_module._value_bitmaps(gf, g) == inner_product_bitmaps(gf, g), g


def traced_spectrum(code):
    """The spectrum and the peak bytes Python allocated while computing it,
    value bitmaps included."""
    clear_spectrum_caches()
    tracemalloc.start()
    try:
        result = spectrum(code).nonzero()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_of_the_binary_48_21_code_stays_small():
    # The largest shape of the spectrum benchmark.  The low side holds at most
    # _LOW_BITS / q bits of bitmaps.  The counter and its weight split hold at
    # most 3(n + 1) more of one low bitmap's q^a bits: the bit_length(n)
    # planes, and the split's parts of the planes read so far and of the next
    # plane, two lists of at most n + 1 nonempty parts, one per zero count.
    q, n = 2, 48
    code = LinearCode(GF2, random_full_rank_rows(splitmix64(4821), GF2, n, 21))
    counts, peak = traced_spectrum(code)
    assert sum(counts.values()) == 2**21 and counts[0] == 1
    width = q ** low_block(code)
    assert peak < (codes_module._LOW_BITS // q + 3 * (n + 1) * width) // 8


def test_spectrum_of_a_large_field_one_row_code():
    # GF(65536) [8,1]: the nonzero codewords are the 65535 multiples of a
    # weight-5 row.  The low block is empty (a = k - 1 = 0), so each bitmap
    # is one bit; a = 1 would hold 2^32 bits per distinct low column.
    code = LinearCode(make_field(65536), ((1, 2, 3, 0, 0, 5, 0, 65535),))
    counts, peak = traced_spectrum(code)
    assert counts == {0: 1, 5: 65535}
    assert peak < 1 << 20


def test_spectrum_of_a_large_field_two_row_code():
    # GF(4096) [20,2] with columns (1,0) x10, (0,1) x5, (1,1) x5.  Codeword
    # c0*r0 + c1*r1 has weight 15 if c1 = 0 or c0 = c1 (characteristic 2),
    # 10 if c0 = 0, and 20 otherwise.
    r0 = (1,) * 10 + (0,) * 5 + (1,) * 5
    r1 = (0,) * 10 + (1,) * 5 + (1,) * 5
    code = LinearCode(make_field(4096), (r0, r1))
    counts, peak = traced_spectrum(code)
    assert counts == {0: 1, 10: 4095, 15: 2 * 4095, 20: 4094 * 4095}
    assert peak < 4 << 20


def test_walk_over_a_large_field_stays_small():
    # The rows of the GF(4096) [20,2] code above: each row is scaled once per
    # distinct step ((a+1) - a takes at most m = 12 values), not q times.
    r0 = (1,) * 10 + (0,) * 5 + (1,) * 5
    r1 = (0,) * 10 + (1,) * 5 + (1,) * 5
    gf = make_field(4096)
    tracemalloc.start()
    try:
        count = sum(1 for _ in projective_codewords(gf, (r0, r1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 4097
    assert peak < 640 << 10


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def macwilliams(dual_counts, n, q):
    """Weight distribution of a code from that of its dual, in exact integers.

    W(z) = (1/|dual|) * sum_w B_w (1 + (q-1) z)^(n-w) (1 - z)^w.
    """
    total = [0] * (n + 1)
    for w, b in dual_counts.items():
        term = [1]
        for factor in [[1, q - 1]] * (n - w) + [[1, -1]] * w:
            term = poly_mul(term, factor)
        for i, c in enumerate(term):
            total[i] += b * c
    size = sum(dual_counts.values())
    assert all(c % size == 0 for c in total)
    return {w: c // size for w, c in enumerate(total) if c}


FIXTURE_SPECTRA = {
    "example_11_3_6": {0: 1, 6: 6, 8: 1},
    "rm_1_4": {0: 1, 8: 30, 16: 1},
    "ratio_4": {0: 1, 4: 15},
    # Dual of the ternary [13,3] simplex code: 26 nonzero words of weight 9.
    "hamming_13_10_3_ternary": macwilliams({0: 1, 9: 26}, 13, 3),
    "cyclic_15_10_4_binary": EXTERNAL_SPECTRA["cyclic_15_10_4_binary"],
}


def check_macwilliams(code):
    """The enumerated spectrum equals the MacWilliams transform of the dual's."""
    dual_counts = spectrum(dual(code)).nonzero()
    assert spectrum(code).nonzero() == macwilliams(dual_counts, code.n, code.q)


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECTRA))
def test_fixture_spectra_match_known_distributions(name):
    code = fixture_code(name)
    assert spectrum(code).nonzero() == FIXTURE_SPECTRA[name]
    check_macwilliams(code)


def test_macwilliams_identity_on_corpus(corpus1000):
    for code in corpus1000:
        if code.k < code.n:
            check_macwilliams(code)


@pytest.mark.parametrize("q, n, k", [(8, 6, 3), (9, 5, 2), (25, 4, 2), (27, 4, 2)])
def test_macwilliams_identity_over_extension_fields(q, n, k):
    gf = make_field(q)
    check_macwilliams(LinearCode(gf, random_full_rank_rows(splitmix64(900 + q), gf, n, k)))


def test_min_distance_examples():
    assert min_distance(LinearCode(GF2, G_11_3_6)) == 6
    eye = LinearCode(GF2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert min_distance(eye) == 1


def test_code_params():
    params = code_params(LinearCode(GF2, G_11_3_6))
    assert (params.n, params.k, params.d, params.q) == (11, 3, 6, 2)
    with pytest.raises(ParamRangeError):
        CodeParams(n=3, k=4, d=1, q=2)
    with pytest.raises(ParamRangeError):
        CodeParams(n=3, k=1, d=0, q=2)
    with pytest.raises(ParamRangeError):
        CodeParams(n=3, k=1, d=1, q=1)


def test_code_params_str_is_the_bracket_label():
    assert str(CodeParams(15, 5, 7, 2)) == "[15,5,7]_2"


def test_replace_and_make_check_like_the_constructor():
    # namedtuple's _replace builds through _make, which would skip __new__.
    params = CodeParams(11, 3, 6, 2)
    assert params == (11, 3, 6, 2) and params._replace(d=5) == CodeParams(11, 3, 5, 2)
    for bad in ({"k": 20}, {"d": 12}, {"q": 1}):
        with pytest.raises(ParamRangeError):
            params._replace(**bad)
    with pytest.raises(ParamRangeError):
        CodeParams._make((3, 1, 4, 2))
    code = LinearCode(GF2, ((1, 0, 1), (0, 1, 1)))
    assert code._replace(rows=[[1, 1, 0], [0, 1, 1]]).rows == ((1, 1, 0), (0, 1, 1))
    with pytest.raises(RankDeficientError):
        code._replace(rows=((1, 1, 1), (1, 1, 1)))
    with pytest.raises(RankDeficientError):
        LinearCode._make((GF2, ((1, 1, 1), (1, 1, 1))))
    with pytest.raises(EntryOutOfRangeError):
        code._replace(gf=GF2, rows=((1, 0, 2),))
    # Copies and pickles rebuild through the same checks and come back equal.
    for record in (params, code, code.gf):
        assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))


def refuses(code, v):
    """Whether residual refuses v with NotACodewordError; another refusal
    (the zero vector, a degenerate residual) or a residual is not that."""
    try:
        residual(code, v)
    except NotACodewordError:
        return True
    except (ZeroCodewordError, DegenerateResidualError):
        pass
    return False


def field_sample(request, field):
    """Every tenth code of the corpus, or random codes over GF(field)."""
    if field == "corpus":
        return request.getfixturevalue("corpus1000")[::10]
    gf, rng = make_field(field), splitmix64(700 + field)
    shapes = [(3, 1), (4, 2), (5, 2)] + ([(5, 3)] if field <= 9 else [])
    return [LinearCode(gf, random_full_rank_rows(rng, gf, n, k)) for n, k in shapes]


@pytest.mark.filterwarnings("ignore::weightbounds.codes.ResidualWindowWarning")
@pytest.mark.parametrize("field", ["corpus", 5, 7, 8, 9, 16, 25, 27])
def test_residual_refuses_exactly_the_non_codewords(request, field):
    # Every nonzero codeword, and a copy of each with one coordinate changed:
    # refused exactly when enumeration does not list the vector.
    for code in field_sample(request, field):
        gf, n = code.gf, code.n
        words = list(iter_codewords(code))
        members = set(words)
        for i, cw in enumerate(words[1:], 1):
            j = i % n
            changed = cw[:j] + (gf.add(cw[j], 1 + i % (gf.q - 1)),) + cw[j + 1:]
            assert not refuses(code, cw)
            assert refuses(code, changed) == (changed not in members)


def test_residual_checks_length_and_entries_before_reducing(monkeypatch):
    code = LinearCode(GF3, ((1, 0, 2, 1), (0, 1, 1, 2)))

    def no_reduction(*args):
        raise AssertionError("row-reduced an unchecked vector")

    for name in ("row_reduce", "echelon_insert"):
        monkeypatch.setattr(codes_module, name, no_reduction)
    for v in [(1, 0, 2), (1, 0, 2, 1, 0)]:
        with pytest.raises(LengthMismatchError):
            residual(code, v)
    with pytest.raises(EntryOutOfRangeError):
        residual(code, (1, 0, 3, 1))


def test_a_code_is_its_field_and_rows():
    rows = ((2, 1, 0, 2), (1, 2, 2, 0))
    code = LinearCode(GF3, rows)
    assert code.rows == rows
    assert LinearCode._fields == ("gf", "rows")
    reduced = code_from_matrix(GF3, rows, auto_reduce=True)
    assert reduced.rows == reference_rref(GF3, rows)[0]
    # Equality, hashing and repr read (gf, rows) only.
    same = LinearCode(GF3, rows)
    assert same == code and hash(same) == hash(code) and code != reduced
    assert repr(code) == f"LinearCode(gf={GF3!r}, rows={rows!r})"
    with pytest.raises(TypeError):
        LinearCode(GF3, rows, rows)


def check_dual(code):
    """G * H^T = 0, dimension n - k, and the dual of the dual is the code."""
    gf, h = code.gf, dual(code)
    assert (h.n, h.k) == (code.n, code.n - code.k)
    for g in code.rows:
        for row in h.rows:
            dot = 0
            for x, y in zip(g, row):
                dot = gf.add(dot, gf.mul(x, y))
            assert dot == 0
    assert row_reduce(gf, dual(h).rows)[0] == row_reduce(gf, code.rows)[0]


def test_dual_on_corpus(corpus1000):
    for code in corpus1000:
        if code.k < code.n:
            check_dual(code)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 16, 25, 27])
def test_dual_over_other_fields(q):
    gf = make_field(q)
    rng = splitmix64(800 + q)
    for n, k in [(2, 1), (4, 2), (5, 2), (6, 3), (7, 5)]:
        check_dual(LinearCode(gf, random_full_rank_rows(rng, gf, n, k)))


def test_a_code_of_full_length_has_no_dual_rows():
    with pytest.raises(EmptyMatrixError):
        dual(LinearCode(GF3, ((1, 0), (0, 1))))


def test_residual_weight6_codeword():
    code = LinearCode(GF2, G_11_3_6)
    c2 = (1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0)
    res = residual(code, c2)
    assert (res.n, res.k) == (5, 2)
    # Oracle: puncture all eight codewords at supp(c2) and enumerate.
    keep = [j for j, x in enumerate(c2) if x == 0]
    punctured = {tuple(w[j] for j in keep) for w in brute_codewords(GF2, G_11_3_6)}
    assert punctured == set(iter_codewords(res))
    d_res = min_distance(res)
    assert d_res == min(hamming_weight(w) for w in punctured if any(w))
    assert d_res >= 6 - 6 + 3  # d - w + ceil(w/q)


def test_residual_weight8_codeword_still_in_window():
    # w = 8 < 12 = q*d, so the dimension guarantee applies here too.
    code = LinearCode(GF2, G_11_3_6)
    c1 = (1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0)
    res = residual(code, c1)
    assert (res.n, res.k) == (3, 2)
    assert min_distance(res) >= 6 - 8 + 4


def test_residual_single_surviving_coordinate():
    code = LinearCode(GF2, ((1, 1, 0), (0, 1, 1)))
    res = residual(code, (1, 1, 0))
    assert (res.n, res.k) == (1, 1)
    assert min_distance(res) == 1


def test_residual_outside_window_warns_and_reports_actual_rank():
    code = LinearCode(GF2, ((1, 0, 0, 0), (0, 1, 1, 1)))
    assert min_distance(code) == 1
    with pytest.warns(ResidualWindowWarning):
        res = residual(code, (0, 1, 1, 1))  # w = 3 >= q*d = 2
    assert (res.n, res.k) == (1, 1)


def test_residual_rejections():
    code = LinearCode(GF2, G_11_3_6)
    with pytest.raises(ZeroCodewordError):
        residual(code, (0,) * 11)
    with pytest.raises(NotACodewordError):
        residual(code, (1,) + (0,) * 10)
    rep = LinearCode(GF2, ((1, 1, 1),))
    with pytest.raises(DegenerateResidualError):
        residual(rep, (1, 1, 1))
    # k = 1: every puncture at a codeword support kills the whole row space.
    short = LinearCode(GF2, ((1, 1, 0),))
    with pytest.raises(DegenerateResidualError):
        residual(short, (1, 1, 0))


def test_find_codeword_of_weight():
    code = LinearCode(GF2, G_11_3_6)
    assert find_codeword_of_weight(code, 8) == (1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0)
    assert find_codeword_of_weight(code, 6) == (1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0)
    third = find_codeword_of_weight(code, 6, index=2)
    assert hamming_weight(third) == 6
    with pytest.raises(ValueError):
        find_codeword_of_weight(code, 7)
    with pytest.raises(ValueError):
        find_codeword_of_weight(code, 6, index=6)


@pytest.mark.parametrize("w, index, present", [(14, 0, 0), (7, 0, 0), (6, 6, 6)])
def test_find_codeword_reports_a_missing_codeword_from_the_spectrum(
    w, index, present, monkeypatch
):
    code = LinearCode(GF2, G_11_3_6)
    spectrum(code)

    def enumerate_nothing(code):
        raise AssertionError("walked the code although the spectrum settles it")

    monkeypatch.setattr(codes_module, "iter_codewords", enumerate_nothing)
    message = f"code has {present} codeword(s) of weight {w}; index {index} not found"
    with pytest.raises(ValueError, match=re.escape(message)):
        find_codeword_of_weight(code, w, index)


def test_find_codeword_walk_disagreeing_with_the_spectrum_is_an_internal_error(
    monkeypatch
):
    monkeypatch.setattr(codes_module, "iter_codewords", lambda code: iter(()))
    with pytest.raises(AssertionError, match="spectrum 1"):
        find_codeword_of_weight(LinearCode(GF2, G_11_3_6), 8)


@pytest.mark.parametrize("w, index", [(-1, 0), (6, -1)])
def test_find_codeword_rejects_negative_weight_or_index_before_enumerating(
    w, index, monkeypatch
):
    def enumerate_nothing(code):
        raise AssertionError("enumerated before checking the arguments")

    monkeypatch.setattr(codes_module, "iter_codewords", enumerate_nothing)
    with pytest.raises(ParamRangeError):
        find_codeword_of_weight(LinearCode(GF2, G_11_3_6), w, index)


def test_generator_file_round_trip():
    code = LinearCode(GF4, ((1, 2, 3, 0), (0, 1, 1, 2)))
    text = generator_text(code, comment="round trip\nsecond line")
    parsed = parse_generator_text(text)
    assert parsed == code
    assert text.startswith("# round trip\n# second line\n4 4 2\n")
    # An indented '#' line is a comment; '\r\n' and '\x0c' break lines like '\n'.
    for variant in (text.replace("# ", " \t# "), text.replace("\n", "\r\n"),
                    text.replace("\n", "\x0c")):
        assert parse_generator_text(variant) == code


def test_generator_file_errors():
    with pytest.raises(ValueError):
        parse_generator_text("# only comments\n")
    with pytest.raises(ValueError):
        parse_generator_text("2 3\n1 0 1\n")
    with pytest.raises(ValueError):
        parse_generator_text("2 3 2\n1 0 1\n")
    with pytest.raises(ValueError):
        parse_generator_text("2 3 1\n1 0\n")
    with pytest.raises(EntryOutOfRangeError):
        parse_generator_text("2 3 1\n1 0 5\n")
    # The header message quotes the stripped header line.
    with pytest.raises(ValueError, match=re.escape("got '2  3'")):
        parse_generator_text(" 2  3 \t\n1 0 1\n")
    # A bad token anywhere comes first, then the row count, then the row lengths.
    with pytest.raises(ValueError, match=re.escape("line 3: '+1'")):
        parse_generator_text("2 3 1\n1 0 1\n1 +1 1\n")
    with pytest.raises(ValueError, match="expected 2 rows, found 1"):
        parse_generator_text("2 3 2\n1 0\n")


def test_generator_file_shapes_are_checked_before_the_field_is_built(monkeypatch):
    # Building GF(65536) takes about a second; a malformed file needs none.
    def no_field(q):
        raise AssertionError(f"built GF({q}) before checking the shapes")

    monkeypatch.setattr(codes_module, "make_field", no_field)
    with pytest.raises(ValueError, match="expected 3 entries per row, got 2"):
        parse_generator_text("65536 3 1\n0 0\n")
    with pytest.raises(ValueError, match="expected 1 rows, found 0"):
        parse_generator_text("65536 3 1\n")
    # No code has k = 0 or k > n, whatever follows the header.
    with pytest.raises(ValueError, match="1 <= k <= n, got n = 3, k = 0"):
        parse_generator_text("65536 3 0\n")
    with pytest.raises(ValueError, match="1 <= k <= n, got n = 1, k = 2097140"):
        parse_generator_text("65521 1 2097140\n0\n0\n")


def test_a_file_breaking_a_shape_and_a_field_rule_reports_the_shape():
    # q = 6 names no field, and the row is short: the shape error wins.
    with pytest.raises(ValueError, match="expected 3 entries per row, got 2"):
        parse_generator_text("6 3 1\n1 0\n")


NON_ASCII_OR_SIGNED = ["\u0661", "+1", "1_0"]  # ARABIC-INDIC DIGIT ONE, sign, separator


@pytest.mark.parametrize("token", NON_ASCII_OR_SIGNED)
def test_generator_file_rejects_tokens_int_would_accept(token):
    with pytest.raises(ValueError, match=re.escape(f"line 3: {token!r}")):
        parse_generator_text(f"# comment\n2 3 1\n1 {token} 1\n")
    with pytest.raises(ValueError, match=re.escape(f"line 1: {token!r}")):
        parse_generator_text(f"2 {token} 1\n1 1 1\n")


def test_generator_file_may_start_with_a_byte_order_mark(tmp_path):
    # Oracle: the same file without the mark.
    text = generator_text(LinearCode(GF2, G_11_3_6))
    path = tmp_path / "bom.gen"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_generator_file(path) == parse_generator_text(text)
    # Anywhere else the mark is a token like any other, and is refused.
    first, rest = text.split("\n", 1)
    path.write_text(first + "\n\ufeff" + rest, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape("line 2: '\\ufeff1'")):
        read_generator_file(path)


def test_generator_file_of_more_than_max_file_chars_is_refused(tmp_path):
    # A comment pads the file to the bound, where it still reads, then past it.
    text = generator_text(LinearCode(GF2, G_11_3_6))
    path = tmp_path / "long.gen"
    padding = "# " + "x" * (codes_module.MAX_FILE_CHARS - len(text) - 3) + "\n"
    path.write_text(padding + text, encoding="utf-8")
    assert read_generator_file(path) == parse_generator_text(text)
    path.write_text("#" + padding + text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"more than {codes_module.MAX_FILE_CHARS} characters"):
        read_generator_file(path)


def test_weight_spectrum_properties():
    spec = WeightSpectrum((1, 0, 0, 4, 0, 3))
    assert len(spec.counts) - 1 == 5
    assert spec.min_distance == 3
    assert max(spec.nonzero()) == 5
    assert sum(spec.counts) == 8
    assert spec.nonzero() == {0: 1, 3: 4, 5: 3}
