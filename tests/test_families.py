"""Closed-form code families as oracles for the spectrum kernel and the criteria.

Reed-Solomon [n, k] codes, from the Vandermonde rows (x^i for the first n
field elements x, 0 <= i < k), are MDS: d = n - k + 1, and their weight
distribution has a closed form (MacWilliams & Sloane, ch. 11, Thm 6).
Over every field below they reach the kernel's large-field paths: the
budget that lowers the low block, Zech addition for odd p, and the
value-bitmap cache.  Doubly extended Reed-Solomon [q+1, k] codes add the
column at infinity to the rows over all q elements; they are MDS too, and
at k = 2 they are the one shape where the MDS weight rule w <= q binds.

Simplex codes (every nonzero weight q^(k-1)) meet the Griesmer bound, and
first-order Reed-Muller codes RM(1, m) reach the weight cap q(n - d).
Both repeat their low column prefixes heavily (few distinct low columns
for their length), and on both the criteria exclude every weight above d
that the code does not attain.
"""

from math import comb

from conftest import simplex_rows

from weightbounds.bounds import griesmer_min_n, max_window_weight, parameter_verdicts
from weightbounds.codes import CodeParams, LinearCode, spectrum
from weightbounds.exclusion import audit_against_spectrum, compare_methods
from weightbounds.gf import make_field

FIELDS = (4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32)


def reed_solomon_rows(gf, n, k):
    """Rows (x^i for x = 0, 1, ..., n-1 in the field encoding), i < k."""
    rows, power = [], [1] * n
    for _ in range(k):
        rows.append(tuple(power))
        power = [gf.mul(p, x) for p, x in zip(power, range(n))]
    return tuple(rows)


def mds_counts(n, k, q):
    """A_w = C(n, w) sum_{j=0}^{w-d} (-1)^j C(w, j) (q^(w-d+1-j) - 1), d = n-k+1."""
    d = n - k + 1
    counts = [1] + [0] * n
    for w in range(d, n + 1):
        counts[w] = comb(n, w) * sum((-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1)
                                     for j in range(w - d + 1))
    return tuple(counts)


def test_reed_solomon_spectra_audits_and_verdicts():
    shapes = mds_verdicts = 0
    for q in FIELDS:
        gf = make_field(q)
        for n in range(3, q + 1):
            for k in range(2, n):
                if q**k > 1 << 16:
                    break
                code = LinearCode(gf, reed_solomon_rows(gf, n, k))
                counts = spectrum(code).counts
                assert counts == mds_counts(n, k, q), (q, n, k)
                assert audit_against_spectrum(code) == [], (q, n, k)
                d = n - k + 1
                for w in range(d, min(n, max_window_weight(d, q)) + 1):
                    if counts[w]:
                        verdicts = parameter_verdicts(n, k, d, q, w)
                        assert all(v.holds for v in verdicts), (q, n, k, w)
                        mds_verdicts += sum(v.name == "mds-weight" for v in verdicts)
                shapes += 1
    # d <= n - 1 < q leaves w = d the one in-window weight, so one
    # `mds-weight` verdict per code.
    assert shapes == 309
    assert mds_verdicts == shapes


def test_doubly_extended_reed_solomon_codes_where_the_mds_rule_binds():
    shapes = 0
    for q in (2, 3, *FIELDS):
        gf = make_field(q)
        for k in range(2, q + 1):
            if q**k > 1 << 16:
                break
            rows = reed_solomon_rows(gf, q, k)
            code = LinearCode(gf, tuple(r + (int(i == k - 1),) for i, r in enumerate(rows)))
            n = q + 1
            counts = spectrum(code).counts
            assert counts == mds_counts(n, k, q), (q, k)
            assert audit_against_spectrum(code) == [], (q, k)
            if k == 2:
                # d = q, so w = n = q + 1 is in the window (only k <= 2 puts it
                # there), and the rule excludes the weight no such code attains.
                verdicts = {v.name: v for v in parameter_verdicts(n, 2, q, q, n)}
                assert not verdicts["mds-weight"].holds, q
                assert counts[n] == 0, q
                assert n in compare_methods(CodeParams(n, 2, q, q)).singleton, q
            shapes += 1
    assert shapes == 37


def test_simplex_codes_meet_griesmer_and_every_criterion_is_sharp():
    shapes = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        gf = make_field(q)
        for k in range(2, 13):
            if q**k > 1 << 12:
                break
            code = LinearCode(gf, simplex_rows(q, k))
            n, d = code.n, q ** (k - 1)
            assert spectrum(code).nonzero() == {0: 1, d: q**k - 1}, (q, k)
            assert n == griesmer_min_n(k, d, q), (q, k)
            assert audit_against_spectrum(code) == [], (q, k)
            verdicts = {v.name: v for v in parameter_verdicts(n, k, d, q, d)}
            assert all(v.holds for v in verdicts.values()), (q, k)
            assert verdicts["griesmer"].tight and verdicts["residual-griesmer"].tight, (q, k)
            union = compare_methods(CodeParams(n, k, d, q)).union
            assert union == set(range(d + 1, n + 1)), (q, k)
            shapes += 1
    assert shapes == 40


def reed_muller_1_rows(m):
    """Rows of RM(1, m): the all-ones row, then bit i of x for x < 2^m, i < m."""
    n = 1 << m
    return ((1,) * n,) + tuple(tuple(x >> i & 1 for x in range(n)) for i in range(m))


def test_first_order_reed_muller_codes_reach_the_weight_cap():
    gf = make_field(2)
    for m in range(2, 12):
        code = LinearCode(gf, reed_muller_1_rows(m))
        n, k, d = code.n, m + 1, 1 << (m - 1)
        assert spectrum(code).nonzero() == {0: 1, d: 2 ** (m + 1) - 2, n: 1}, m
        assert audit_against_spectrum(code) == [], m
        verdicts = {v.name: v for v in parameter_verdicts(n, k, d, 2, n)}
        assert verdicts["global-weight"].holds and verdicts["global-weight"].tight, m
        assert not verdicts["weight-window"].holds, m
        assert compare_methods(CodeParams(n, k, d, 2)).union == set(range(d + 1, n)), m
