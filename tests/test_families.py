"""Closed-form code families as large-field oracles for the spectrum kernel.

Reed-Solomon [n, k] codes, from the Vandermonde rows (x^i for the first n
field elements x, 0 <= i < k), are MDS: d = n - k + 1, and their weight
distribution has a closed form (MacWilliams & Sloane, ch. 11, Thm 6).
Over every field below they reach the kernel's large-field paths: the
budget that lowers the low block, Zech addition for odd p, and the
value-bitmap cache.
"""

from math import comb

from weightbounds.bounds import max_window_weight, parameter_verdicts
from weightbounds.codes import LinearCode, spectrum
from weightbounds.exclusion import audit_against_spectrum
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
