"""Every small code, not a random sample: the spectrum kernel against a
brute-force count (`conftest.oracle_counts`, which uses no enumeration
or weight helper of the package), and the three criteria sound and sharp
in the window.

A k-dimensional code has one RREF generator matrix, so listing every
k x n RREF with k nonzero rows (2 <= k <= n - 1) lists every code of
length n once.  For each tuple (n, k, d, q) that some listed code has:

* sound: no code attains a weight that a criterion excludes;
* sharp: inside the window d <= w <= min(n, max_window_weight(d, q)),
  every weight that no criterion excludes is attained by some code.

Together they pin the union of the criteria exactly on those tuples.
The number of nonzero weights is bounded too: no code has more distinct
nonzero weights than [d, min(n, q(n - d))] holds weights outside the
union.  That follows from soundness and the weight cap w <= q(n - d), so
what is new is the pinned number of tuples on which some code meets it.
"""

import itertools
from collections import defaultdict

import pytest
from conftest import oracle_counts

from weightbounds.bounds import max_window_weight
from weightbounds.codes import CodeParams, LinearCode, spectrum
from weightbounds.exclusion import audit_against_spectrum, compare_methods
from weightbounds.gf import make_field


def rref_matrices(q, n, k):
    """Every k x n RREF over GF(q) with k nonzero rows: a pivot set, and in
    each row any entries at the non-pivot columns right of its pivot."""
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i, p in enumerate(pivots)
                for j in range(p + 1, n) if j not in pivots]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[int(j == p) for j in range(n)] for p in pivots]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield tuple(map(tuple, rows))


def gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of GF(q)^n."""
    top = bottom = 1
    for i in range(k):
        top *= q ** (n - i) - 1
        bottom *= q ** (i + 1) - 1
    return top // bottom


# q -> the number of tuples on which some code meets the count bound
COUNT_BOUND_MET = {2: 11, 3: 11, 4: 6}


@pytest.mark.parametrize("q, longest, tuples", [(2, 6, 24), (3, 5, 14), (4, 4, 7)])
def test_every_small_code_sound_and_sharp(q, longest, tuples):
    gf = make_field(q)
    attained = defaultdict(set)  # (n, k, d) -> the weights codes with them attain
    most = defaultdict(int)  # (n, k, d) -> the most distinct nonzero weights of a code
    for n in range(3, longest + 1):
        for k in range(2, n):
            listed = 0
            for rows in rref_matrices(q, n, k):
                code = LinearCode(gf, rows)
                spec = spectrum(code)
                counts = spec.counts
                assert counts == oracle_counts(gf, rows), rows
                assert audit_against_spectrum(code) == [], rows
                weights = [w for w, c in enumerate(counts) if c and w]
                key = n, k, spec.min_distance
                attained[key].update(weights)
                most[key] = max(most[key], len(weights))
                listed += 1
            assert listed == gaussian_binomial(n, k, q), (n, k)
    assert len(attained) == tuples
    bound_met = 0
    for (n, k, d), weights in attained.items():
        excluded = compare_methods(CodeParams(n, k, d, q)).union
        window = range(d, min(n, max_window_weight(d, q)) + 1)
        missing = [w for w in window if w not in excluded and w not in weights]
        assert missing == [], (n, k, d, q)
        bound = len(set(range(d, min(n, q * (n - d)) + 1)) - excluded)
        assert most[n, k, d] <= bound, (n, k, d, q)
        bound_met += most[n, k, d] == bound
    assert bound_met == COUNT_BOUND_MET[q]
