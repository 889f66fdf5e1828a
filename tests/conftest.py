import contextlib
import io
import os
import warnings
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from weightbounds import cli
from weightbounds.codes import LinearCode, read_generator_file, row_reduce
from weightbounds.corpus import DEFAULT_SELFTEST_SEED, random_corpus

pytest_plugins = ["pytester"]

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# "repro" (the default) replays the same examples on every run; with
# HYPOTHESIS_PROFILE=explore each run draws 1000 fresh examples per test.
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "explore", settings.get_profile("repro"), derandomize=False, max_examples=1000
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture(scope="session")
def corpus1000():
    """The seeded 1000-code corpus shared by the property and acceptance suites."""
    return list(random_corpus(1000, DEFAULT_SELFTEST_SEED))


def fixture_code(name):
    """The code in fixtures/<name>.gen, the one home of the paper's named codes."""
    return read_generator_file(FIXTURES / f"{name}.gen")


def run_main(argv):
    """(exit status, stdout, stderr, warned) of `cli.main(argv)` in this
    process; `warned` says whether it emitted any Python warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on usage errors and --help
            status = exc.code
    return status, out.getvalue(), err.getvalue(), bool(caught)


def brute_codewords(gf, rows):
    """Independent enumeration oracle: all coefficient combinations, naively.

    Matches the documented message order (digit 0 scales rows[0] and is
    least significant), so product() tuples pair with reversed rows.
    """
    n = len(rows[0])
    out = []
    for coeffs in product(range(gf.q), repeat=len(rows)):
        cw = [0] * n
        for c, row in zip(coeffs, reversed(rows)):
            for j, x in enumerate(row):
                cw[j] = gf.add(cw[j], gf.mul(c, x))
        out.append(tuple(cw))
    return out


def oracle_counts(gf, rows):
    """Weight distribution counted over brute_codewords, with no package helper."""
    counts = [0] * (len(rows[0]) + 1)
    for cw in brute_codewords(gf, rows):
        counts[sum(x != 0 for x in cw)] += 1
    return tuple(counts)


def reference_rref(gf, rows):
    """Independent RREF oracle: (nonzero rows, rank) by Gauss-Jordan one
    scalar at a time, leftmost column first, then the topmost row with a
    nonzero entry there.  A row space has one RREF, so any pivot rule agrees."""
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = gf.inv(mat[r][c])
        mat[r] = [gf.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [gf.add(x, gf.neg(gf.mul(f, y))) for x, y in zip(mat[i], mat[r])]
        r += 1
    basis = tuple(tuple(row) for row in mat[:r])
    return basis, len(basis)


def dual(code):
    """The dual code, [-A^T | I] from the RREF [I | A] (up to column order):
    one row per non-pivot column f, with 1 at f and -rref_i[f] at the pivot
    of RREF row i.  A code with k = n has no dual rows: EmptyMatrixError."""
    gf, n = code.gf, code.n
    rref = row_reduce(gf, code.rows)[0]
    at = {row.index(1): row for row in rref}  # pivot: RREF rows lead with 1
    return LinearCode(gf, tuple(
        tuple(gf.neg(at[j][f]) if j in at else int(j == f) for j in range(n))
        for f in range(n) if f not in at
    ))


def ratio_rows(q):
    """Rows of the [q+1, 2, q]_q code attaining (q+1)*d = q*n: all ones then a
    zero, and every field element in encoding order then a one."""
    return ((1,) * q + (0,), tuple(range(q)) + (1,))


def simplex_rows(q, k):
    """Rows of the [(q^k - 1)/(q - 1), k]_q simplex code: one column per
    point of PG(k-1, q), first nonzero entry 1, points in lexicographic order."""
    points = [p for p in product(range(q), repeat=k) if next(filter(None, p), 0) == 1]
    return tuple(tuple(pt[r] for pt in points) for r in range(k))
