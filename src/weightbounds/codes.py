"""Linear codes as generator matrices over GF(q).

Provides rank-checked construction, deterministic row reduction,
membership and the dual code read from the reduced row-echelon form
(RREF) that each code keeps, exhaustive weight spectra, minimum distance,
and the residual-code construction (puncture a code at the support of
one of its codewords).

The spectrum kernel meets in the middle, the same way for every q.  The
first a rows span the low combinations L, each one-hot encoded as an
integer of n*q bits; the other rows give the high parts H, taken only
up to scalars.  One XOR and one popcount, both in C, give the weight of
each L + H, so a spectrum costs about q^k/(q-1) + q^a such operations
and q^(k-a)/(q-1) Python-level steps.  a is ceil(k/2), lowered until
the q^a low integers fit in _LOW_BITS (down to a = 0) to bound memory
for large q.  The enumeration limit still counts all q^k codewords.

Codeword enumeration order is fixed: message integer m in [0, q^k)
has base-q digits d_0 ... d_{k-1} (d_0 least significant), and the
m-th codeword is sum_i element(d_i) * rows[i].  All "first codeword
of weight w" semantics refer to this order.  The walk adds whole vectors
(`GF.add_vec`); `projective_codewords`, one codeword per scalar class in
this order, feeds the spectrum's high parts and the residual-lemma suite.
"""

from __future__ import annotations

import functools
import operator
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .bounds import max_window_weight
from .errors import (
    DegenerateResidualError,
    EmptyMatrixError,
    EnumerationTooLargeError,
    LengthMismatchError,
    NotACodewordError,
    ParamRangeError,
    RankDeficientError,
    ZeroCodewordError,
)
from .gf import GF, Vector, make_field

DEFAULT_ENUMERATION_LIMIT = 1 << 26


class ResidualWindowWarning(UserWarning):
    """Residual taken outside the w*(q-1) < q*d window: no dimension guarantee."""


def hamming_weight(v: Sequence[int]) -> int:
    """Number of nonzero coordinates."""
    return len(v) - tuple(v).count(0)


@dataclass(frozen=True)
class CodeParams:
    """The parameter tuple (n, k, d, q) that the bound formulas operate on."""

    n: int
    k: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n and 1 <= self.d <= self.n and self.q >= 2):
            raise ParamRangeError(
                f"invalid parameters n={self.n} k={self.k} d={self.d} q={self.q}"
            )

    def __str__(self) -> str:
        return f"[{self.n},{self.k},{self.d}]_{self.q}"


@dataclass(frozen=True)
class WeightSpectrum:
    """Exact codeword counts per Hamming weight: counts[w] codewords of weight w."""

    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    @property
    def min_distance(self) -> int:
        for w in range(1, len(self.counts)):
            if self.counts[w]:
                return w
        raise ValueError("spectrum has no nonzero weight")

    @property
    def max_weight(self) -> int:
        return max(w for w in range(len(self.counts)) if self.counts[w])

    def total(self) -> int:
        return sum(self.counts)

    def nonzero(self) -> dict[int, int]:
        """Counts with zero entries omitted, keyed by weight."""
        return {w: c for w, c in enumerate(self.counts) if c}


@dataclass(frozen=True)
class LinearCode:
    """A linear [n, k] code given by k independent generator rows over a field.

    Rows are kept exactly as supplied; construction rejects rank-deficient
    matrices (use `code_from_matrix(..., auto_reduce=True)` to accept any
    matrix and keep a row-space basis instead).  `rref` is their RREF, the
    `rows` object itself when the rows are already reduced.
    """

    gf: GF
    rows: tuple[Vector, ...]
    rref: tuple[Vector, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rows:
            raise EmptyMatrixError("a generator matrix needs at least one row")
        n = len(self.rows[0])
        if n == 0:
            raise EmptyMatrixError("a generator matrix needs at least one column")
        for row in self.rows:
            if len(row) != n:
                raise LengthMismatchError("generator rows have unequal lengths")
            for x in row:
                self.gf.check(x)
        rref, rank = row_reduce(self.gf, self.rows)
        if rank != len(self.rows):
            raise RankDeficientError(
                f"supplied {len(self.rows)} rows but rank is {rank}"
            )
        object.__setattr__(self, "rref", self.rows if rref == self.rows else rref)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def q(self) -> int:
        return self.gf.q


def row_reduce(gf: GF, rows: Iterable[Sequence[int]]) -> tuple[tuple[Vector, ...], int]:
    """Reduced row-echelon form over GF(q).

    Pivot choice is deterministic: leftmost column first, then the topmost
    row with a nonzero entry there.  Returns (nonzero rows of the RREF,
    rank).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return (), 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = gf.inv(mat[r][c])
        if inv != 1:
            mat[r] = list(gf.scale_vec(inv, mat[r]))
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = list(gf.sub_vec(mat[i], gf.scale_vec(f, mat[r])))
        r += 1
        if r == len(mat):
            break
    basis = tuple(tuple(row) for row in mat[:r] if any(row))
    return basis, len(basis)


def code_from_matrix(
    gf: GF, rows: Iterable[Sequence[int]], auto_reduce: bool = False
) -> LinearCode:
    """Build a LinearCode from generator rows.

    By default the rows must already be independent; with auto_reduce a
    row-space basis (RREF) is kept instead.
    """
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        raise EmptyMatrixError("a generator matrix needs at least one row")
    if auto_reduce:
        for row in rows:
            for x in row:
                gf.check(x)
        basis, rank = row_reduce(gf, rows)
        if rank == 0:
            raise RankDeficientError("row space is zero")
        return LinearCode(gf, basis)
    return LinearCode(gf, rows)


def in_row_space(code: LinearCode, v: Sequence[int]) -> bool:
    """Whether v lies in the code: clear v at each RREF pivot, then test for zero."""
    gf, rest = code.gf, list(v)  # a list: see _walk on short tuples
    if len(rest) != code.n:
        return False
    for row in code.rref:
        c = rest[row.index(1)]  # the entry at the pivot: RREF rows lead with 1
        if c:
            rest = list(gf.sub_vec(rest, gf.scale_vec(c, row)))
    return not any(rest)


def dual(code: LinearCode) -> LinearCode:
    """The dual code, [-A^T | I] from the RREF [I | A] (up to column order):
    one row per non-pivot column f, with 1 at f and -rref_i[f] at the pivot
    of RREF row i.  A code with k = n has no dual rows: EmptyMatrixError."""
    gf, n = code.gf, code.n
    at = {row.index(1): row for row in code.rref}  # pivot: RREF rows lead with 1
    return LinearCode(gf, tuple(
        tuple(gf.neg(at[j][f]) if j in at else int(j == f) for j in range(n))
        for f in range(n) if f not in at
    ))


def iter_codewords(code: LinearCode) -> Iterator[Vector]:
    """Yield all q^k codewords in message order (see module docstring)."""
    return _walk(code.gf, code.rows, (0,) * code.n)


def _walk(gf: GF, rows: Sequence[Vector], start: Vector) -> Iterator[Vector]:
    """Yield start + every combination of rows, in message order."""
    q, k = gf.q, len(rows)
    add_vec = gf.add_vec
    # Lists, not tuples: short tuples freed in bulk stay on CPython's per-size
    # free lists until a full gc, which raised the suite's peak memory by 8%.
    scaled = [[list(gf.scale_vec(c, row)) for c in range(q)] for row in rows]
    # diff[i][a]: change of the codeword when digit i steps a -> (a+1) mod q.
    diff = [[list(gf.sub_vec(s[(a + 1) % q], s[a])) for a in range(q)] for s in scaled]
    digits = [0] * k
    cw = list(start)
    yield tuple(cw)
    for _ in range(q**k - 1):
        i = 0
        while digits[i] == q - 1:
            cw[:] = add_vec(cw, diff[i][q - 1])
            digits[i] = 0
            i += 1
        cw[:] = add_vec(cw, diff[i][digits[i]])
        digits[i] += 1
        yield tuple(cw)


def projective_codewords(gf: GF, rows: Sequence[Vector]) -> Iterator[Vector]:
    """One codeword per nonzero scalar class: the combinations of rows whose
    last nonzero coefficient is 1, ordered as in the message order."""
    for t, row in enumerate(rows):
        yield from _walk(gf, rows[:t], row)


def _check_limit(code: LinearCode, limit: int | None) -> None:
    limit = DEFAULT_ENUMERATION_LIMIT if limit is None else limit
    size = code.q**code.k
    if size > limit:
        raise EnumerationTooLargeError(
            f"enumerating q^k = {size} codewords exceeds the limit {limit}; "
            f"a limit of at least {size} is required"
        )


_LOW_BITS = 1 << 24  # bits of low one-hot integers a spectrum may hold (2 MiB)


@functools.lru_cache(maxsize=4096)
def _spectrum_counts(code: LinearCode) -> tuple[int, ...]:
    """Meet in the middle: low combinations L against projective high parts H.

    A vector v is one-hot encoded as the integer with bit j*q + v[j] set
    for each coordinate j, so weight(L - H) = popcount(oh(L) ^ oh(H)) / 2;
    L -> -L permutes the low span, so over all L these are the weights of
    L + H.  Nonzero H is taken only up to scalars (its last nonzero digit
    is 1): L + cH ranges over c * (L' + H), so each such H stands for q-1.
    """
    gf, q, n = code.gf, code.q, code.n
    a = (code.k + 1) // 2
    while a and q**a * n * q > _LOW_BITS:
        a -= 1
    low, high = code.rows[:a], code.rows[a:]
    zero = (0,) * n
    offsets = range(0, n * q, q)

    def onehot(v: Iterable[int]) -> int:
        return sum(map(operator.lshift, repeat(1), map(operator.add, offsets, v)))

    lows = [onehot(v) for v in _walk(gf, low, zero)]

    def weights(h: Sequence[int]) -> Iterator[int]:
        """2 * weight(L - h) for every low combination L."""
        return map(int.bit_count, map(operator.xor, repeat(onehot(h)), lows))

    tally: Counter[int] = Counter()
    for h in projective_codewords(gf, high):
        tally.update(weights(h))
    counts = [0] * (n + 1)
    for bits, c in tally.items():
        counts[bits // 2] = c * (q - 1)
    for bits, c in Counter(weights(zero)).items():
        counts[bits // 2] += c
    return tuple(counts)


def spectrum(code: LinearCode, limit: int | None = None) -> WeightSpectrum:
    """Exact weight distribution over all q^k codewords (see module docstring)."""
    _check_limit(code, limit)
    return WeightSpectrum(_spectrum_counts(code))


def min_distance(code: LinearCode, limit: int | None = None) -> int:
    """Smallest nonzero codeword weight."""
    return spectrum(code, limit).min_distance


def code_params(code: LinearCode, limit: int | None = None) -> CodeParams:
    """The (n, k, d, q) tuple of the code, with d computed exactly."""
    return CodeParams(n=code.n, k=code.k, d=min_distance(code, limit), q=code.q)


def find_codeword_of_weight(
    code: LinearCode, w: int, index: int = 0, limit: int | None = None
) -> Vector:
    """The index-th codeword of weight w in enumeration order (0-based).

    The spectrum settles whether that codeword exists, so a missing one is
    reported without walking the code.
    """
    if w < 0 or index < 0:
        raise ParamRangeError(f"need w >= 0 and index >= 0, got w={w} index={index}")
    counts = spectrum(code, limit).counts
    present = counts[w] if w < len(counts) else 0
    if present <= index:
        raise ValueError(
            f"code has {present} codeword(s) of weight {w}; index {index} not found"
        )
    seen = 0
    for cw in iter_codewords(code):
        if len(cw) - cw.count(0) == w:
            if seen == index:
                return cw
            seen += 1
    raise AssertionError(f"walk found {seen} codeword(s) of weight {w}, spectrum {present}")


def residual(
    code: LinearCode, codeword: Sequence[int], limit: int | None = None
) -> LinearCode:
    """Puncture the code at the support of one of its codewords.

    For a codeword of weight w inside the window w*(q-1) < q*d the result
    is guaranteed to have length n-w and dimension k-1, and that dimension
    is checked.  Outside the window the punctured code is still returned
    with its actual rank, under a ResidualWindowWarning.
    """
    vec = tuple(codeword)
    if len(vec) != code.n:
        raise LengthMismatchError(f"codeword length {len(vec)} != n = {code.n}")
    for x in vec:
        code.gf.check(x)
    w = hamming_weight(vec)
    if w == 0:
        raise ZeroCodewordError("the residual is taken at a nonzero codeword")
    if not in_row_space(code, vec):
        raise NotACodewordError("vector is not in the code")
    keep = [j for j, x in enumerate(vec) if x == 0]
    if not keep:
        raise DegenerateResidualError("codeword has full support; nothing remains")
    punctured = [tuple(row[j] for j in keep) for row in code.rows]
    basis, rank = row_reduce(code.gf, punctured)
    if rank == 0:
        raise DegenerateResidualError("all generator rows vanish after puncturing")
    result = LinearCode(code.gf, basis)
    d = min_distance(code, limit)
    if w <= max_window_weight(d, code.q):
        if rank != code.k - 1:
            raise AssertionError(
                f"residual rank {rank} != k-1 = {code.k - 1} inside the window"
            )
    else:
        warnings.warn(
            ResidualWindowWarning(
                f"weight {w} is outside the window ({w}*(q-1) >= q*{d}); "
                f"returned punctured code has rank {rank}"
            ),
            stacklevel=2,
        )
    return result


# --- generator-matrix file format -----------------------------------
#
# Text, UTF-8, read past a leading byte-order mark.  First data line:
# "q n k"; then k lines of n integers in [0, q) using the field element
# encoding.  '#' starts a comment line.  Every number is a run of ASCII
# digits 0-9: no sign, '_' or other script.


def parse_generator_text(text: str) -> LinearCode:
    """Parse the generator-matrix exchange format."""
    lines = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        for t in line.split():
            if not (t.isascii() and t.isdigit()):
                raise ValueError(f"line {number}: {t!r} is not an ASCII digit string")
        lines.append((line.strip(), [int(t) for t in line.split()]))
    if not lines:
        raise ValueError("no data lines in generator file")
    header, numbers = lines[0]
    if len(numbers) != 3:
        raise ValueError(f"header must be 'q n k', got {header!r}")
    q, n, k = numbers
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} rows, found {len(lines) - 1}")
    # Shapes before the field: building GF(65536) takes about a second.
    rows = [row for _, row in lines[1:]]
    for row in rows:
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
    return code_from_matrix(make_field(q), rows)


def read_generator_file(path) -> LinearCode:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_generator_text(fh.read())


def generator_text(code: LinearCode, comment: str | None = None) -> str:
    """Render a code in the generator-matrix exchange format."""
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append(f"{code.q} {code.n} {code.k}")
    out.extend(" ".join(str(x) for x in row) for row in code.rows)
    return "\n".join(out) + "\n"
