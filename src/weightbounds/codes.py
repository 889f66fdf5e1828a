"""Linear codes as generator matrices over GF(q).

Provides rank-checked construction, deterministic row reduction,
exhaustive weight spectra, minimum distance, and the residual-code
construction (puncture a code at the support of one of its codewords),
which checks membership by stacked rank.

The spectrum kernel meets in the middle, the same way for every q, and is
bit-sliced: bit m of an integer stands for the m-th combination L of the
first a rows.  Each low column has up to q value bitmaps of q^a bits,
built once per (field, low column) and shared across spectra in a
bounded LRU (`_value_bitmaps`; 1024 entries of at most _LOW_BITS / q bits,
about 0.3 MiB for the whole 1000-code selftest corpus).  Each high part H,
taken only up to scalars, reads one bitmap per coordinate (the L with
L_j = H_j) and a carry-save counter adds them into at most
bit_length(n) bit planes, which split the q^a combinations by weight.
The counter's full adders (5 operations each) take three bitmaps of one
weight and leave two, so at most n of them run.  The split reads the
planes top plane first, carries each part's popcount and drops empty
parts: an AND and a popcount per part and plane, an XOR only where both
halves are nonempty, so it follows the number of distinct zero counts,
not 2^bit_length(n), and stays under 5n operations.  So a spectrum costs
under q^(k-a)/(q-1) * 10n Python-level operations on q^a-bit integers.
a is k - 1, lowered (down to 0) until D * q^(a+2) <= _LOW_BITS = 2^22 for D
distinct low columns: a large field pays for q^2 build steps per low digit,
and the low side holds at most _LOW_BITS / q bits (256 KiB over GF(2)).

Codeword enumeration order is fixed: message integer m in [0, q^k)
has base-q digits d_0 ... d_{k-1} (d_0 least significant), and the
m-th codeword is sum_i element(d_i) * rows[i].  All "first codeword
of weight w" semantics refer to this order.  The walk adds whole vectors
(`GF.add_vec`); `projective_codewords`, one codeword per scalar class in
this order, feeds the spectrum's high parts and the residual-lemma suite.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .bounds import max_window_weight
from .errors import (
    DegenerateResidualError,
    EmptyMatrixError,
    LengthMismatchError,
    NotACodewordError,
    ParamRangeError,
    RankDeficientError,
    ZeroCodewordError,
)
from .gf import GF, Vector, make_field


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
    def min_distance(self) -> int:
        for w in range(1, len(self.counts)):
            if self.counts[w]:
                return w
        raise ValueError("spectrum has no nonzero weight")

    def nonzero(self) -> dict[int, int]:
        """Counts with zero entries omitted, keyed by weight."""
        return {w: c for w, c in enumerate(self.counts) if c}


@dataclass(frozen=True)
class LinearCode:
    """A linear [n, k] code given by k independent generator rows over a field.

    Rows are stored as a tuple of tuples, whatever sequences they came in.
    Construction rejects rank-deficient matrices (`code_from_matrix(...,
    auto_reduce=True)` keeps a row-space basis of any matrix instead).
    """

    gf: GF
    rows: tuple[Vector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        _check_matrix(self.gf, self.rows)
        rank = row_reduce(self.gf, self.rows)[1]
        if rank != len(self.rows):
            raise RankDeficientError(
                f"supplied {len(self.rows)} rows but rank is {rank}"
            )

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def q(self) -> int:
        return self.gf.q


def _check_matrix(gf: GF, rows: Sequence[Sequence[int]]) -> None:
    """At least one row and one column, rows of equal length, entries in GF(q)."""
    if not rows:
        raise EmptyMatrixError("a generator matrix needs at least one row")
    n = len(rows[0])
    if n == 0:
        raise EmptyMatrixError("a generator matrix needs at least one column")
    for row in rows:
        if len(row) != n:
            raise LengthMismatchError("generator rows have unequal lengths")
        for x in row:
            gf.check(x)


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
                mat[i] = list(gf.add_vec(mat[i], gf.scale_vec(gf.neg(mat[i][c]), mat[r])))
        r += 1
        if r == len(mat):
            break
    # Each row of mat[:r] keeps the 1 at its pivot: later eliminations subtract
    # rows that are 0 in that column.
    return tuple(tuple(row) for row in mat[:r]), r


def code_from_matrix(
    gf: GF, rows: Iterable[Sequence[int]], auto_reduce: bool = False
) -> LinearCode:
    """Build a LinearCode from generator rows.

    By default the rows must already be independent; with auto_reduce a
    row-space basis (RREF) is kept instead.
    """
    if auto_reduce:
        rows = tuple(map(tuple, rows))
        _check_matrix(gf, rows)
        rows = row_reduce(gf, rows)[0]
        if not rows:
            raise RankDeficientError("row space is zero")
    return LinearCode(gf, rows)


def iter_codewords(code: LinearCode) -> Iterator[Vector]:
    """Yield all q^k codewords in message order (see module docstring)."""
    return _walk(code.gf, code.rows, (0,) * code.n)


def _walk(gf: GF, rows: Sequence[Vector], start: Vector) -> Iterator[Vector]:
    """Yield start + every combination of rows, in message order."""
    q, k = gf.q, len(rows)
    add_vec = gf.add_vec
    # diff[i][a] = ((a+1) mod q - a) * rows[i]: digit i stepping a -> (a+1) mod q.
    # The step takes at most m values (one per carry length in base p), so each
    # row is scaled once per distinct step and diff[i] holds q shared pointers.
    # Lists, not tuples: short tuples freed in bulk stay on CPython's per-size
    # free lists until a full gc, which raised the suite's peak memory by 8%.
    steps = [gf.add((a + 1) % q, gf.neg(a)) for a in range(q)]
    diff = []
    for row in rows:
        scaled = {s: list(gf.scale_vec(s, row)) for s in set(steps)}
        diff.append([scaled[s] for s in steps])
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


_LOW_BITS = 1 << 22  # cap on D * q^(a+2): the low side holds <= _LOW_BITS / q bitmap bits


@functools.lru_cache(maxsize=1024)
def _value_bitmaps(gf: GF, g: Vector) -> dict[int, int]:
    """{v: bitmap} for one low column g: bit m is set iff <m, g> = v, over the
    q^len(g) messages m of the low rows; values no message takes are absent.

    Built one entry of g at a time, and cached per (field, column) so that
    spectra sharing a low column share its bitmaps: the returned dict must
    not be mutated.  The spectrum's budget keeps an entry to q^(a+1) <=
    _LOW_BITS / q bits, so the cache retains at most 1024 x 256 KiB.
    """
    q = gf.q
    values, size = {0: 1}, 1  # over the size = q^i messages of the first i digits
    for x in g:
        if x:  # digit d adds d*x to <m, g> and d*size to m
            steps = list(gf.scale_vec(x, range(q)))
            extended: dict[int, int] = {}
            for v, b in values.items():
                for d, s in enumerate(steps):
                    u = gf.add(v, s)
                    extended[u] = extended.get(u, 0) | b << d * size
            values = extended
        else:  # every digit keeps <m, g>: each bitmap repeats q times
            values = {v: sum(b << d * size for d in range(q)) for v, b in values.items()}
        size *= q
    return values


@functools.lru_cache(maxsize=8192)
def spectrum(code: LinearCode) -> WeightSpectrum:
    """Exact weight distribution, one shared object per code (an LRU): meet in
    the middle, bit-sliced, each projective high part H against all low L.

    Bit m of a bitmap stands for the m-th combination L of the low rows
    (message order).  For each low column g, _value_bitmaps(gf, g)[v] has
    bit m set iff <m, g> = v, so the one for g_j and H_j marks the L with
    (L - H)_j = 0.
    A carry-save counter adds those n bitmaps into bit planes of each L's
    zero count: level by level, a running sum takes in the bitmaps of one
    weight two at a time through a full adder, ends as that weight's plane
    and passes the carries on as the next level.  Read top first, the planes
    split the L into nonempty parts that carry their popcounts, one per weight;
    as L -> -L permutes the low combinations, these are the weights of L + H.
    Nonzero H is taken only up to scalars (its last nonzero digit is 1):
    L + cH ranges over c * (L' + H), so each such H stands for q-1.
    """
    gf, q, n = code.gf, code.q, code.n
    cols = list(zip(*code.rows))
    # Not a = k: a last low row costs q^2 bitmap steps per low column, more
    # than the one projective high row it replaces.
    a = code.k - 1
    while a and len({c[:a] for c in cols}) * q ** (a + 2) > _LOW_BITS:
        a -= 1
    lows = [_value_bitmaps(gf, c[:a]) for c in cols]
    every = (1 << q**a) - 1
    counts = [0] * (n + 1)
    for scale, highs in ((1, [(0,) * n]), (q - 1, projective_codewords(gf, code.rows[a:]))):
        for h in highs:
            planes: list[int] = []  # planes[i]: bit i of each L's zero count
            level = list(filter(None, map(dict.get, lows, h, repeat(0))))
            while len(level) > 1:  # the bitmaps of weight 2^len(planes)
                s = level.pop() if len(level) % 2 else 0  # then pairs remain
                carries, pairs = [], iter(level)
                for x, y in zip(pairs, pairs):  # full adder: s + x + y = s' + 2c
                    t = s ^ x
                    c = s & x | t & y
                    s = t ^ y
                    if c:
                        carries.append(c)
                planes.append(s)
                level = carries
            planes += level  # a lone last bitmap is the top plane
            parts = [(n, every, q**a)]  # (n - zeros read so far, those L, how many)
            for i in range(len(planes) - 1, -1, -1):  # top plane first
                p, split = planes[i], []
                for w, s, c in parts:
                    t = s & p
                    u = t.bit_count()
                    if u:
                        split.append((w - (1 << i), t, u))
                    if u < c:  # an empty part is dropped, a full one kept as is
                        split.append((w, s ^ t if u else s, c - u))
                parts = split
            for w, s, c in parts:
                counts[w] += c * scale
    return WeightSpectrum(tuple(counts))


def min_distance(code: LinearCode) -> int:
    """Smallest nonzero codeword weight."""
    return spectrum(code).min_distance


def code_params(code: LinearCode) -> CodeParams:
    """The (n, k, d, q) tuple of the code, with d computed exactly."""
    return CodeParams(n=code.n, k=code.k, d=min_distance(code), q=code.q)


def find_codeword_of_weight(code: LinearCode, w: int, index: int = 0) -> Vector:
    """The index-th codeword of weight w in enumeration order (0-based).

    The spectrum settles whether that codeword exists, so a missing one is
    reported without walking the code.
    """
    if w < 0 or index < 0:
        raise ParamRangeError(f"need w >= 0 and index >= 0, got w={w} index={index}")
    counts = spectrum(code).counts
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


def residual(code: LinearCode, codeword: Sequence[int]) -> LinearCode:
    """Puncture the code at the support of one of its codewords.

    For a codeword of weight w inside the window w*(q-1) < q*d the result
    is guaranteed to have length n-w and dimension k-1, and that dimension
    is checked.  Outside the window the punctured code is still returned
    with its actual rank, under a ResidualWindowWarning.  A vector is a
    codeword when stacking it under the rows leaves the rank at k.
    """
    vec = tuple(codeword)
    if len(vec) != code.n:
        raise LengthMismatchError(f"codeword length {len(vec)} != n = {code.n}")
    for x in vec:
        code.gf.check(x)
    w = hamming_weight(vec)
    if w == 0:
        raise ZeroCodewordError("the residual is taken at a nonzero codeword")
    if row_reduce(code.gf, code.rows + (vec,))[1] != code.k:
        raise NotACodewordError("vector is not in the code")
    keep = [j for j, x in enumerate(vec) if x == 0]
    if not keep:
        raise DegenerateResidualError("codeword has full support; nothing remains")
    punctured = [tuple(row[j] for j in keep) for row in code.rows]
    basis, rank = row_reduce(code.gf, punctured)
    if rank == 0:
        raise DegenerateResidualError("all generator rows vanish after puncturing")
    result = LinearCode(code.gf, basis)
    d = min_distance(code)
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
# "q n k" with 1 <= k <= n; then k lines of n integers in [0, q) using the
# field element encoding.  '#' starts a comment line.  Every number is a run
# of ASCII digits 0-9: no sign, '_' or other script.  At most MAX_FILE_CHARS
# characters, so k <= 1448 (k * k <= n * k <= MAX_FILE_CHARS / 2).
MAX_FILE_CHARS = 1 << 22  # a binary [n, k] matrix takes about 2nk of them


def _parse_matrix(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """q and the rows of the exchange format, with the token, header and
    shape checks; field entries and rank are checked when the code is built."""
    header, rows = "", []
    for number, line in enumerate(text.splitlines(), 1):
        if not (tokens := line.split()) or tokens[0].startswith("#"):
            continue
        for t in tokens:
            if not (t.isascii() and t.isdigit()):
                raise ValueError(f"line {number}: {t!r} is not an ASCII digit string")
        header = header or line.strip()  # kept for its error message only
        rows.append(tuple(map(int, tokens)))
    if not rows:
        raise ValueError("no data lines in generator file")
    if len(rows[0]) != 3:
        raise ValueError(f"header must be 'q n k', got {header!r}")
    q, n, k = rows.pop(0)
    if not 1 <= k <= n:
        raise ValueError(f"header needs 1 <= k <= n, got n = {n}, k = {k}")
    if len(rows) != k:
        raise ValueError(f"expected {k} rows, found {len(rows)}")
    for row in rows:  # shapes before the field: GF(65536) takes about a second
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
    return q, rows


def _read_matrix(path) -> tuple[int, list[tuple[int, ...]]]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read(MAX_FILE_CHARS + 1)
    if len(text) > MAX_FILE_CHARS:
        raise ValueError(f"{path}: more than {MAX_FILE_CHARS} characters")
    return _parse_matrix(text)


def parse_generator_text(text: str) -> LinearCode:
    """Parse the generator-matrix exchange format."""
    q, rows = _parse_matrix(text)
    return code_from_matrix(make_field(q), rows)


def read_generator_file(path) -> LinearCode:
    """Read the exchange format from path: at most MAX_FILE_CHARS characters."""
    q, rows = _read_matrix(path)
    return code_from_matrix(make_field(q), rows)


def generator_text(code: LinearCode, comment: str | None = None) -> str:
    """Render a code in the generator-matrix exchange format."""
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append(f"{code.q} {code.n} {code.k}")
    out.extend(" ".join(str(x) for x in row) for row in code.rows)
    return "\n".join(out) + "\n"
