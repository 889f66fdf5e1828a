"""The seeded random-code generator, the selftest defaults and published spectra.

The paper's named example codes live only as generator files under
`fixtures/`, and its comparison tables in `tables`.  Two externally
published codes (a ternary [27, 8, 14] and a binary cyclic [15, 10, 4])
are kept here as their published weight enumerators.  The cyclic code's
generator matrix is `fixtures/cyclic_15_10_4_binary.gen`; no generator
matrix of the ternary code is shipped.

Random codes come from a SplitMix64 generator, so the corpus is
reproducible bit-for-bit across platforms and Python versions.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .codes import LinearCode, echelon_insert
from .errors import ParamRangeError
from .gf import make_field

DEFAULT_SELFTEST_SEED = 12345
DEFAULT_SELFTEST_TRIALS = 1000

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """The SplitMix64 stream: 64-bit outputs of a 64-bit state, with the
    public-domain reference constants.

    Callers reduce each output modulo a bound; for the tiny bounds used
    here (q <= 4, n <= 14) the modulo bias is irrelevant and the output is
    identical on every platform.
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _check_seed(seed: int) -> int:
    """A corpus seed is a SplitMix64 state: one in [0, 2**64), not masked into it."""
    if not 0 <= seed <= _MASK64:
        raise ParamRangeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def random_code(seed: int, q: int, n: int, k: int) -> LinearCode:
    """Deterministic pseudo-random full-rank [n, k] code over GF(q).

    Rows are drawn one at a time from splitmix64(seed), n outputs modulo q
    each.  `echelon_insert` reduces each draw against the basis of the rows
    kept so far; it is kept if the rank grows, otherwise a fresh row is drawn.
    That loop has already proved everything `LinearCode` checks, so the code
    is built without its checks.  The seed must lie in [0, 2**64).
    """
    if q not in (2, 3, 4):
        raise ParamRangeError(f"random codes support q in {{2, 3, 4}}, got {q}")
    if not (1 <= k <= 5 and k <= n <= 14):
        raise ParamRangeError(f"need 1 <= k <= 5 and k <= n <= 14, got n={n} k={k}")
    gf = make_field(q)
    draws = splitmix64(_check_seed(seed))
    accepted: list[tuple[int, ...]] = []
    basis: list[tuple[int, list[int]]] = []  # spans the accepted rows
    while len(accepted) < k:
        row = tuple(x % q for x in islice(draws, n))
        if echelon_insert(gf, basis, row):
            accepted.append(row)
    # Every entry is x % q and the basis took all k rows: LinearCode would check
    # the same entries and insert the same rows again, and find nothing new.
    return tuple.__new__(LinearCode, (gf, tuple(accepted)))


def random_corpus(trials: int, seed: int) -> Iterator[LinearCode]:
    """Yield `trials` random codes with q in {2,3,4}, 2 <= k <= 5, k <= n <= 14.

    One splitmix64 stream seeded with `seed` drives both the parameter
    draws and the per-code seeds, so the whole corpus is a pure function
    of (trials, seed).  The seed must lie in [0, 2**64); the check runs at
    the first draw.
    """
    stream = splitmix64(_check_seed(seed))
    for _ in range(trials):
        q = (2, 3, 4)[next(stream) % 3]
        k = 2 + next(stream) % 4
        n = k + next(stream) % (14 - k + 1)
        yield random_code(next(stream), q, n, k)


# Published weight enumerators of two codes the paper does not print.
# fixtures/cyclic_15_10_4_binary.gen holds the cyclic code; the ternary
# code has no generator matrix here, so only tests of its spectrum read it.
EXTERNAL_SPECTRA: dict[str, dict[int, int]] = {
    "ding_27_8_14_ternary": {
        0: 1, 14: 810, 15: 702, 17: 1404, 18: 780,
        20: 2106, 21: 702, 26: 54, 27: 2,
    },
    "cyclic_15_10_4_binary": {
        0: 1, 4: 105, 6: 280, 8: 435, 10: 168, 12: 35,
    },
}
