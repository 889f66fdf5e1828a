"""The seeded random-code generator, the selftest defaults and published spectra.

The paper's named example codes live only as generator files under
`fixtures/`, and its comparison tables in `tables`.  Two externally
published codes (a ternary [27, 8, 14] and a binary cyclic [15, 10, 4])
are kept here as their published weight enumerators.  The cyclic code's
generator matrix is `fixtures/cyclic_15_10_4_binary.gen`; no generator
matrix of the ternary code is shipped.

Random codes use SplitMix64 so the corpus is reproducible bit-for-bit
across platforms and Python versions.
"""

from __future__ import annotations

from typing import Iterator

from .codes import LinearCode, row_reduce
from .errors import ParamRangeError
from .gf import make_field

DEFAULT_SELFTEST_SEED = 12345
DEFAULT_SELFTEST_TRIALS = 1000

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG (public-domain constants, 64-bit state).

    state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    return z ^ (z >> 31).

    `below(bound)` reduces next_u64() modulo bound; for the tiny bounds
    used here (q <= 4, n <= 14) the modulo bias is irrelevant and the
    output is identical on every platform.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def random_code(seed: int, q: int, n: int, k: int) -> LinearCode:
    """Deterministic pseudo-random full-rank [n, k] code over GF(q).

    Rows are drawn one at a time from SplitMix64(seed), n draws of below(q)
    each.  Each draw is reduced against the RREF of the rows kept so far; it
    is kept if the rank grows, otherwise it is discarded and a fresh row drawn.
    """
    if q not in (2, 3, 4):
        raise ParamRangeError(f"random codes support q in {{2, 3, 4}}, got {q}")
    if not (1 <= k <= 5 and k <= n <= 14):
        raise ParamRangeError(f"need 1 <= k <= 5 and k <= n <= 14, got n={n} k={k}")
    gf = make_field(q)
    rng = SplitMix64(seed)
    accepted: list[tuple[int, ...]] = []
    basis: tuple[tuple[int, ...], ...] = ()  # the RREF of the accepted rows
    while len(accepted) < k:
        row = tuple(rng.below(q) for _ in range(n))
        reduced, rank = row_reduce(gf, basis + (row,))
        if rank == len(accepted) + 1:
            accepted.append(row)
            basis = reduced
    return LinearCode(gf, tuple(accepted))


def random_corpus(trials: int, seed: int) -> Iterator[LinearCode]:
    """Yield `trials` random codes with q in {2,3,4}, 2 <= k <= 5, k <= n <= 14.

    One SplitMix64 stream seeded with `seed` drives both the parameter
    draws and the per-code seeds, so the whole corpus is a pure function
    of (trials, seed).
    """
    stream = SplitMix64(seed)
    for _ in range(trials):
        q = (2, 3, 4)[stream.below(3)]
        k = 2 + stream.below(4)
        n = k + stream.below(14 - k + 1)
        yield random_code(stream.next_u64(), q, n, k)


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
