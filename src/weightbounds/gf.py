"""Exact arithmetic in finite fields GF(q) for q = p^m.

Field elements are plain integers in [0, q).  The base-p digits of an
element are the coefficients of a polynomial of degree < m over GF(p)
(digit i is the coefficient of x^i), so 0 is the additive identity and
1 the multiplicative identity.  For prime fields (m = 1) this is just
arithmetic mod p.  The constant p - 1 is -1 in every GF(p^m), so
negation is multiplication by p - 1.

q alone fixes the field: `GF(q)` takes no other input.  Extension fields
are built from the lexicographically smallest monic irreducible modulus,
comparing coefficient tuples low-degree-first, so construction is
deterministic: two `GF(q)` calls always agree.
Irreducibility is verified by exhaustive trial division (degrees up to
m // 2), which is cheap under the q <= 2^16 cap.

Extension-field multiplication is served from exp/log tables, built in
one walk over the powers of the smallest primitive element; the tests
check them against the polynomial definition (`_poly_mul`, `_poly_mod`).

Vectors are added, subtracted and scaled by `add_vec`, `sub_vec` and
`scale_vec`, which return lazy `map`s mirroring `add`/`sub`/`mul`: XOR
for p = 2 and `operator.mod` over the integer operation for prime p, so
both run in C; other fields map the scalar method.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from itertools import product, repeat
from typing import Iterable, Iterator, Sequence

from .errors import EntryOutOfRangeError, FieldTooLargeError, NotAPrimePowerError

MAX_FIELD_ORDER = 1 << 16

Vector = tuple[int, ...]


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


def check_field_order(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, or the error `GF(q)` raises; the cap
    comes before factoring, so a huge q never reaches trial division."""
    if q < 2:
        raise NotAPrimePowerError(f"field order must be >= 2, got {q}")
    if q > MAX_FIELD_ORDER:
        raise FieldTooLargeError(f"field order {q} exceeds {MAX_FIELD_ORDER}")
    p = _prime_factors(q)[0]
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise NotAPrimePowerError(f"{q} = {p}^{m} * {rest} is not a prime power")
    return p, m


# --- polynomials over GF(p) as coefficient tuples, low degree first ---


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], den: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a by den (den monic)."""
    rem = list(a)
    dn = len(den) - 1
    for top in range(len(rem) - 1, dn - 1, -1):
        c = rem[top]
        if not c:
            continue
        shift = top - dn
        for i, dc in enumerate(den):
            rem[shift + i] = (rem[shift + i] - c * dc) % p
    return _poly_trim(rem)


def _poly_powmod(
    a: Sequence[int], e: int, den: Sequence[int], p: int
) -> tuple[int, ...]:
    """a^e mod den (den monic), by square and multiply."""
    out: tuple[int, ...] = (1,)
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul(out, a, p), den, p)
        a = _poly_mod(_poly_mul(a, a, p), den, p)
        e >>= 1
    return out


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Exhaustive trial division for a monic polynomial of degree >= 1 over GF(p)."""
    for ddeg in range(1, (len(coeffs) - 1) // 2 + 1):
        for tail in product(range(p), repeat=ddeg):
            divisor = tail + (1,)
            if not _poly_mod(coeffs, divisor, p):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p)."""
    for tail in product(range(p), repeat=m):
        candidate = tail + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError(f"no irreducible degree-{m} polynomial over GF({p})")


@dataclass(frozen=True)
class GF:
    """Finite field GF(q) operating on integer-encoded elements.

    q is the only constructor input: `p` and `m` come from
    `check_field_order(q)` and `modulus` from `_smallest_irreducible`.
    `modulus` is the monic degree-m reduction polynomial as m+1
    coefficients, low degree first; it is empty for prime fields.
    Instances are immutable and safe for concurrent use.
    """

    q: int
    p: int = field(init=False)
    m: int = field(init=False)
    modulus: tuple[int, ...] = field(init=False)
    _exp: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    _log: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, m = check_field_order(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "modulus", _smallest_irreducible(p, m) if m > 1 else ())
        if m > 1:
            self._build_tables()

    # -- encoding ----------------------------------------------------

    def check(self, a: int) -> int:
        """Validate that a is an encoded element of this field."""
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise EntryOutOfRangeError(f"{a!r} is not an element of GF({self.q})")
        return a

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _undigits(self, digits: Sequence[int]) -> int:
        out = 0
        for c in reversed(digits):
            out = out * self.p + c
        return out

    # -- arithmetic on encoded integers ------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self._undigits(
            [(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))]
        )

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def add_vec(self, x: Iterable[int], y: Iterable[int]) -> Iterator[int]:
        if self.p == 2:
            return map(operator.xor, x, y)
        if self.m == 1:
            return map(operator.mod, map(operator.add, x, y), repeat(self.p))
        return map(self.add, x, y)

    def sub_vec(self, x: Iterable[int], y: Iterable[int]) -> Iterator[int]:
        if self.p == 2:
            return map(operator.xor, x, y)
        if self.m == 1:
            return map(operator.mod, map(operator.sub, x, y), repeat(self.p))
        return map(self.sub, x, y)

    def scale_vec(self, c: int, y: Iterable[int]) -> Iterator[int]:
        """c * y coordinate-wise."""
        if self.m == 1:
            return map(operator.mod, map(operator.mul, repeat(c), y), repeat(self.p))
        return map(self.mul, repeat(c), y)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    # -- exp/log tables (extension fields) ---------------------------

    def _build_tables(self) -> None:
        """Tables from the smallest primitive element, found by its order.

        g generates the multiplicative group iff g^((q-1)/r) != 1 for every
        prime r dividing q-1; its powers are then walked once.
        """
        order = self.q - 1
        p, modulus = self.p, self.modulus
        primes = _prime_factors(order)
        for g in range(2, self.q):
            factor = _poly_trim(self._digits(g))
            if all(_poly_powmod(factor, order // r, modulus, p) != (1,)
                   for r in primes):
                break
        else:
            raise AssertionError(f"no generator found for GF({self.q})")
        exp = [1]
        x = factor
        while x != (1,):
            exp.append(self._undigits(x))
            x = _poly_mod(_poly_mul(x, factor, p), modulus, p)
        log = [0] * self.q
        for i, e in enumerate(exp):
            log[e] = i
        object.__setattr__(self, "_exp", tuple(exp))
        object.__setattr__(self, "_log", tuple(log))


@functools.lru_cache(maxsize=None)
def make_field(q: int) -> GF:
    """GF(q), built once per q."""
    return GF(q)
