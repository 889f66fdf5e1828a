"""Exact arithmetic in finite fields GF(q) for q = p^m.

Field elements are plain integers in [0, q).  The base-p digits of an
element are the coefficients of a polynomial of degree < m over GF(p)
(digit i is the coefficient of x^i), so 0 is the additive identity and
1 the multiplicative identity.  For prime fields (m = 1) this is just
arithmetic mod p.

Extension fields are built from the lexicographically smallest monic
irreducible modulus, comparing coefficient tuples low-degree-first, so
construction is deterministic: two `make_field(q)` calls always agree.
Irreducibility is verified by exhaustive trial division (degrees up to
m // 2), which is cheap under the q <= 2^16 cap.

Extension-field multiplication is served from exp/log tables, built in
one walk over the powers of the smallest primitive element; the
polynomial-definition path is kept alongside (`GF.mul_definition`) as an
independent cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

from .errors import (
    EntryOutOfRangeError,
    FieldMismatchError,
    FieldTooLargeError,
    LengthMismatchError,
    NotAPrimePowerError,
)

MAX_FIELD_ORDER = 1 << 16

Vector = tuple[int, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


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


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, or raise NotAPrimePowerError."""
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p:
            continue
        m = 0
        rest = q
        while rest % p == 0:
            rest //= p
            m += 1
        if rest != 1:
            raise NotAPrimePowerError(f"{q} = {p}^{m} * {rest} is not a prime power")
        return p, m
    # No factor <= sqrt(q): q itself is prime.
    return q, 1


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
    """Exhaustive trial division for a monic polynomial over GF(p)."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] != 1:
        return False
    if deg == 1:
        return True
    for ddeg in range(1, deg // 2 + 1):
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
    """Finite field GF(p^m) operating on integer-encoded elements.

    `modulus` is the monic degree-m reduction polynomial as m+1
    coefficients, low degree first; it is empty for prime fields.
    Instances are immutable and safe for concurrent use.
    """

    q: int
    p: int
    m: int
    modulus: tuple[int, ...] = ()
    _exp: tuple[int, ...] = field(default=(), repr=False, compare=False)
    _log: tuple[int, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q > MAX_FIELD_ORDER:
            raise FieldTooLargeError(f"field order {self.q} exceeds {MAX_FIELD_ORDER}")
        if not _is_prime(self.p) or self.m < 1 or self.p**self.m != self.q:
            raise NotAPrimePowerError(
                f"inconsistent field description q={self.q}, p={self.p}, m={self.m}"
            )
        if self.m == 1:
            if self.modulus:
                raise ValueError("prime fields take an empty modulus")
            return
        if len(self.modulus) != self.m + 1 or any(
            not 0 <= c < self.p for c in self.modulus
        ):
            raise ValueError(f"modulus needs {self.m + 1} coefficients in [0, {self.p})")
        if not _is_irreducible(self.modulus, self.p):
            raise ValueError(f"modulus {self.modulus} is reducible over GF({self.p})")
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

    def element(self, value: int) -> "FieldElement":
        return FieldElement(self, self.check(value))

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
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def mul_definition(self, a: int, b: int) -> int:
        """Multiplication by the polynomial definition (no tables)."""
        if self.m == 1:
            return (a * b) % self.p
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        rem = _poly_mod(prod, self.modulus, self.p)
        return self._undigits(list(rem) + [0] * (self.m - len(rem)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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
    """Build GF(q), factoring q = p^m and choosing the modulus deterministically."""
    if q < 2:
        raise NotAPrimePowerError(f"field order must be >= 2, got {q}")
    if q > MAX_FIELD_ORDER:
        raise FieldTooLargeError(f"field order {q} exceeds {MAX_FIELD_ORDER}")
    p, m = _factor_prime_power(q)
    modulus = _smallest_irreducible(p, m) if m > 1 else ()
    return GF(q=q, p=p, m=m, modulus=modulus)


@dataclass(frozen=True)
class FieldElement:
    """A single field element bound to its field; operators enforce the binding."""

    gf: GF
    value: int

    def __post_init__(self) -> None:
        self.gf.check(self.value)

    def _peer(self, other: "FieldElement") -> int:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected a FieldElement, got {type(other).__name__}")
        if other.gf != self.gf:
            raise FieldMismatchError(
                f"elements of GF({self.gf.q}) and GF({other.gf.q}) do not mix"
            )
        return other.value

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.gf, self.gf.add(self.value, self._peer(other)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.gf, self.gf.sub(self.value, self._peer(other)))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.gf, self.gf.mul(self.value, self._peer(other)))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.gf, self.gf.div(self.value, self._peer(other)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.gf, self.gf.neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.gf, self.gf.inv(self.value))


# --- vectors over one field, as integer tuples ----------------------


def vec_add(gf: GF, u: Iterable[int], v: Iterable[int]) -> Vector:
    """Componentwise sum of two equal-length vectors."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise LengthMismatchError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(gf.add(x, y) for x, y in zip(u, v))


def vec_scale(gf: GF, c: int, u: Iterable[int]) -> Vector:
    """Scalar multiple c*u."""
    return tuple(gf.mul(c, x) for x in u)
