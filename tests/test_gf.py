import dataclasses

import pytest

from weightbounds.errors import (
    EntryOutOfRangeError,
    FieldTooLargeError,
    NotAPrimePowerError,
)
from weightbounds.gf import (
    GF,
    _is_irreducible,
    _poly_mod,
    _poly_mul,
    _smallest_irreducible,
    make_field,
)

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
EXTENSION_ORDERS_UP_TO_256 = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256]


def mul_definition(gf, a, b):
    """Multiplication by the polynomial definition, without the tables."""
    if gf.m == 1:
        return (a * b) % gf.p
    prod = _poly_mul(gf._digits(a), gf._digits(b), gf.p)
    rem = _poly_mod(prod, gf.modulus, gf.p)
    return gf._undigits(list(rem) + [0] * (gf.m - len(rem)))


def test_make_field_prime():
    gf = make_field(2)
    assert (gf.p, gf.m, gf.modulus) == (2, 1, ())


def test_make_field_gf4_modulus_is_the_unique_irreducible_quadratic():
    # Oracle: enumerate all four monic quadratics over GF(2); exactly one
    # has no root, namely x^2 + x + 1.
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 2 == 0 for x in (0, 1))

    irreducible = [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1) if not has_root(c0, c1)]
    assert irreducible == [(1, 1, 1)]
    assert make_field(4).modulus == (1, 1, 1)


def test_make_field_rejects_non_prime_powers():
    for q in (6, 10, 12, 100):
        with pytest.raises(NotAPrimePowerError):
            make_field(q)
    with pytest.raises(NotAPrimePowerError):
        make_field(1)


@pytest.mark.parametrize("q, message", [
    (6, "6 = 2^1 * 3 is not a prime power"),
    (12, "12 = 2^2 * 3 is not a prime power"),
    (1, "field order must be >= 2, got 1"),
])
def test_make_field_non_prime_power_messages(q, message):
    with pytest.raises(NotAPrimePowerError) as excinfo:
        make_field(q)
    assert str(excinfo.value) == message


def test_make_field_order_cap():
    with pytest.raises(FieldTooLargeError):
        make_field((1 << 16) + 1)
    with pytest.raises(FieldTooLargeError):
        make_field(1 << 17)


def test_make_field_deterministic():
    # Bypass the cache so the modulus search itself runs twice.
    build = make_field.__wrapped__
    for q in (4, 8, 9, 27, 64, 256):
        assert build(q).modulus == build(q).modulus == make_field(q).modulus


PRIME_POWERS_UP_TO_256 = [
    q for q in range(2, 257)
    if len({r for r in range(2, q + 1) if q % r == 0 and all(r % s for s in range(2, r))}) == 1
]


@pytest.mark.parametrize("q", PRIME_POWERS_UP_TO_256)
def test_neg_and_sub_are_additive_inverses(q):
    # Definitions only: -a is the element that adds to a to give 0, and
    # a - b is the element that adds to b to give a.
    gf = make_field(q)
    elems = range(q)
    assert all(gf.add(a, gf.neg(a)) == 0 for a in elems)
    assert all(gf.add(gf.sub(a, b), b) == a for a in elems for b in elems)


def test_gf_is_built_from_q_alone():
    for q in (2, 3, 4, 8, 9, 25, 27, 256, 4096):
        gf = GF(q)
        assert gf == make_field(q) and hash(gf) == hash(make_field(q))
        assert repr(gf) == repr(make_field(q))
        assert (gf._exp, gf._log) == (make_field(q)._exp, make_field(q)._log)
    assert [f.name for f in dataclasses.fields(GF) if f.init] == ["q"]
    with pytest.raises(TypeError):
        GF(q=4, p=2, m=2, modulus=(1, 1, 1))


@pytest.mark.parametrize("q", [0, 1, 6, 12, 65537])
def test_gf_raises_what_make_field_raises(q):
    with pytest.raises(Exception) as direct:
        GF(q)
    with pytest.raises(Exception) as cached:
        make_field(q)
    assert type(direct.value) is type(cached.value)
    assert type(direct.value) in (NotAPrimePowerError, FieldTooLargeError)
    assert str(direct.value) == str(cached.value)


def test_irreducibility_check_known_cases():
    assert _is_irreducible((1, 1, 1), 2)  # x^2 + x + 1
    assert not _is_irreducible((1, 0, 1), 2)  # (x+1)^2
    assert _is_irreducible((1, 2, 0, 1), 3)  # x^3 + 2x + 1 has no GF(3) root
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2: no roots, caught only by trial division.
    assert not _is_irreducible((1, 0, 1, 0, 1), 2)
    assert _smallest_irreducible(2, 3) == (1, 0, 1, 1)  # x^3 + x^2 + 1


def test_arith_examples():
    gf2, gf3, gf4 = make_field(2), make_field(3), make_field(4)
    assert gf2.add(1, 1) == 0
    assert gf3.mul(2, 2) == 1
    assert gf4.mul(2, 3) == 1  # x * (x + 1) = x^2 + x = 1 mod x^2 + x + 1


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_field_axioms_exhaustive(q):
    gf = make_field(q)
    elems = range(q)
    for a in elems:
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
        for b in elems:
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
            for c in elems:
                assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("q", EXTENSION_ORDERS_UP_TO_256)
def test_table_mul_equals_polynomial_mul_exhaustive(q):
    gf = make_field(q)
    for a in range(q):
        for b in range(q):
            assert gf.mul(a, b) == mul_definition(gf, a, b)


EXTENSION_ORDERS_UP_TO_1024 = sorted(
    p**m for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for m in range(2, 11) if p**m <= 1024
)


@pytest.mark.parametrize("q", EXTENSION_ORDERS_UP_TO_1024)
def test_tables_are_powers_of_the_smallest_primitive_element(q):
    # Oracle: walk the powers of g = 2, 3, ... through the polynomial
    # definition until one has order q - 1.
    gf = make_field(q)
    for g in range(2, q):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = mul_definition(gf, x, g)
        if len(powers) == q - 1:
            break
    assert gf._exp == tuple(powers)
    assert all(gf._log[e] == i for i, e in enumerate(powers))


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        make_field(9).inv(0)
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)


def test_element_range_check():
    gf = make_field(5)
    with pytest.raises(EntryOutOfRangeError):
        gf.check(5)
    with pytest.raises(EntryOutOfRangeError):
        gf.check(-1)


def test_larger_extension_field_sanity():
    gf = make_field(1024)
    assert (gf.p, gf.m) == (2, 10)
    assert gf.mul(513, gf.inv(513)) == 1
    assert gf.mul(2, 3) == mul_definition(gf, 2, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_vector_ops_equal_elementwise_scalar_ops(q):
    # Oracle: the scalar add/sub/mul, one coordinate at a time.  x and y
    # together run through every pair of elements, zero included.
    gf = make_field(q)
    x = [a for a in range(q) for _ in range(q)]
    y = [b for _ in range(q) for b in range(q)]
    zero = [0] * len(x)
    for u, v in ((x, y), (y, x), (x, zero), (zero, y), (zero, zero)):
        assert list(gf.add_vec(u, v)) == [gf.add(a, b) for a, b in zip(u, v)]
        assert list(gf.sub_vec(u, v)) == [gf.sub(a, b) for a, b in zip(u, v)]
    for c in range(q):
        for v in (x, zero):
            assert list(gf.scale_vec(c, v)) == [gf.mul(c, b) for b in v]
    assert list(gf.scale_vec(0, x)) == zero
    assert list(gf.sub_vec(x, x)) == zero
