import pytest

from weightbounds.errors import (
    EntryOutOfRangeError,
    FieldMismatchError,
    FieldTooLargeError,
    LengthMismatchError,
    NotAPrimePowerError,
)
from weightbounds.gf import (
    GF,
    _is_irreducible,
    _smallest_irreducible,
    make_field,
    vec_add,
    vec_scale,
)

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
EXTENSION_ORDERS_UP_TO_256 = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256]


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


def test_modulus_validation():
    with pytest.raises(ValueError):
        GF(q=4, p=2, m=2, modulus=(1, 0, 1))  # x^2 + 1 = (x + 1)^2
    with pytest.raises(ValueError):
        GF(q=4, p=2, m=2, modulus=(1, 1))  # wrong degree
    with pytest.raises(NotAPrimePowerError):
        GF(q=8, p=2, m=2, modulus=(1, 1, 1))  # q != p^m


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


def test_vector_examples():
    gf2, gf3, gf4 = make_field(2), make_field(3), make_field(4)
    assert vec_add(gf2, (1, 0, 1), (1, 1, 0)) == (0, 1, 1)
    assert vec_scale(gf3, 2, (1, 2, 0)) == (2, 1, 0)
    assert vec_scale(gf4, 2, (2, 3)) == (3, 1)
    with pytest.raises(LengthMismatchError):
        vec_add(gf2, (1, 0), (1, 0, 1))


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
            assert gf.mul(a, b) == gf.mul_definition(a, b)


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
            x = gf.mul_definition(x, g)
        if len(powers) == q - 1:
            break
    assert gf._exp == tuple(powers)
    assert all(gf._log[e] == i for i, e in enumerate(powers))


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        make_field(9).inv(0)
    with pytest.raises(ZeroDivisionError):
        make_field(5).div(3, 0)


def test_element_range_check():
    gf = make_field(5)
    with pytest.raises(EntryOutOfRangeError):
        gf.check(5)
    with pytest.raises(EntryOutOfRangeError):
        gf.check(-1)


def test_field_elements_operators():
    gf = make_field(9)
    a, b = gf.element(5), gf.element(7)
    assert (a + b).value == gf.add(5, 7)
    assert (a - b).value == gf.sub(5, 7)
    assert (a * b).value == gf.mul(5, 7)
    assert (a / b).value == gf.div(5, 7)
    assert (-a).value == gf.neg(5)
    assert (a * a.inverse()).value == 1


def test_field_elements_do_not_mix_across_fields():
    a = make_field(2).element(1)
    b = make_field(3).element(1)
    with pytest.raises(FieldMismatchError):
        a + b
    # Same order, different modulus: still distinct fields.
    alt = GF(q=8, p=2, m=3, modulus=(1, 1, 0, 1))
    with pytest.raises(FieldMismatchError):
        make_field(8).element(3) * alt.element(3)


def test_larger_extension_field_sanity():
    gf = make_field(1024)
    assert (gf.p, gf.m) == (2, 10)
    assert gf.mul(513, gf.inv(513)) == 1
    assert gf.mul(2, 3) == gf.mul_definition(2, 3)
