import pytest
from hypothesis import given, strategies as st

from irrbase.gf import FieldSpec, default_modulus, is_irreducible, subfield_generator


@pytest.fixture(scope="module")
def gf8():
    return FieldSpec(2, 3)


@pytest.fixture(scope="module")
def gf64():
    return FieldSpec(2, 6)


def test_explicit_modulus_reduction():
    # x^3 + x + 1: x * x^2 reduces to x + 1
    f = FieldSpec(2, 3, modulus=[1, 1, 0, 1])
    x = f.encode([0, 1])
    assert f.mul_enc(x, f.mul_enc(x, x)) == f.encode([1, 1, 0])


def test_char2_self_addition(gf8):
    for a in range(gf8.order):
        assert gf8.add_enc(a, a) == 0


def test_inverse_of_one(gf8):
    assert gf8.inv_enc(1) == 1


def test_inverse_of_zero_raises(gf8):
    with pytest.raises(ZeroDivisionError):
        gf8.inv_enc(0)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        FieldSpec(4, 2)  # characteristic not prime
    with pytest.raises(ValueError):
        FieldSpec(2, 0)
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over GF(2)


@pytest.mark.parametrize("spec_args", [(2, 3), (3, 2)])
def test_field_axioms_exhaustive(spec_args):
    fld = FieldSpec(*spec_args)
    add, mul = fld.add_enc, fld.mul_enc
    els = range(fld.order)
    for a in els:
        assert add(a, 0) == a and mul(a, 1) == a
        if a:
            assert mul(a, fld.inv_enc(a)) == 1
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in els:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("spec_args", [(2, 3), (2, 6)])
def test_frobenius_is_homomorphism_exhaustive(spec_args):
    fld = FieldSpec(*spec_args)
    frob = fld.frobenius_enc
    els = range(fld.order)
    for a in els:
        for b in els:
            assert frob(fld.add_enc(a, b), 1) == fld.add_enc(frob(a, 1), frob(b, 1))
            assert frob(fld.mul_enc(a, b), 1) == fld.mul_enc(frob(a, 1), frob(b, 1))


def test_frobenius_identity_and_order(gf64):
    for a in range(16):
        assert gf64.frobenius_enc(a, 0) == a
        b = gf64.frobenius_enc(a, 1)
        assert gf64.frobenius_enc(b, gf64.f - 1) == a
    # the exponent is reduced mod f: phi^k depends only on k mod f
    for a in range(gf64.order):
        for k in range(2 * gf64.f):
            assert gf64.frobenius_enc(a, k) == gf64.frobenius_enc(a, k % gf64.f)
    assert any(gf64.frobenius_enc(a, 1) != a for a in range(gf64.order))


def test_frobenius_on_root_of_modulus():
    f4 = FieldSpec(2, 2)
    x = f4.encode([0, 1])
    assert f4.frobenius_enc(x, 1) == f4.mul_enc(x, x)


def suzuki_twist(fld, a):
    """s(a) = a^(2^(m+1)) on GF(2^(2m+1)), as the ovoid builds it."""
    return fld.frobenius_enc(a, (fld.f - 1) // 2 + 1)


@pytest.mark.parametrize("f", [3, 5])
def test_suzuki_automorphism_squares_to_frobenius(f):
    fld = FieldSpec(2, f)
    for a in range(fld.order):
        assert suzuki_twist(fld, suzuki_twist(fld, a)) == fld.mul_enc(a, a)


def test_suzuki_automorphism_gf8_is_fourth_power(gf8):
    for a in range(gf8.order):
        assert suzuki_twist(gf8, a) == gf8.pow_enc(a, 4)
    assert suzuki_twist(gf8, 0) == 0
    assert suzuki_twist(gf8, 1) == 1


def test_subfield_generator_prime_field(gf8):
    f2 = FieldSpec(2, 1)
    assert subfield_generator(f2, 1) == 1


def multiplicative_order(fld, a):
    """Exact order of a != 0, by repeated multiplication."""
    k, cur = 1, a
    while cur != 1:
        cur = fld.mul_enc(cur, a)
        k += 1
    return k


def test_subfield_generator_orders(gf8, gf64):
    z = subfield_generator(gf8, 3)
    assert multiplicative_order(gf8, z) == 7
    # exhaustive power check
    powers = {z}
    cur = z
    for _ in range(6):
        cur = gf8.mul_enc(cur, z)
        powers.add(cur)
    assert len(powers) == 7

    z2 = subfield_generator(gf64, 2)
    assert multiplicative_order(gf64, z2) == 3
    assert gf64.pow_enc(z2, 3) == 1 and z2 != 1


def test_subfield_generator_smallest_encoding(gf64):
    z = subfield_generator(gf64, 2)
    for v in range(2, z):
        assert multiplicative_order(gf64, v) != 3


def test_subfield_closed_under_addition(gf64):
    for k in (1, 2, 3):
        z = subfield_generator(gf64, k)
        members = {0, 1}
        cur = z
        for _ in range(2**k - 1):
            members.add(cur)
            cur = gf64.mul_enc(cur, z)
        assert len(members) == 2**k
        for a in members:
            for b in members:
                assert gf64.add_enc(a, b) in members


def test_subfield_generator_invalid_degree(gf64):
    with pytest.raises(ValueError):
        subfield_generator(gf64, 4)  # 4 does not divide 6


def test_default_modulus_is_lex_least():
    # every strictly smaller monic polynomial (low-degree-first comparison)
    # must be reducible
    for p, f in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]:
        chosen = default_modulus(p, f)
        assert is_irreducible(chosen, p)
        idx_chosen = 0
        for c in chosen[:-1]:
            idx_chosen = idx_chosen * p + c
        for idx in range(idx_chosen):
            digits = []
            rest = idx
            for _ in range(f):
                digits.append(rest % p)
                rest //= p
            smaller = tuple(reversed(digits)) + (1,)
            assert not is_irreducible(smaller, p)


@given(st.integers(0, 63), st.integers(0, 63))
def test_frobenius_hom_hypothesis(a, b):
    fld = FieldSpec(2, 6)
    frob = fld.frobenius_enc
    assert frob(fld.add_enc(a, b), 3) == fld.add_enc(frob(a, 3), frob(b, 3))
    assert frob(fld.mul_enc(a, b), 3) == fld.mul_enc(frob(a, 3), frob(b, 3))


@given(st.integers(1, 8), st.integers(1, 8))
def test_gf9_division_roundtrip(a, b):
    fld = FieldSpec(3, 2)
    assert fld.mul_enc(fld.mul_enc(a, fld.inv_enc(b)), b) == a


@given(st.integers(1, 8), st.integers(-5, 12))
def test_gf9_pow_matches_repeated_product(a, e):
    fld = FieldSpec(3, 2)
    base = a if e >= 0 else fld.inv_enc(a)
    expected = 1
    for _ in range(abs(e)):
        expected = fld.mul_enc(expected, base)
    assert fld.pow_enc(a, e) == expected


def test_pow_of_zero():
    fld = FieldSpec(3, 2)
    assert fld.pow_enc(0, 0) == 1
    assert fld.pow_enc(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        fld.pow_enc(0, -1)
