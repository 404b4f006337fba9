import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmpl.modular import (
    ModPoly,
    inverse_table,
    is_prime,
    mod_inverse,
    primes_in_range,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 101]


def test_is_prime_small():
    assert [n for n in range(2, 32) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert not is_prime(0) and not is_prime(1)
    assert is_prime(2**31 - 1)  # largest supported prime


def test_primes_in_range():
    assert primes_in_range(5, 20) == [5, 7, 11, 13, 17, 19]
    assert primes_in_range(8, 10) == []
    assert primes_in_range(2, 2) == [2]


def test_mod_inverse_examples():
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(2, 5) == 3
    assert mod_inverse(4, 7) == 2


def test_mod_inverse_rejects_zero():
    with pytest.raises(ZeroDivisionError, match="non-invertible"):
        mod_inverse(0, 7)
    with pytest.raises(ZeroDivisionError):
        mod_inverse(14, 7)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_mod_inverse_involution(p):
    for a in range(1, p):
        b = mod_inverse(a, p)
        assert a * b % p == 1
        assert mod_inverse(b, p) == a


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_inverse_table_matches_scalar(p):
    table = inverse_table(p)
    assert table[0] == 0
    assert all(table[a] == mod_inverse(a, p) for a in range(1, p))


def test_poly_trailing_zeros_trimmed():
    f = ModPoly(5, [1, 2, 0, 0])
    assert f.degree == 1
    assert ModPoly(5, [0, 0]) == ModPoly.zero(5)
    assert ModPoly.zero(5).degree == -1


def test_poly_mul_identity_and_absorbing():
    g = ModPoly(3, [0, 1, 2])
    assert ModPoly.zero(3) * g == ModPoly.zero(3)
    assert ModPoly.one(3) * g == g


def test_poly_mul_example():
    f = ModPoly(3, [0, 1, 2])  # T + 2T^2
    assert f * f == ModPoly(3, [0, 0, 1, 1, 1])  # T^2 + T^3 + T^4


def test_poly_mul_modulus_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        ModPoly(3, [1]) * ModPoly(5, [1])


def test_poly_eval_examples():
    f = ModPoly(3, [0, 1, 2])
    assert ModPoly.zero(3).evaluate(2) == 0
    assert f.evaluate(1) == 0
    assert f.evaluate(2) == 1


def test_poly_degree_order_shift_scale():
    f = ModPoly(5, [0, 0, 3, 0, 1])
    assert (f.order, f.degree) == (2, 4)
    assert f.shifted(3) == ModPoly(5, [0, 0, 0, 0, 0, 3, 0, 1])
    assert f.scaled(2) == ModPoly(5, [0, 0, 1, 0, 2])
    assert f.scaled(0) == ModPoly.zero(5)


def test_poly_str():
    assert str(ModPoly.zero(7)) == "0"
    assert str(ModPoly.one(7)) == "1"
    assert str(ModPoly(3, [0, 1, 2])) == "T + 2*T^2"
    assert str(ModPoly(7, [3, 0, 1])) == "3 + T^2"


def test_poly_immutable():
    f = ModPoly(5, [1, 2])
    with pytest.raises(AttributeError):
        f.p = 7
    with pytest.raises(ValueError):
        f.coeffs[0] = 3


def test_poly_mul_overflow_guard():
    p = 2**31 - 1
    f = ModPoly(p, [1, 1])
    with pytest.raises(OverflowError):
        f * f


coeff_lists = st.lists(st.integers(0, 100), min_size=0, max_size=12)


@given(a=coeff_lists, b=coeff_lists, c=coeff_lists, t=st.integers(0, 100))
def test_poly_ring_properties(a, b, c, t):
    p = 101
    f, g, h = ModPoly(p, a), ModPoly(p, b), ModPoly(p, c)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f * g).evaluate(t) == f.evaluate(t) * g.evaluate(t) % p
