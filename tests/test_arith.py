import doctest
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkmoduli import arith
from hkmoduli.arith import (
    NotInvertible,
    euler_phi,
    factorize,
    is_quadratic_residue,
    qr_of_ratio,
    rho,
)


def test_doctests():
    assert doctest.testmod(arith).failed == 0


# ---------------------------------------------------------------- factorize

def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(97) == ((97, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(2 ** 10) == ((2, 10),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_factorize_reconstructs_and_uses_primes(m):
    fac = factorize(m)
    prod = 1
    for p, k in fac:
        assert k >= 1
        assert p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))
        prod *= p ** k
    assert prod == m
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})


# ------------------------------------------------------------------ phi/rho

def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96
    assert euler_phi(360) == 96


def test_euler_phi_matches_direct_count():
    for m in range(1, 300):
        direct = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
        assert euler_phi(m) == direct, m


@given(st.integers(min_value=1, max_value=2000),
       st.integers(min_value=1, max_value=2000))
def test_euler_phi_multiplicative(m, n):
    if math.gcd(m, n) == 1:
        assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)


def test_rho():
    assert rho(1) == 0
    assert rho(7) == 1
    assert rho(12) == 2
    assert rho(30) == 3
    assert rho(2 ** 20) == 1


# --------------------------------------------------------- quadratic residues

def test_qr_pinned_examples():
    # squares mod 7 are {0, 1, 2, 4}
    assert is_quadratic_residue(2, 7) is True
    assert is_quadratic_residue(3, 7) is False
    # 0 and non-units count as residues when the congruence is solvable
    assert is_quadratic_residue(0, 12) is True
    assert is_quadratic_residue(4, 8) is True
    assert is_quadratic_residue(2, 8) is False
    # 2-adic units: squares mod 8 are {0, 1, 4}
    assert is_quadratic_residue(5, 8) is False
    assert is_quadratic_residue(1, 8) is True
    # everything is a residue mod 1
    assert is_quadratic_residue(123, 1) is True
    assert is_quadratic_residue(-1, 5) is True
    with pytest.raises(ValueError, match="modulus must be positive"):
        is_quadratic_residue(3, 0)
    assert is_quadratic_residue(-1, 7) is False


def test_qr_matches_exhaustive_small_moduli():
    for m in range(1, 121):
        squares = {(y * y) % m for y in range(m)}
        for x in range(m):
            assert is_quadratic_residue(x, m) == (x in squares), (x, m)


@given(st.integers(min_value=-10 ** 9, max_value=10 ** 9),
       st.integers(min_value=1, max_value=10 ** 5))
def test_qr_accepts_actual_squares(y, m):
    assert is_quadratic_residue(y * y, m) is True


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10 ** 4),
       st.integers(min_value=1, max_value=500))
def test_qr_agrees_with_exhaustive(x, m):
    squares = {(y * y) % m for y in range(m)}
    assert is_quadratic_residue(x, m) == (x % m in squares)


def test_qr_of_ratio():
    # 1/3 mod 8: inverse of 3 is 3, and 3 is not a square mod 8
    assert qr_of_ratio(1, 3, 8) is False
    assert qr_of_ratio(-1, 1, 4) is False
    assert qr_of_ratio(-1, 3, 4) is True
    assert qr_of_ratio(7, 5, 1) is True
    with pytest.raises(NotInvertible):
        qr_of_ratio(1, 2, 4)
    with pytest.raises(NotInvertible):
        qr_of_ratio(3, 0, 5)
    with pytest.raises(ValueError, match="modulus must be positive"):
        qr_of_ratio(1, 1, 0)


@settings(max_examples=300)
@given(st.integers(min_value=-500, max_value=500),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=120))
def test_qr_of_ratio_matches_solvability(num, den, m):
    # num/den is a residue iff y^2 = num/den, i.e. y^2 * den = num, is
    # solvable mod m: searched over every y, with no inverse and no product
    if math.gcd(den, m) != 1:
        with pytest.raises(NotInvertible):
            qr_of_ratio(num, den, m)
        return
    solvable = any((y * y * den - num) % m == 0 for y in range(m))
    assert qr_of_ratio(num, den, m) == solvable
