"""Elementary number theory over the integers.

Everything here is exact integer arithmetic on Python ints.  The quadratic
residue test uses the *any square* convention: x is a residue mod m iff the
congruence y^2 = x (mod m) has a solution, with no coprimality requirement.
In particular 0 is a residue for every modulus and non-units may be residues
(e.g. 4 mod 8).  This is the convention the congruence conditions in the
component counting formulas need.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "NotInvertible",
    "euler_phi",
    "factorize",
    "is_quadratic_residue",
    "mod_inverse",
    "qr_of_ratio",
    "rho",
]


class NotInvertible(ValueError):
    """Raised when an inverse mod m is requested for a non-unit."""


@lru_cache(maxsize=None)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m >= 1 as ((p, multiplicity), ...).

    Primes appear in strictly increasing order; factorize(1) == ().
    Plain trial division by 2 and the odd numbers, which stops once the
    square of the divisor exceeds what is left of m: about max(q, sqrt(p))
    / 2 divisions, p the largest prime factor of m and q the next one, so
    sqrt(p) / 2 for a prime m.  The moduli are not all small: _decompose
    factorizes w and t1, and prime_power_connected factorizes t, which are
    as large as a query asks; the ROADMAP records 145 s for
    factorize(2^61 - 1).  Memoized: the same few moduli recur across a
    sweep.

    >>> factorize(360)
    ((2, 3), (3, 2), (5, 1))
    """
    if m < 1:
        raise ValueError("factorize expects a positive integer, got %r" % (m,))
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def euler_phi(m: int) -> int:
    """Euler totient of m >= 1.  euler_phi(1) == 1."""
    out = 1
    for p, k in factorize(m):
        out *= (p - 1) * p ** (k - 1)
    return out


def rho(m: int) -> int:
    """Number of distinct prime divisors of m >= 1.  rho(1) == 0."""
    return len(factorize(m))


def mod_inverse(x: int, m: int) -> int:
    """Inverse of x modulo m >= 1, in range(m).  mod_inverse(x, 1) == 0.

    Raises NotInvertible when gcd(x, m) != 1.
    """
    if m < 1:
        raise ValueError("modulus must be positive, got %r" % (m,))
    try:
        return pow(x, -1, m)
    except ValueError:
        raise NotInvertible("%d is not invertible modulo %d" % (x, m)) from None


def _qr_prime_power(x: int, p: int) -> bool:
    # x reduced mod p^k, p prime.  Solvable y^2 = x iff, writing
    # x = p^j * u with p not dividing u, either j >= k (x = 0), or j is even
    # and the unit u is a square mod p^(k-j).  For odd p that holds iff u is
    # a residue mod p (Euler's criterion lifts by Hensel).  For p = 2 it
    # holds always when k - j = 1, iff u = 1 (4) when k - j = 2 and iff
    # u = 1 (8) when k - j >= 3; since 0 < u < 2^(k-j), the first two read
    # u = 1, so all three read u = 1 (8) and k is not needed.
    if x == 0:
        return True
    j = 0
    while x % p == 0:
        x //= p
        j += 1
    if j % 2:
        return False
    return pow(x, (p - 1) // 2, p) == 1 if p > 2 else x % 8 == 1


def is_quadratic_residue(x: int, m: int) -> bool:
    """True iff y^2 = x (mod m) has a solution (any-square convention).

    Total for every m >= 1 and any integer x; decided prime power by prime
    power and glued with CRT.

    >>> is_quadratic_residue(2, 7)
    True
    >>> is_quadratic_residue(3, 7)
    False
    >>> is_quadratic_residue(4, 8)
    True
    >>> is_quadratic_residue(0, 12)
    True
    """
    if m < 1:
        raise ValueError("modulus must be positive, got %r" % (m,))
    x %= m
    if m == 1 or x in (0, 1):
        return True
    for p, k in factorize(m):
        if not _qr_prime_power(x % p ** k, p):
            return False
    return True


def qr_of_ratio(num: int, den: int, m: int) -> bool:
    """Quadratic residue test for the ratio num/den modulo m.

    Evaluates is_quadratic_residue(num * den^-1, m); raises NotInvertible
    when gcd(den, m) != 1.  Callers are expected to have checked the
    coprimality side conditions first, so NotInvertible here means a
    programming error upstream.
    """
    if m == 1:
        return True
    return is_quadratic_residue(num * mod_inverse(den, m), m)
