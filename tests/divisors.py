"""The one `divisors` of the test suite; pytest does not collect this
module, since its name does not start with test_."""

from math import isqrt


def divisors(m):
    # the positive divisors of m, increasing
    low = [k for k in range(1, isqrt(m) + 1) if m % k == 0]
    return low + [m // k for k in reversed(low) if k * k != m]
