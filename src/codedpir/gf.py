"""
Scalar helpers for the prime field F_p.

Field elements are plain ints (or int64 arrays) reduced modulo p; the
matrix code elsewhere needs only a primality test for the modulus and
the inverse of a residue.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for all m < 3.3e24."""
    if m < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m == small:
            return True
        if m % small == 0:
            return False
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def inv_mod(value: int, p: int) -> int:
    """The inverse of value mod p, in [0:p); value may be any integer."""
    value %= p
    if value == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return pow(value, p - 2, p)
