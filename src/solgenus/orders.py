"""Discriminant arithmetic for the quadratic field generated by an eigenvalue.

A unimodular matrix with irreducible characteristic polynomial x^2 - t*x + n
has an irrational eigenvalue lam = (t + sqrt(D))/2, D = t^2 - 4n.  The ring
Z[lam] is an order of discriminant D inside the maximal order of
Q(sqrt(d)), where d is the square-free part of D.  This module computes the
fundamental discriminant and the conductor.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import DegenerateSpectrum, SolgenusError
from .matrices import CharPoly, is_square

# primes up to _prime_limit, grown on demand by primes_up_to and kept for reuse
_primes: list[int] = []
_prime_limit = 1


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n, in increasing order (sieve of Eratosthenes)."""
    global _primes, _prime_limit
    if n > _prime_limit:
        # at least double the table, so a run of growing requests sieves O(log n) times
        limit = max(n, 2 * _prime_limit)
        sieve = bytearray([1]) * (limit + 1)
        sieve[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        _primes = [p for p, is_prime in enumerate(sieve) if is_prime]
        _prime_limit = limit
    return _primes[: bisect.bisect_right(_primes, n)]


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """Some r with r^2 = n (mod p) for an odd prime p, or None (Tonelli-Shanks)."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def kronecker_prime(D: int, p: int) -> int:
    """The Kronecker symbol (D/p) of a discriminant D (0 or 1 mod 4) at a prime p."""
    if p == 2:
        return 0 if D % 2 == 0 else (1 if D % 8 == 1 else -1)
    r = pow(D, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n >= 1, p increasing.

    Trial division up to sqrt(n); fine for n up to about MAX_ABS_DISC.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def square_free_decompose(m: int) -> tuple[int, int]:
    """Write m = s^2 * d with d square-free; returns (d, s), sign(d) = sign(m)."""
    if m == 0:
        raise ValueError("square-free decomposition of 0 is undefined")
    d, s = 1, 1
    for p, e in factor(abs(m)):
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return (d if m > 0 else -d), s


@dataclass(frozen=True)
class OrderDisc:
    """Discriminant D of an order, split as D = f^2 * D0 with D0 fundamental."""

    D: int
    D0: int
    f: int

    def __post_init__(self):
        if self.D != self.f * self.f * self.D0 or self.f < 1:
            raise ValueError(f"inconsistent discriminant data {self}")
        if self.D % 4 not in (0, 1):
            raise ValueError(f"discriminant {self.D} is not 0 or 1 mod 4")
        if not _is_fundamental(self.D0):
            raise ValueError(f"{self.D0} is not a fundamental discriminant")

    @property
    def d(self) -> int:
        """Square-free integer with ambient field Q(sqrt(d))."""
        return self.D0 if self.D0 % 4 == 1 else self.D0 // 4


def _is_fundamental(d0: int) -> bool:
    if d0 % 4 == 1:
        return square_free_decompose(d0)[1] == 1
    if d0 % 4 == 0:
        m = d0 // 4
        return m % 4 in (2, 3) and square_free_decompose(m)[1] == 1
    return False


# the largest |D| accepted, the range of trial division; the class sets of
# such D still take seconds and a few hundred MB (README, "Scale limits")
MAX_ABS_DISC = 10**12


def disc_from_int(D: int) -> OrderDisc:
    """Validate an integer as an order discriminant and split off the conductor."""
    if abs(D) > MAX_ABS_DISC:
        raise SolgenusError(f"discriminant {D} is too large: |D| must be at most {MAX_ABS_DISC}")
    if D == 0 or is_square(D):
        raise DegenerateSpectrum(f"discriminant {D} is a perfect square")
    if D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant (must be 0 or 1 mod 4)")
    d, s = square_free_decompose(D)
    if d % 4 == 1:
        return OrderDisc(D, d, s)
    # d = 2,3 mod 4 forces s even, since D = s^2*d = 0,1 mod 4
    return OrderDisc(D, 4 * d, s // 2)


def order_disc(p: CharPoly) -> OrderDisc:
    """Discriminant data of Z[lam] for the eigenvalue lam of p; rejects reducible p."""
    D = p.disc
    if D == 0 or is_square(D):
        raise DegenerateSpectrum(f"characteristic polynomial {p} is reducible over Q")
    return disc_from_int(D)
