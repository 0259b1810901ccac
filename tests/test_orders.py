from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solgenus import (
    CharPoly,
    DegenerateSpectrum,
    QuadElement,
    disc_from_int,
    eigenvalue_unit,
    order_disc,
    square_free_decompose,
    subring_index,
)
from solgenus.matrices import is_square


def test_square_free_examples():
    assert square_free_decompose(40) == (10, 2)
    assert square_free_decompose(5) == (5, 1)
    assert square_free_decompose(-4) == (-1, 2)
    with pytest.raises(ValueError):
        square_free_decompose(0)


def test_square_free_exhaustive_small():
    for m in range(-10_000, 10_001):
        if m == 0:
            continue
        d, s = square_free_decompose(m)
        assert s >= 1 and d * s * s == m
        assert (d > 0) == (m > 0)
        k = 2
        while k * k <= abs(d):
            assert abs(d) % (k * k) != 0, (m, d)
            k += 1


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from([1, -1]))
def test_square_free_random(m, sign):
    d, s = square_free_decompose(sign * m)
    assert d * s * s == sign * m


def test_order_disc_examples():
    assert order_disc(CharPoly(3, 1)) == disc_from_int(5)
    od = order_disc(CharPoly(6, -1))
    assert (od.D, od.D0, od.f) == (40, 40, 1)
    od = order_disc(CharPoly(7, 1))
    assert (od.D, od.D0, od.f) == (45, 5, 3)


def test_order_disc_rejects_degenerate():
    with pytest.raises(DegenerateSpectrum):
        order_disc(CharPoly(2, 1))  # D = 0
    with pytest.raises(DegenerateSpectrum):
        order_disc(CharPoly(0, -1))  # D = 4
    with pytest.raises(DegenerateSpectrum):
        disc_from_int(36)
    with pytest.raises(ValueError):
        disc_from_int(7)  # 3 mod 4


def test_disc_from_int_fundamental_split():
    od = disc_from_int(-23)
    assert (od.D0, od.f, od.d) == (-23, 1, -23)
    od = disc_from_int(-16)
    assert (od.D0, od.f, od.d) == (-4, 2, -1)
    od = disc_from_int(148)
    assert (od.D0, od.f, od.d) == (37, 2, 37)


def test_eigenvalue_unit_examples():
    u = eigenvalue_unit(CharPoly(6, -1))
    assert (u.value.x, u.value.y, u.value.D0) == (3, Fraction(1, 2), 40)
    assert str(u.value) == "3 + √10"
    assert u.norm == -1

    u = eigenvalue_unit(CharPoly(1, 1))
    assert (u.value.x, u.value.y, u.value.D0) == (Fraction(1, 2), Fraction(1, 2), -3)
    assert u.norm == 1

    u = eigenvalue_unit(CharPoly(3, 1))
    assert (u.value.x, u.value.y, u.value.D0) == (Fraction(3, 2), Fraction(1, 2), 5)
    assert u.norm == 1


def test_eigenvalue_unit_norm_trace_recovered():
    for t in range(-30, 31):
        for n in (1, -1):
            if t * t - 4 * n == 0 or is_square(max(t * t - 4 * n, 0)):
                continue
            u = eigenvalue_unit(CharPoly(t, n))
            assert u.value.norm() == n
            assert u.value.trace() == t


def test_quad_element_parity_validation():
    QuadElement(Fraction(1, 2), Fraction(1, 2), 5)
    QuadElement(Fraction(3), Fraction(1, 2), 40)
    with pytest.raises(ValueError):
        QuadElement(Fraction(1, 2), Fraction(1), 5)  # mixed parity over d = 1 mod 4
    with pytest.raises(ValueError):
        QuadElement(Fraction(1, 2), Fraction(1), 40)  # x must be integral over d = 2, 3 mod 4
    with pytest.raises(ValueError):
        QuadElement(Fraction(1, 3), Fraction(0), 5)


def test_quad_element_display():
    u = eigenvalue_unit(CharPoly(6, -1)).value
    assert str(u) == "3 + √10"
    assert str(u.conjugate()) == "3 - √10"
    assert str(eigenvalue_unit(CharPoly(10, -1)).value) == "5 + √26"
    assert str(eigenvalue_unit(CharPoly(1, 1)).value) == "1/2 + 1/2*√-3"


def test_subring_index_examples():
    assert subring_index(CharPoly(6, -1)) == 1
    assert subring_index(CharPoly(7, 1)) == 3
    assert subring_index(CharPoly(3, 1)) == 1


def test_subring_index_equals_conductor():
    # two independent routes: lattice basis-change determinant vs square-free split
    for t in range(-30, 31):
        for n in (1, -1):
            d = t * t - 4 * n
            if d == 0 or (d > 0 and is_square(d)):
                continue
            assert subring_index(CharPoly(t, n)) == order_disc(CharPoly(t, n)).f, (t, n)


def test_primes_up_to_matches_trial_division_and_grows():
    from solgenus.orders import primes_up_to

    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in (0, 1, 2, 3, 10, 97, 100, 1000, 30, 5000):  # shrinking and growing requests
        assert primes_up_to(n) == [p for p in range(n + 1) if is_prime(p)]


def test_sqrt_mod_prime_exhaustive_small():
    from solgenus.orders import primes_up_to, sqrt_mod_prime

    for p in primes_up_to(300)[1:]:
        squares = {x * x % p for x in range(p)}
        for n in range(-p, 2 * p):
            r = sqrt_mod_prime(n, p)
            if n % p in squares:
                assert r is not None and 0 <= r < p and (r * r - n) % p == 0
            else:
                assert r is None
    # p = 1 mod 2^k for large k exercises the Tonelli-Shanks loop
    p = 7 * 2**26 + 1
    for n in (2, 3, 10, 12345, p - 1):
        r = sqrt_mod_prime(n, p)
        assert r is None or (r * r - n) % p == 0
