import pytest
from hypothesis import given
from hypothesis import strategies as st

from solgenus import (
    CharPoly,
    DegenerateSpectrum,
    SolgenusError,
    disc_from_int,
    factor,
    order_disc,
    square_free_decompose,
)
from solgenus.matrices import is_square
from solgenus.orders import MAX_ABS_DISC


def test_square_free_examples():
    assert square_free_decompose(40) == (10, 2)
    assert square_free_decompose(5) == (5, 1)
    assert square_free_decompose(-4) == (-1, 2)
    with pytest.raises(ValueError):
        square_free_decompose(0)


def test_square_free_exhaustive_small():
    assert factor(1) == [] and factor(97) == [(97, 1)] and factor(720) == [(2, 4), (3, 2), (5, 1)]
    with pytest.raises(ValueError):
        factor(0)
    for m in range(-10_000, 10_001):
        if m == 0:
            continue
        pes = factor(abs(m))
        ps = [p for p, _ in pes]
        assert ps == sorted(set(ps)) and all(e >= 1 for _, e in pes)
        assert all(p > 1 and all(p % k for k in range(2, int(p**0.5) + 1)) for p in ps), (m, pes)
        prod = 1
        for p, e in pes:
            prod *= p**e
        assert prod == abs(m)
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
    # independently: the conductor is the largest f with D / f^2 = 0 or 1 mod 4
    for t in range(-30, 31):
        for n in (1, -1):
            D = t * t - 4 * n
            if D == 0 or (D > 0 and is_square(D)):
                continue
            f = max(k for k in range(1, abs(D) + 1) if D % (k * k) == 0 and D // (k * k) % 4 in (0, 1))
            assert order_disc(CharPoly(t, n)).f == f, (t, n)


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


def test_disc_from_int_limit():
    assert MAX_ABS_DISC == 10**12
    assert disc_from_int(10**12 - 3).D == 10**12 - 3
    for D in (10**12 + 1, -(10**12 + 3)):
        with pytest.raises(SolgenusError):
            disc_from_int(D)


def _subring_index(t, n):
    """Index of Z[lam] in the maximal order, lam a root of x^2 - t x + n.

    |det| of the change of basis from (1, lam) to (1, w), w the standard
    generator of the maximal order: sqrt(d), or (1 + sqrt(d))/2 when
    d = 1 mod 4.  A lattice route to the conductor, apart from OrderDisc.
    """
    D = t * t - 4 * n
    s = max(k for k in range(1, abs(D) + 1) if D % (k * k) == 0)
    d = D // (s * s)
    if d % 4 == 1:
        # lam = (t - s)/2 + s*w with w = (1 + sqrt(d))/2
        (a, b), (c, e) = (1, (t - s) // 2), (0, s)
    else:
        # lam = t/2 + (s/2)*w with w = sqrt(d); t and s are even here
        assert t % 2 == 0 and s % 2 == 0
        (a, b), (c, e) = (1, t // 2), (0, s // 2)
    return abs(a * e - b * c)


def test_subring_index_examples():
    assert _subring_index(6, -1) == order_disc(CharPoly(6, -1)).f == 1
    assert _subring_index(7, 1) == order_disc(CharPoly(7, 1)).f == 3
    assert _subring_index(3, 1) == order_disc(CharPoly(3, 1)).f == 1


def test_subring_index_equals_conductor():
    # two independent routes: lattice basis-change determinant vs square-free split
    for t in range(-30, 31):
        for n in (1, -1):
            d = t * t - 4 * n
            if d == 0 or (d > 0 and is_square(d)):
                continue
            assert _subring_index(t, n) == order_disc(CharPoly(t, n)).f, (t, n)


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
