import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solgenus import (
    CharPoly,
    GeometryLabel,
    IntMat2,
    NotUnimodular,
    ParseError,
    SpectrumClass,
    char_poly,
    format_matrix,
    geometry,
    is_hyperbolic,
    matrix_order,
    parse_matrix,
    spectrum_class,
)
from solgenus.matrices import is_square

from helpers import mat, random_unimodular

entries = st.integers(-9, 9)
small_mats = st.builds(IntMat2, entries, entries, entries, entries)


def test_char_poly_examples():
    assert char_poly(mat(0, -1, 1, 0)) == CharPoly(0, 1)
    assert char_poly(mat(0, -1, 1, 0)).disc == -4
    assert char_poly(mat(1, 0, 0, 1)) == CharPoly(2, 1)
    assert char_poly(mat(6, 1, 1, 0)) == CharPoly(6, -1)
    assert char_poly(mat(6, 1, 1, 0)).disc == 40


def test_char_poly_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        char_poly(mat(2, 0, 0, 2))


def test_char_poly_conjugation_invariant():
    rng = random.Random(20240601)
    count = 0
    while count < 1000:
        a = IntMat2(*(rng.randrange(-9, 10) for _ in range(4)))
        if a.det() not in (1, -1):
            continue
        p = random_unimodular(rng)
        assert char_poly(p * a * p.inverse()) == char_poly(a)
        count += 1


def test_spectrum_class_examples():
    assert spectrum_class(CharPoly(0, -1)) == SpectrumClass.SPLIT_RATIONAL
    assert spectrum_class(CharPoly(-2, 1)) == SpectrumClass.REPEATED_MINUS_ONE
    assert spectrum_class(CharPoly(2, 1)) == SpectrumClass.REPEATED_ONE
    assert spectrum_class(CharPoly(3, 1)) == SpectrumClass.REAL_QUADRATIC
    assert spectrum_class(CharPoly(1, 1)) == SpectrumClass.COMPLEX_QUADRATIC
    with pytest.raises(ValueError, match="det = \\+-1"):
        spectrum_class(CharPoly(3, 2))


def test_spectrum_class_total_and_unique():
    for t in range(-30, 31):
        for n in (1, -1):
            assert spectrum_class(CharPoly(t, n)) in SpectrumClass


def test_unimodular_disc_square_only_zero_or_four():
    # scan: for det +-1 the discriminant is a perfect square only at 0 and 4
    for t in range(-2000, 2001):
        for n in (1, -1):
            d = t * t - 4 * n
            if d >= 0 and is_square(d):
                assert d in (0, 4)


def test_is_hyperbolic_examples():
    assert is_hyperbolic(mat(2, 1, 1, 1))
    assert not is_hyperbolic(mat(1, 1, 0, 1))
    assert is_hyperbolic(mat(1, 1, 1, 0))  # t=1, n=-1, D=5


def _eig_moduli(t: int, n: int) -> tuple[float, float]:
    d = t * t - 4 * n
    if d >= 0:
        r = math.sqrt(d)
        return abs((t + r) / 2), abs((t - r) / 2)
    m = math.sqrt(t * t + (-d)) / 2  # |t/2 + i*sqrt(-d)/2|
    return m, m


def test_is_hyperbolic_matches_float_eigenvalues():
    for t in range(-50, 51):
        for n in (1, -1):
            m = mat(0, -n, 1, t)  # companion
            m1, m2 = _eig_moduli(t, n)
            expected = abs(m1 - 1.0) > 1e-9 and abs(m2 - 1.0) > 1e-9
            assert is_hyperbolic(m) == expected, (t, n)


def test_hyperbolic_iff_real_quadratic_with_condition():
    for t in range(-50, 51):
        for n in (1, -1):
            m = mat(0, -n, 1, t)
            sc = spectrum_class(CharPoly(t, n))
            expected = sc == SpectrumClass.REAL_QUADRATIC and (abs(t) > 2 or n == -1)
            assert is_hyperbolic(m) == expected


def test_matrix_order_examples():
    assert matrix_order(mat(0, -1, 1, 0)) == 4
    assert matrix_order(mat(1, 1, 0, 1)) is None
    assert matrix_order(mat(0, -1, 1, -1)) == 3
    assert matrix_order(IntMat2.identity()) == 1


def test_finite_order_implies_not_hyperbolic(box3):
    for m in box3:
        if matrix_order(m) is not None:
            assert not is_hyperbolic(m)


def test_torsion_orders_in_gl2z(box3):
    # integral 2x2 torsion has order 1, 2, 3, 4, or 6, so the k <= 12 scan
    # inside matrix_order is conclusive
    orders = {matrix_order(m) for m in box3}
    orders.discard(None)
    assert orders == {1, 2, 3, 4, 6}


def test_power_negative_exponent():
    m = mat(2, 1, 1, 1)
    assert m**-1 == m.inverse()
    assert m**-2 == (m * m).inverse()
    assert m**0 == IntMat2.identity()


@given(small_mats, st.integers(0, 64), st.integers(1, 60))
def test_power_mod_is_reduced_product(m, k, f):
    # pow(m, k, f) is the k-fold product with every entry reduced into
    # [0, f), as pow does for ints, also at k = 0 and f = 1
    product = IntMat2.identity()
    for _ in range(k):
        product = product * m
    expected = IntMat2(product.a % f, product.b % f, product.c % f, product.d % f)
    assert pow(m, k, f) == expected == m**k % f
    assert all(0 <= x < f for x in (expected.a, expected.b, expected.c, expected.d))


def test_geometry_examples():
    assert geometry(mat(2, 1, 1, 1)) == GeometryLabel.SOL
    assert geometry(mat(1, 0, 5, 1)) == GeometryLabel.NIL
    assert geometry(mat(0, 1, 1, 0)) == GeometryLabel.EUCLIDEAN


def test_geometry_conjugation_invariant():
    rng = random.Random(999)
    count = 0
    while count < 300:
        a = IntMat2(*(rng.randrange(-9, 10) for _ in range(4)))
        if a.det() not in (1, -1):
            continue
        p = random_unimodular(rng)
        assert geometry(p * a * p.inverse()) == geometry(a)
        count += 1


def test_mat_mul_and_inv_examples():
    a = mat(2, 1, 1, 1)
    assert IntMat2.identity() * a == a
    assert mat(0, -1, 1, 0).inverse() == mat(0, 1, -1, 0)
    assert a * mat(1, -1, -1, 2) == IntMat2.identity()
    with pytest.raises(NotUnimodular):
        mat(2, 0, 0, 2).inverse()


@given(small_mats, small_mats)
def test_det_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


@given(small_mats)
def test_inverse_roundtrip(m):
    if m.det() in (1, -1):
        assert m * m.inverse() == IntMat2.identity()


def test_parse_examples():
    assert parse_matrix("0 -1; 1 0") == mat(0, -1, 1, 0)
    assert parse_matrix("[[6,1],[1,0]]") == mat(6, 1, 1, 0)
    assert parse_matrix("6, 1; 1, 0") == mat(6, 1, 1, 0)
    with pytest.raises(ParseError):
        parse_matrix("0 -1; 1")


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_matrix("1 x; 3 4")
    assert e.value.position == 2
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("[[1,2],[3]]")
    with pytest.raises(ParseError):
        parse_matrix("[[1,2],[3,4.5]]")
    with pytest.raises(ParseError):
        parse_matrix("1 2; 3 4; 5 6")
    # a JSON decoding error reports its position in the text as given
    with pytest.raises(ParseError) as e:
        parse_matrix("  [[1, 2], [3,")
    assert e.value.position == 14


@given(small_mats)
def test_parse_format_roundtrip(m):
    assert parse_matrix(format_matrix(m)) == m
