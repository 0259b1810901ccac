import pytest

from solgenus import (
    BQForm,
    CharPoly,
    EquivMode,
    IntMat2,
    SolgenusError,
    are_conjugate_gl2z,
    are_conjugate_mod_m,
    brute_force_conjugator,
    char_poly,
    class_count,
    lm_representatives,
    multiplication_matrix,
)
from solgenus.conjugacy import class_key
from solgenus.ideals import companion
from solgenus.matrices import is_square
from solgenus.orders import order_disc

from helpers import mat, unimodular_box
from reference_count import box_classes


def test_multiplication_matrix_ideal_basis():
    # the ideal basis (|a|, (-b + sqrt(D))/2) of (a, b, c) shows in the matrix as
    # lower-left entry |a| and diagonal difference b
    for q, p, basis in (
        (BQForm(1, 6, -1), CharPoly(6, -1), (1, 6)),
        (BQForm(3, 2, -3), CharPoly(6, -1), (3, 2)),
        (BQForm(-1, 6, 1), CharPoly(6, -1), (1, 6)),  # sign normalized to positive norm
        (BQForm(1, 0, 1), CharPoly(0, 1), (1, 0)),
    ):
        m = multiplication_matrix(q, p)
        assert (m.c, m.a - m.d) == basis


def test_multiplication_matrix_examples():
    p = CharPoly(6, -1)
    m = multiplication_matrix(BQForm(1, 6, -1), p)
    assert char_poly(m) == p
    assert are_conjugate_gl2z(m, companion(p)) is not None

    m = multiplication_matrix(BQForm(3, 2, -3), p)
    assert m == mat(4, 3, 3, 2)
    assert are_conjugate_gl2z(m, companion(p)) is None

    p = CharPoly(0, 1)
    m = multiplication_matrix(BQForm(1, 0, 1), p)
    assert are_conjugate_gl2z(m, mat(0, -1, 1, 0)) is not None


def test_multiplication_matrix_disc_guard():
    with pytest.raises(SolgenusError):
        multiplication_matrix(BQForm(1, 6, -1), CharPoly(3, 1))


def test_lm_representatives_examples():
    s = lm_representatives(CharPoly(3, 1))
    assert s.count == 1 and s.reps[0] == mat(0, -1, 1, 3)

    s = lm_representatives(CharPoly(6, -1))
    assert s.count == 2 and s.reps[0] == mat(0, 1, 1, 6)

    s = lm_representatives(CharPoly(0, 1))
    assert s.count == 1 and s.reps[0] == mat(0, -1, 1, 0)


def test_lm_invariants_sweep():
    """Exhaustive |t| <= 12: counts, characteristic polynomials, pairwise
    non-conjugacy over Z, and mod-m witnesses for every m in 2..30."""
    for t in range(-12, 13):
        for n in (1, -1):
            d = t * t - 4 * n
            if d == 0 or (d > 0 and is_square(d)):
                continue
            p = CharPoly(t, n)
            s = lm_representatives(p)
            assert s.count == class_count(d, EquivMode.IMPROPER)
            assert len(set(s.reps)) == s.count
            for m in s.reps:
                assert char_poly(m) == p
            for i in range(s.count):
                for j in range(i + 1, s.count):
                    assert are_conjugate_gl2z(s.reps[i], s.reps[j]) is None, (t, n, i, j)
                    for mod in range(2, 31):
                        assert are_conjugate_mod_m(s.reps[i], s.reps[j], mod) is not None, (t, n, mod)


def test_cyclic_cubic_class_group_d229():
    """disc 229 has class group of order 3: inversion (realized by transpose)
    must permute the two non-principal classes, and the improper merge must
    not collapse them (the det twist quotients narrow to ordinary classes,
    which is trivial here since the fundamental unit has norm -1)."""
    s = lm_representatives(CharPoly(15, -1))
    assert s.count == 3 == class_count(229, EquivMode.PROPER)
    a1, a2, a3 = s.reps
    t2 = IntMat2(a2.a, a2.c, a2.b, a2.d)
    assert are_conjugate_gl2z(a2, a3) is None
    assert are_conjugate_gl2z(t2, a2) is None
    assert are_conjugate_gl2z(t2, a1) is None
    w = are_conjugate_gl2z(t2, a3)
    assert w is not None
    assert brute_force_conjugator(t2, a3, 25).witness is not None
    assert brute_force_conjugator(a2, a3, 25).witness is None


def test_lm_cross_checked_against_exhaustive_search():
    """Independent classification of small matrices: every unimodular matrix in
    the box must be linked to exactly one representative by an exhaustive
    conjugator scan, and representatives must stay unlinked."""
    cases = [(CharPoly(3, 1), 6), (CharPoly(1, -1), 6), (CharPoly(0, 1), 6), (CharPoly(6, -1), 6)]
    boxed = unimodular_box(6)
    for p, bound_box in cases:
        reps = lm_representatives(p).reps
        members = [m for m in boxed if char_poly(m) == p]
        assert members, p
        for m in members:
            links = [r for r in reps if brute_force_conjugator(m, r, 15).witness is not None]
            assert len(links) == 1, (p, m)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert brute_force_conjugator(reps[i], reps[j], 25).witness is None


def test_box_count_matches_every_overorder():
    """The reduction-free count of GL2(Z) classes in a box (reference_count)
    equals the sum of h(f'^2 D0) over f' | f, one class set per order
    containing Z[lam] (Latimer-MacDuffee), and the merged classes have
    pairwise distinct class keys.  A box that misses a class fails here; the
    fix is a larger box, not a skip."""
    cells = 0
    for t in range(1, 41):
        for n in (1, -1):
            D = t * t - 4 * n
            if D < 0 or is_square(D):
                continue
            od = order_disc(CharPoly(t, n))
            want = sum(class_count(g * g * od.D0) for g in range(1, od.f + 1) if od.f % g == 0)
            reps = box_classes(t, n, max(t + 5, 10), 60)
            assert len(reps) == want, (t, n, reps)
            assert len({class_key(r) for r in reps}) == want, (t, n)
            cells += 1
    assert cells == 78
