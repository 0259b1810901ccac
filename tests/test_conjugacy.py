import math
import random
from itertools import combinations, product

import pytest

from solgenus import (
    BQForm,
    CharPoly,
    ConjugacyWitness,
    DegenerateSpectrum,
    IntMat2,
    ModularWitness,
    SolgenusError,
    are_conjugate_gl2z,
    are_conjugate_mod_m,
    brute_force_conjugator,
    canonical_form,
    char_poly,
    class_key,
    lm_representatives,
    modular_table,
)
from helpers import mat, random_unimodular, unimodular_box
from reference_scans import box_scan, image_has_unit, modular_scan, monolithic_scan, solution_basis
from solgenus import conjugacy
from solgenus.conjugacy import MAX_SCAN_BOUND, _diagonal_form, _echelon, _fixed_form, _modular_scan
from solgenus.matrices import is_square
from solgenus.orders import factor


def planted_pair(rng, base):
    p = random_unimodular(rng)
    return base, p * base * p.inverse()


def _word_conjugate() -> tuple[IntMat2, IntMat2, IntMat2]:
    """(a, b, word) with b = word * a * word^-1; a 24-letter word puts the entries of b near 1e30."""
    word = IntMat2.identity()
    for k in range(24):
        word = word * (mat(2, 1, 1, 1) if k % 2 else mat(1, 6, 1, 7))
    a = mat(0, 1, 1, 6)
    return a, word * a * word.inverse(), word


# every prime power q = p^k up to MAX_SCAN_PRIME_POWER, as (q, p)
_PRIME_POWERS = [(q, f[0][0]) for q in range(2, 54) if len(f := factor(q)) == 1]


def test_fixed_form_examples():
    one, flip = IntMat2.identity(), mat(1, 0, 0, -1)
    assert _fixed_form(mat(0, -1, 1, 3)) == (1, BQForm(1, 3, 1), one)
    assert _fixed_form(mat(0, 1, 1, 6)) == (1, BQForm(1, 6, -1), one)
    assert _fixed_form(mat(0, -1, 1, 0)) == (1, BQForm(1, 0, 1), one)
    assert _fixed_form(mat(0, 1, -1, 0)) == (1, BQForm(1, 0, 1), flip)
    assert _fixed_form(mat(1, 2, 2, 3)) == (2, BQForm(1, 1, -1), one)
    with pytest.raises(DegenerateSpectrum):
        class_key(mat(1, 1, 0, 1))


def test_class_key_conjugation_covariant():
    rng = random.Random(5150)
    checked = 0
    for _ in range(300):
        a = random_unimodular(rng, 8)
        if char_poly(a).disc in (0, 4):
            continue
        p = random_unimodular(rng)
        assert class_key(p * a * p.inverse()) == class_key(a)
        checked += 1
    assert checked > 100


def test_class_key_agrees_with_decision_on_box():
    # every ordered pair of distinct box matrices with one nondegenerate
    # polynomial, D < 0 pairs whose fixed forms have opposite signs included
    # (for det +-1, D < 0 is -3 or -4, one class each)
    groups = {}
    for m in unimodular_box(4):
        p = char_poly(m)
        if p.disc != 0 and not is_square(p.disc):
            groups.setdefault(p, []).append(m)
    pairs = signs = 0
    for ms in groups.values():
        keys = [class_key(m) for m in ms]
        signs += len({_fixed_form(m)[2] for m in ms}) == 2
        for a, ka in zip(ms, keys):
            for b, kb in zip(ms, keys):
                if a == b:
                    continue
                assert (ka == kb) == (are_conjugate_gl2z(a, b) is not None), (a, b)
                pairs += 1
    assert pairs == 2938 and signs > 0


def test_class_key_invariant_under_random_conjugation():
    rng = random.Random(4242)
    bases = [mat(0, -1, 1, 3), mat(6, 1, 1, 0), mat(0, -1, 1, 0), mat(-2, 1, -3, 1), mat(1, 2, 2, 3), mat(4, 3, 3, 2)]
    bases += lm_representatives(CharPoly(35, 1)).reps
    for base in bases:
        key = class_key(base)
        for _ in range(40):
            p = random_unimodular(rng, 10)
            assert class_key(p * base * p.inverse()) == key


def test_self_conjugacy_identity_witness():
    a = mat(2, 1, 1, 1)
    w = are_conjugate_gl2z(a, a)
    assert w is not None and w.P == IntMat2.identity()


def test_rotation_pair_witness():
    w = are_conjugate_gl2z(mat(0, -1, 1, 0), mat(0, 1, -1, 0))
    assert w is not None  # e.g. conjugation by diag(1, -1)


def test_definite_sign_branch_witnesses():
    # D = -3: both fixed forms negative definite, then fixed forms of opposite signs
    w = are_conjugate_gl2z(mat(-2, 1, -3, 1), mat(-2, 3, -1, 1))
    assert w is not None and w.P == mat(3, -1, 1, 0)
    w = are_conjugate_gl2z(mat(-2, -3, 1, 1), mat(-2, 1, -3, 1))
    assert w is not None and w.P == mat(0, -1, -1, -3)


def test_d40_representatives_not_conjugate():
    reps = lm_representatives(CharPoly(6, -1))
    assert are_conjugate_gl2z(reps.reps[0], reps.reps[1]) is None


def test_planted_conjugators_found():
    rng = random.Random(31337)
    bases = [mat(2, 1, 1, 1), mat(6, 1, 1, 0), mat(0, -1, 1, 3), mat(0, -1, 1, 0), mat(1, 1, 1, 0), mat(4, 3, 3, 2)]
    for _ in range(400):
        a, b = planted_pair(rng, rng.choice(bases))
        w = are_conjugate_gl2z(a, b)
        assert w is not None  # witness self-verifies on construction


def test_conjugacy_different_char_poly_none():
    assert are_conjugate_gl2z(mat(0, -1, 1, 3), mat(0, -1, 1, 4)) is None


def test_content_obstruction_detected():
    # t = 4, det = -1: the fixed form of the first is primitive of disc 20,
    # the second has content 2 (a lattice over the maximal order of disc 5)
    a, b = mat(0, 1, 1, 4), mat(1, 2, 2, 3)
    assert char_poly(a) == char_poly(b)
    assert are_conjugate_gl2z(a, b) is None
    assert brute_force_conjugator(a, b, 12).witness is None


def test_degenerate_repeated_eigenvalue_cases():
    assert are_conjugate_gl2z(mat(1, 1, 0, 1), mat(1, -1, 0, 1)) is not None
    assert are_conjugate_gl2z(mat(1, 2, 0, 1), mat(1, 1, 0, 1)) is None  # contents 2 vs 1
    assert are_conjugate_gl2z(mat(-1, 3, 0, -1), mat(-1, -3, 0, -1)) is not None
    assert are_conjugate_gl2z(IntMat2.identity(), mat(1, 1, 0, 1)) is None
    w = are_conjugate_gl2z(mat(1, 0, 4, 1), mat(1, 4, 0, 1))
    assert w is not None


def test_degenerate_involution_cases():
    # the two trace-0 det -1 types are separated by reduction mod 2
    assert are_conjugate_gl2z(mat(1, 0, 0, -1), mat(0, 1, 1, 0)) is None
    assert brute_force_conjugator(mat(1, 0, 0, -1), mat(0, 1, 1, 0), 10).witness is None
    w = are_conjugate_gl2z(mat(0, 1, 1, 0), mat(2, 1, -3, -2))
    assert w is not None
    w = are_conjugate_gl2z(mat(1, 0, 0, -1), mat(3, 2, -4, -3))
    assert w is not None


def test_canonical_form_targets():
    w = canonical_form(mat(1, 0, 4, 1))
    assert w.B == mat(1, 4, 0, 1) and w.P * mat(1, 0, 4, 1) == w.B * w.P

    assert canonical_form(mat(3, 2, -4, -3)).B == mat(1, 0, 0, -1)

    assert canonical_form(mat(2, 1, -3, -2)).B == mat(0, 1, 1, 0)

    with pytest.raises(DegenerateSpectrum):
        canonical_form(mat(2, 1, 1, 1))


def test_canonical_form_exhaustive_traceless_box():
    for m in unimodular_box(3):
        p = char_poly(m)
        if p.t != 0 and p.disc != 0:
            continue
        if p.t == 0 and p.n == 1:
            continue  # irreducible route, covered elsewhere
        w = canonical_form(m)
        assert w.P * m == w.B * w.P and w.P.det() in (1, -1)


def _normal_form_target(m):
    """The integral normal form of a discriminant 0 or 4 matrix, in closed form."""
    p = char_poly(m)
    if p.disc == 4:
        identity_mod_2 = all(x % 2 == 0 for x in (m.a - 1, m.b, m.c, m.d - 1))
        return mat(1, 0, 0, -1) if identity_mod_2 else mat(0, 1, 1, 0)
    e = p.t // 2
    if m == mat(e, 0, 0, e):
        return m
    return mat(e, math.gcd(m.a - e, m.b, m.c, m.d - e), 0, e)


def test_canonical_form_on_box():
    box = [m for m in unimodular_box(12) if char_poly(m).disc in (0, 4)]
    assert len(box) == 478
    targets = {}
    for m in box:
        w = canonical_form(m)
        assert w.B == _normal_form_target(m), m
        assert w.P.det() in (1, -1) and w.P * m == w.B * w.P
        targets[m] = w.B
    small = [m for m in box if max(abs(x) for x in (m.a, m.b, m.c, m.d)) <= 6]
    pairs = [(a, b) for a in small for b in small if char_poly(a) == char_poly(b)]
    assert len(pairs) == 12674
    for a, b in pairs:
        assert (are_conjugate_gl2z(a, b) is not None) == (targets[a] == targets[b]), (a, b)


def test_scan_bound_refused_before_lattice(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(conjugacy, "_diagonal_form", unreachable)
    monkeypatch.setattr(conjugacy, "_lex_first", unreachable)
    a, b = lm_representatives(CharPoly(6, -1)).reps
    for bound in (MAX_SCAN_BOUND + 1, 0, -1):
        with pytest.raises(SolgenusError, match=f"^scan bound {bound} is outside 1..{MAX_SCAN_BOUND}$"):
            brute_force_conjugator(a, b, bound)
    with pytest.raises(AssertionError):
        brute_force_conjugator(a, b, MAX_SCAN_BOUND)


def test_brute_force_big_entries():
    # the walk is exact in Python integers, so no entry size is refused: each
    # pair gives its lex-first witness, checked on construction, or a miss
    a, b, _ = _word_conjugate()
    big = mat(10**20, 1, 10**20 * (10**20 + 3) - 1, 10**20 + 3)
    w = mat(1, 1, 1, 2)
    cases = [
        (big, big, mat(-1, 0, 0, -1)),
        (b, b, mat(-1, 0, 0, -1)),
        # -w and -w^-1: the commutant of big holds no other small matrix
        (big, w * big * w.inverse(), mat(-1, -1, -1, -2)),
        (w * big * w.inverse(), big, mat(-2, 1, 1, -1)),
        # the conjugators of the 31-digit pair are all far outside the box
        (a, b, None),
        (b, a, None),
    ]
    for bound in (50, MAX_SCAN_BOUND):
        for x, y, expected in cases:
            res = brute_force_conjugator(x, y, bound)
            assert res.bound == bound
            assert (None if res.witness is None else res.witness.P) == expected, (x, y, bound)
    with pytest.raises(SolgenusError):
        brute_force_conjugator(big, big, 0)


def test_brute_force_examples():
    a = mat(2, 1, 1, 1)
    # the identity is a witness, so the scan must find one even at bound 1;
    # the lex-first witness is another commutant and is frozen as a regression
    res = brute_force_conjugator(a, a, 1)
    assert res.witness is not None
    assert res.witness.P == mat(-1, -1, -1, 0)

    p = mat(2, 1, 1, 1)
    b = p * mat(0, -1, 1, 3) * p.inverse()
    res = brute_force_conjugator(mat(0, -1, 1, 3), b, 5)
    assert res.witness is not None

    reps = lm_representatives(CharPoly(6, -1))
    res = brute_force_conjugator(reps.reps[0], reps.reps[1], 12)
    assert res.witness is None and res.bound == 12


def test_brute_force_lexicographic_first():
    a = mat(2, 1, 1, 1)
    res = brute_force_conjugator(a, a, 2)
    # every unimodular commutant is a witness; the lex-first has p11 = -2
    assert res.witness.P.a == -2


def test_brute_force_solves_last_coefficient():
    # the commutant of T is [[x, y], [0, x]] with det x^2: the rows x = -1000
    # .. -2 hold no witness, and each is refuted without walking its 2001 y
    t = mat(1, 1, 0, 1)
    assert brute_force_conjugator(t, t, MAX_SCAN_BOUND).witness.P == mat(-1, -MAX_SCAN_BOUND, 0, -1)


def test_first_unit_matches_scan():
    rng = random.Random(1103)
    hits = 0
    for _ in range(20000):
        x = [rng.randint(-4, 4) for _ in range(4)]
        r = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(4)]
        clo = rng.randint(-6, 3)
        chi = clo + rng.randint(-1, 8)
        scan = next((c for c in range(clo, chi + 1) if conjugacy._det([u + c * v for u, v in zip(x, r)]) in (1, -1)), None)
        # det(x + c*r) = det(r)*c^2 + k*c + det(x)
        k = x[0] * r[3] + r[0] * x[3] - x[1] * r[2] - r[1] * x[2]
        assert conjugacy._first_unit(conjugacy._det(r), k, conjugacy._det(x), clo, chi, 0) == scan, (x, r, clo, chi)
        hits += scan is not None
    assert hits > 2000


def _lex_first_by_enumeration(basis, lo, hi, p):
    # every point of the box in lex order, kept when it lies in the lattice
    for x in product(range(lo, hi + 1), repeat=4):
        det = x[0] * x[3] - x[1] * x[2]
        if (det % p if p else det in (1, -1)) and _in_span(x, basis):
            return x
    return None


def test_lex_first_matches_enumeration():
    # random echelon bases of rank 1 to 4 with positive pivots and entries of
    # both signs after them, in a box around 0 (p = 0) and in [0, q) (p > 0)
    rng = random.Random(4099)
    for trial in range(240):
        rank = 1 + trial % 4
        pivots = sorted(rng.sample(range(4), rank))
        basis = [[0] * k + [rng.choice((1, 1, 2, 3))] + [rng.randint(-3, 3) for _ in range(3 - k)] for k in pivots]
        lo, hi, p = (-2, 3, 0) if trial % 2 else (0, rng.choice((3, 4, 5)), rng.choice((2, 3, 5)))
        got = conjugacy._lex_first(basis, lo, hi, p)
        assert got == _lex_first_by_enumeration(basis, lo, hi, p), (basis, lo, hi, p)
    assert conjugacy._lex_first([], -2, 2, 0) is None


def test_box_scan_negative_pivot():
    # the diagonal form gives the kernel vector (-2, -1, 1, 0): its pivot is
    # negative, the echelon basis flips it, and the rows keep negative entries
    # after their pivots
    a, b = mat(-2, -1, -1, 0), mat(-2, 1, 1, 0)
    d, v, kernel = _diagonal_form((a.a, a.b, a.c, a.d), (b.a, b.b, b.c, b.d))
    assert (-2, -1, 1, 0) in [vi for di, vi in zip(d, v) if di == 0]
    assert all(next(x for x in row if x) > 0 for row in kernel)
    assert any(x < 0 for row in kernel for x in row)
    for bound in (1, 2, 3, 5, 12):
        _assert_box_witness_matches_grid(a, b, bound)
        _assert_box_witness_matches_grid(b, a, bound)


def _box_pairs():
    """Every ordered pair of unimodular_box(3) matrices with one characteristic
    polynomial (discriminants 0 and 4 and +-I included), then 300 pairs with
    unequal polynomials."""
    box = unimodular_box(3)
    groups = {}
    for m in box:
        groups.setdefault(char_poly(m), []).append(m)
    same = [(a, b) for ms in groups.values() for a in ms for b in ms]
    rng = random.Random(8086)
    other = []
    while len(other) < 300:
        a, b = rng.choice(box), rng.choice(box)
        if char_poly(a) != char_poly(b):
            other.append((a, b))
    return same, other


def _lm_pairs():
    # the benchmark's evidence cells, then the two conductor cells of ROADMAP D
    cells = ((6, -1), (8, 1), (9, -1), (10, -1), (12, 1), (12, -1), (35, 1))
    return [(a, b) for t, n in cells for reps in [lm_representatives(CharPoly(t, n)).reps] for a in reps for b in reps]


def _assert_box_witness_matches_grid(a, b, bound):
    got = brute_force_conjugator(a, b, bound).witness
    assert (None if got is None else got.P) == box_scan(a, b, bound), (a, b, bound)


def test_box_scan_matches_numpy_grid():
    same, other = _box_pairs()
    assert len(same) == 3942
    assert {char_poly(a).disc for a, _ in same} >= {0, 4}
    assert (IntMat2.identity(), IntMat2.identity()) in same and (mat(-1, 0, 0, -1), mat(-1, 0, 0, -1)) in same
    for bound in (1, 2, 5):
        for a, b in same + other:
            _assert_box_witness_matches_grid(a, b, bound)
    for a, b in same[::10] + other[::5]:
        _assert_box_witness_matches_grid(a, b, 12)


def test_box_scan_matches_numpy_grid_on_representatives():
    for a, b in _lm_pairs():
        for bound in (1, 2, 5, 12):
            _assert_box_witness_matches_grid(a, b, bound)


def _entries_mod(m, q):
    return tuple(x % q for x in (m.a, m.b, m.c, m.d))


def test_modular_scan_matches_numpy_grid():
    # every prime power q <= 53; the grids of q > 27 are large, so those
    # levels take one pair each, in turn
    same, other = _box_pairs()
    pairs = same[::400] + other[::60] + _lm_pairs()[::6]
    assert _PRIME_POWERS[-1] == (53, 53)
    for i, (q, p) in enumerate(_PRIME_POWERS):
        for a, b in pairs if q <= 27 else [pairs[i % len(pairs)]]:
            ae, be = _entries_mod(a, q), _entries_mod(b, q)
            assert _modular_scan(ae, be, q, p) == modular_scan(ae, be, q, p), (a, b, q)


@pytest.mark.parametrize("q, p", [(4, 2), (8, 2), (16, 2), (32, 2), (9, 3), (27, 3), (25, 5), (49, 7)])
def test_modular_scan_matches_numpy_grid_near_identity(q, p):
    # A = I + (q/p) X and B = I + (q/p) Y are scalar mod q/p, so the solution
    # module is large; X = [[0, 1], [0, 0]] against Y = 0 is a refuted level
    shifts = ((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, -1), (0, 1, 1, 0))
    pairs = list(product(shifts, repeat=2)) if q < 32 else [(shifts[1], shifts[0])] + [(x, x) for x in shifts[1:]]
    k = q // p
    for x, y in pairs:
        ae = tuple((int(i in (0, 3)) + k * v) % q for i, v in enumerate(x))
        be = tuple((int(i in (0, 3)) + k * v) % q for i, v in enumerate(y))
        assert _modular_scan(ae, be, q, p) == modular_scan(ae, be, q, p), (x, y)
    assert _modular_scan((1, k % q, 0, 1), (1, 0, 0, 1), q, p) is None


def test_modular_scan_matches_numpy_grid_on_evidence_cells():
    # the benchmark's evidence cells, every ordered pair of representatives,
    # at every prime power up to MAX_SCAN_PRIME_POWER
    cells = ((6, -1), (8, 1), (9, -1), (10, -1), (12, 1))
    pairs = [(a, b) for t, n in cells for reps in [lm_representatives(CharPoly(t, n)).reps] for a in reps for b in reps]
    assert len(pairs) == 20 and _PRIME_POWERS[-1] == (53, 53) == (conjugacy.MAX_SCAN_PRIME_POWER,) * 2
    for q, p in _PRIME_POWERS:
        for a, b in pairs:
            ae, be = _entries_mod(a, q), _entries_mod(b, q)
            assert _modular_scan(ae, be, q, p) == modular_scan(ae, be, q, p), (a, b, q)


def test_modular_scan_matches_numpy_grid_on_large_lattices():
    # A = B = I: every matrix solves, so the kernel has rank 4 and every
    # level its whole image mod p; the nilpotent [[0, 16], [0, 0]] has
    # d = (16, 16, 0, 0), so at q = 32 its level lattice is the rank-2
    # kernel with 2 V_i, d_i = 16, and its image mod 2 has dimension 2
    ident, nil = (1, 0, 0, 1), (0, 16, 0, 0)
    assert len(_diagonal_form(ident, ident)[2]) == 4
    assert sorted(_diagonal_form(nil, nil)[0]) == [0, 0, 16, 16]
    for q, p in _PRIME_POWERS:
        for x in (ident, tuple(v % q for v in nil)):
            assert _modular_scan(x, x, q, p) == modular_scan(x, x, q, p), (x, q)
    assert _modular_scan(nil, nil, 32, 2) == modular_scan(nil, nil, 32, 2) is not None


def _in_span(x, basis):
    """Whether x lies in the Z-span of an echelon basis with positive pivots."""
    x = list(x)
    for row in basis:
        k = next(i for i, v in enumerate(row) if v)
        c, r = divmod(x[k], row[k])
        if any(x[:k]) or r:
            return False
        x = [u - c * v for u, v in zip(x, row)]
    return not any(x)


def _diagonal_lattice(ae, be, q):
    d, v, kernel = _diagonal_form(ae, be)
    if q == 0:
        return kernel
    return _echelon([*kernel, *([q // math.gcd(di, q) * x for x in vi] for di, vi in zip(d, v) if di)])


def _assert_diagonal_form_matches_echelon(a, b, q, p):
    ae, be = (a.a, a.b, a.c, a.d), (b.a, b.b, b.c, b.d)
    new, old = _diagonal_lattice(ae, be, q), solution_basis(ae, be, q)
    assert all(_in_span(x, old) for x in new) and all(_in_span(x, new) for x in old), (a, b, q)
    if q:
        got = _modular_scan(ae, be, q, p)
        assert (got is not None) == image_has_unit(old, p), (a, b, q)
        assert got == _modular_scan(_entries_mod(a, q), _entries_mod(b, q), q, p), (a, b, q)


_LEVELS = [(0, 0)] + _PRIME_POWERS


def test_diagonal_form_lattice_matches_echelon_reference():
    # every ordered pair at q = 0 and at one prime power in turn; the pairs
    # with one characteristic polynomial, whose lattices are large, at every
    # third prime power as well
    box = unimodular_box(2)
    pairs = [(a, b) for a in box for b in box]
    assert len(pairs) == 10816 and len(_LEVELS) == 25
    for i, (a, b) in enumerate(pairs):
        levels = [_LEVELS[0], _LEVELS[1 + i % 24]]
        if char_poly(a) == char_poly(b):
            levels += _LEVELS[2 + i % 3 :: 3]
        for q, p in levels:
            _assert_diagonal_form_matches_echelon(a, b, q, p)


def test_diagonal_form_lattice_matches_echelon_reference_large_entries():
    # every level of the 31-digit pair matches the echelon reference and the
    # residues, and the word is an exact solution
    a, b, word = _word_conjugate()
    assert 10**29 < max(abs(x) for x in (b.a, b.b, b.c, b.d)) < 10**31
    for x, y in ((a, b), (b, a), (b, b)):
        for q, p in _LEVELS:
            _assert_diagonal_form_matches_echelon(x, y, q, p)
    ae, be = (a.a, a.b, a.c, a.d), (b.a, b.b, b.c, b.d)
    assert _in_span((word.a, word.b, word.c, word.d), _diagonal_lattice(ae, be, 0))


def test_brute_vs_forms_agreement_small_box():
    boxed = unimodular_box(2)
    groups = {}
    for m in boxed:
        p = char_poly(m)
        if p.disc in (0, 4):
            continue
        groups.setdefault(p, []).append(m)
    checked = 0
    for p, ms in groups.items():
        for a, b in combinations(ms, 2):
            w = are_conjugate_gl2z(a, b)
            if w is None:
                assert brute_force_conjugator(a, b, 12).witness is None
                checked += 1
    # the box is small enough that every equal-char pair here is conjugate
    assert checked == 0


def test_witness_symmetry_and_transitivity():
    rng = random.Random(2718)
    base = mat(6, 1, 1, 0)
    for _ in range(50):
        p1, p2 = random_unimodular(rng), random_unimodular(rng)
        a = base
        b = p1 * a * p1.inverse()
        c = p2 * b * p2.inverse()
        wab = are_conjugate_gl2z(a, b)
        wbc = are_conjugate_gl2z(b, c)
        assert wab and wbc
        # inverse and product of witnesses are witnesses: a relation structure
        ConjugacyWitness(wab.P.inverse(), b, a)
        ConjugacyWitness(wbc.P * wab.P, a, c)


def test_mod_m_examples():
    a = mat(2, 1, 1, 1)
    w = are_conjugate_mod_m(a, a, 6)
    assert w is not None

    reps = lm_representatives(CharPoly(6, -1))
    w = are_conjugate_mod_m(reps.reps[0], reps.reps[1], 7)
    assert w is not None

    assert are_conjugate_mod_m(mat(0, -1, 1, 3), mat(0, -1, 1, 4), 5) is None
    # the same exception type as ModularWitness(1, ...)
    with pytest.raises(SolgenusError, match="modulus must be at least 2"):
        are_conjugate_mod_m(a, a, 1)


def _one_entry_off(i):
    """(P, A, B, m): P*A - B*P is nonzero mod m in entry i alone, and det P is a unit mod m."""
    box = [mat(*e) for e in product(range(-1, 3), repeat=4)]
    for a, b, q in product(box[::7], box[::5], (mat(1, 0, 0, 1), mat(1, 1, 0, 1), mat(0, 1, 1, 0))):
        lhs, rhs = q * a, b * q
        off = [k for k, (x, y) in enumerate(zip((lhs.a, lhs.b, lhs.c, lhs.d), (rhs.a, rhs.b, rhs.c, rhs.d))) if (x - y) % 5]
        if off == [i]:
            return q, a, b, 5
    raise AssertionError(f"no case with entry {i} alone off")


def test_modular_witness_checks_relation_and_determinant():
    a = mat(0, 1, 1, 6)
    ModularWitness(6, mat(1, 0, 0, 1), a, a)
    # P*A = B*P holds mod 6 and not over Z
    ModularWitness(6, mat(1, 0, 0, 1), a, mat(6, 7, 1, 0))
    for i in range(4):
        w = _one_entry_off(i)
        with pytest.raises(SolgenusError, match="fails P\\*A = B\\*P"):
            ModularWitness(w[3], *w[:3])
    # 2I commutes with everything; its det 4 is a unit mod 5, not mod 6 or 4
    ModularWitness(5, mat(2, 0, 0, 2), a, a)
    for m in (4, 6):
        with pytest.raises(SolgenusError, match="determinant not invertible"):
            ModularWitness(m, mat(2, 0, 0, 2), a, a)
    with pytest.raises(SolgenusError, match="determinant not invertible"):
        ModularWitness(7, mat(0, 0, 0, 0), a, a)
    with pytest.raises(SolgenusError, match="at least 2"):
        ModularWitness(1, mat(1, 0, 0, 1), a, a)


def test_mod_m_crt_agrees_with_monolithic_scan():
    reps = lm_representatives(CharPoly(6, -1))
    pairs = [
        (reps.reps[0], reps.reps[1]),
        (mat(0, -1, 1, 3), mat(0, -1, 1, 4)),
        (mat(2, 1, 1, 1), mat(1, 1, 1, 2)),
    ]
    for a, b in pairs:
        for m in range(2, 13):
            crt_w = are_conjugate_mod_m(a, b, m)
            ae = tuple(x % m for x in (a.a, a.b, a.c, a.d))
            be = tuple(x % m for x in (b.a, b.b, b.c, b.d))
            mono = monolithic_scan(ae, be, m)
            assert (crt_w is not None) == (mono is not None), (a, b, m)
            if crt_w is not None:
                # each entry is the residue in [0, m) that reduces to every level's witness
                ent = (crt_w.P.a, crt_w.P.b, crt_w.P.c, crt_w.P.d)
                assert all(0 <= x < m for x in ent), (a, b, m, ent)
                for q, p in conjugacy._scan_parts(m):
                    assert tuple(x % q for x in ent) == _modular_scan(ae, be, q, p), (a, b, m, q)


def test_modular_table_witnessed():
    a = mat(2, 1, 1, 1)
    ev = modular_table(a, a, range(2, 11))
    assert ev.consistent and all(w is not None for _, w in ev.levels)

    reps = lm_representatives(CharPoly(6, -1))
    ev = modular_table(reps.reps[0], reps.reps[1], range(2, 13))
    assert ev.consistent


def test_modular_table_takes_a_generator():
    # the moduli are read once: a generator gives the same table as its tuple
    a, b = mat(0, 1, 1, 4), mat(1, 2, 2, 3)
    ev = modular_table(a, b, (m for m in range(2, 6)))
    assert ev == modular_table(a, b, (2, 3, 4, 5))
    assert ev.m_max == 5 and [m for m, _ in ev.levels] == [2, 3, 4, 5] and ev.refuted_at == 2

    # a modulus is refused as it is read, so a long range is not held first
    def up_to_59():
        yield from range(2, 60)
        raise AssertionError("read past the refused modulus 59")

    with pytest.raises(SolgenusError, match="modulus 59 has a prime-power part above 53"):
        modular_table(a, b, up_to_59())


def test_modular_table_splits_each_modulus_once():
    # the up-front check caches the parts of each modulus for its level
    split = conjugacy._scan_parts
    a, b = mat(0, 1, 1, 6), mat(4, 3, 3, 2)
    for moduli in (range(2, 45), [12], [7, 12, 7], []):
        split.cache_clear()
        ev = modular_table(a, b, moduli)
        assert split.cache_info().misses == len(set(moduli)) and ev.consistent, moduli
    # a lone level divides its modulus itself
    split.cache_clear()
    assert are_conjugate_mod_m(a, b, 12) is not None and split.cache_info().misses == 1


def test_modular_table_refutation():
    # same char poly but different form content: already non-conjugate mod 2
    ev = modular_table(mat(0, 1, 1, 4), mat(1, 2, 2, 3), range(2, 7))
    assert not ev.consistent and ev.refuted_at == 2
    assert "refuted" in ev.verdict
