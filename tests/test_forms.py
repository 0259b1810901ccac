import math
import random
from itertools import combinations

import numpy as np
import pytest

from solgenus import (
    BQForm,
    DiscriminantMismatch,
    EquivMode,
    ImprimitiveForm,
    IntMat2,
    SolgenusError,
    class_count,
    class_set,
    forms_equivalent,
)

import reference_forms
from helpers import random_unimodular
from solgenus import forms
from solgenus.forms import _class_set_cached, _cycle_raw, _reduce_indefinite, _reduced_forms, _rho_raw
from solgenus.matrices import is_square

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def oracle_definite_reduced_count(D: int) -> int:
    """Direct scan for reduced positive definite primitive forms of disc D."""
    count = 0
    a = 1
    while 3 * a * a <= abs(D):
        for b in range(-a, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                count += 1
        a += 1
    return count


def oracle_linked(f1, f2, dets, bound) -> bool:
    """Bounded search for U with det in ``dets`` and det(U)*f1(Ux) = f2(x)."""
    a, b, c = f1
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    pg, qg, rg, sg = (x.ravel() for x in np.meshgrid(rng, rng, rng, rng, indexing="ij"))
    det = pg * sg - qg * rg
    na = a * pg * pg + b * pg * rg + c * rg * rg
    nb = 2 * a * pg * qg + b * (pg * sg + qg * rg) + 2 * c * rg * sg
    nc = a * qg * qg + b * qg * sg + c * sg * sg
    for dsign in dets:
        mask = (det == dsign) & (dsign * na == f2[0]) & (dsign * nb == f2[1]) & (dsign * nc == f2[2])
        if mask.any():
            return True
    return False


def oracle_partition(forms, dets, bound):
    """Partition forms into classes using only the bounded transformation search."""
    labels = list(range(len(forms)))

    def find(i):
        while labels[i] != i:
            labels[i] = labels[labels[i]]
            i = labels[i]
        return i

    for i, j in combinations(range(len(forms)), 2):
        if oracle_linked(forms[i], forms[j], dets, bound):
            labels[find(i)] = find(j)
    return len({find(i) for i in range(len(forms))})


# ---------------------------------------------------------------------------
# Construction and reduction
# ---------------------------------------------------------------------------


def test_bqform_validation():
    with pytest.raises(ImprimitiveForm):
        BQForm(2, 0, 2)
    with pytest.raises(SolgenusError):
        BQForm(-1, 0, -1)  # negative definite carrier rejected
    with pytest.raises(SolgenusError):
        BQForm(1, 3, 2)  # discriminant 1, a square
    with pytest.raises(SolgenusError):
        BQForm(1, 2, 1)  # discriminant 0


def reduced(q: BQForm) -> tuple[int, int, int]:
    return forms._reduce(q.triple(), q.disc)[0]


def test_reduce_examples_definite():
    assert reduced(BQForm(1, 0, 1)) == (1, 0, 1)
    assert reduced(BQForm(2, 2, 3)) == (2, 2, 3)
    assert reduced(BQForm(3, 2, 1)) == (1, 0, 2)


def test_reduce_idempotent_and_class_invariant_definite():
    rng = random.Random(4242)
    seeds = [BQForm(1, 0, 1), BQForm(1, 1, 1), BQForm(2, 2, 3), BQForm(1, 1, 6), BQForm(2, 1, 3)]
    for _ in range(2000):
        q = rng.choice(seeds)
        u = IntMat2.identity()
        while u.det() != 1:
            u = random_unimodular(rng)
        moved = q.transform(u)
        assert moved.disc == q.disc
        red = reduced(moved)
        assert red == reduced(q)
        assert reduced(BQForm(*red)) == red


def cycle(q: BQForm) -> list[BQForm]:
    """The rho-cycle of reduced forms containing the reduction of q."""
    f, _ = _reduce_indefinite(q.triple(), q.disc)
    return [BQForm(*g) for g in _cycle_raw(f, q.disc, len(_reduced_forms(q.disc)))]


def test_rho_and_cycle_examples():
    assert [f.triple() for f in cycle(BQForm(1, 1, -1))] == [(1, 1, -1), (-1, 1, 1)]
    c1 = {f.triple() for f in cycle(BQForm(1, 6, -1))}
    assert (1, 6, -1) in c1
    c2 = {f.triple() for f in cycle(BQForm(3, 2, -3))}
    assert c1.isdisjoint(c2)


def test_cycle_closure_and_even_length():
    for seed in [BQForm(1, 1, -1), BQForm(1, 6, -1), BQForm(3, 2, -3), BQForm(1, 2, -2), BQForm(1, 8, -8)]:
        cyc = cycle(seed)
        assert len(cyc) % 2 == 0
        g, D = cyc[0].triple(), seed.disc
        for _ in range(len(cyc)):
            g = _rho_raw(g, D, math.isqrt(D))
        assert g == cyc[0].triple()
        assert len(set(f.triple() for f in cyc)) == len(cyc)


def test_reduction_preserves_disc_and_primitivity():
    rng = random.Random(77)
    seeds = [BQForm(1, 6, -1), BQForm(3, 2, -3), BQForm(1, 2, -2), BQForm(1, 4, -1)]
    for _ in range(2000):
        q = rng.choice(seeds).transform(random_unimodular(rng))
        cyc = cycle(q)
        assert all(f.disc == q.disc for f in cyc)  # BQForm enforces primitivity itself


# ---------------------------------------------------------------------------
# Class sets
# ---------------------------------------------------------------------------


def test_class_set_examples():
    assert class_count(-4, EquivMode.PROPER) == 1
    assert class_count(-4, EquivMode.IMPROPER) == 1
    assert class_count(5, EquivMode.IMPROPER) == 1
    assert class_count(40, EquivMode.IMPROPER) == 2
    assert class_count(12, EquivMode.PROPER) == 2
    assert class_count(12, EquivMode.IMPROPER) == 1


def test_definite_class_numbers_match_direct_scan():
    for D, h in [(-3, 1), (-4, 1), (-20, 2), (-23, 3), (-47, 5)]:
        assert oracle_definite_reduced_count(D) == h
        assert class_count(D, EquivMode.IMPROPER) == h
        assert class_count(D, EquivMode.PROPER) == h


def test_indefinite_classes_match_bounded_search_oracle():
    for D in (5, 12, 40, 60):
        cs = class_set(D, EquivMode.PROPER)
        reduced = sorted({f for members in cs.class_members for f in members})
        assert oracle_partition(reduced, (1,), 10) == cs.count
        assert oracle_partition(reduced, (1, -1), 10) == class_count(D, EquivMode.IMPROPER)


def test_class_set_mode_inequalities():
    for D in (5, 8, 12, 13, 24, 40, 60, 85, 96, 104, 148, -3, -4, -20, -23):
        imp = class_count(D, EquivMode.IMPROPER)
        pro = class_count(D, EquivMode.PROPER)
        assert imp <= pro <= 2 * imp


def _valid_discriminants(lo, hi):
    return [D for D in range(lo, hi + 1) if D != 0 and D % 4 in (0, 1) and not is_square(D)]


def test_reduced_forms_match_reference_small():
    discs = _valid_discriminants(-10_000, 10_000)
    assert len(discs) == 9_900
    for D in discs:
        assert _reduced_forms(D) == reference_forms.reduced_forms(D), D


@pytest.mark.parametrize("D", [80_000_001, -24_000_003])
def test_reduced_forms_match_reference_large(D):
    assert _reduced_forms(D) == reference_forms.reduced_forms(D)


def test_class_count_long_cycles():
    # two proper cycles of 124,770 reduced forms each, swapped by the twist
    assert class_count(40_000_000_017, EquivMode.IMPROPER) == 1


def test_class_count_formula_matches_enumeration():
    # h(D0) * psi(f) / unit index against the enumeration of D itself, for
    # every conductor f > 1 with |D| <= 10,000, both signs and both modes
    from solgenus.orders import disc_from_int

    orders = [od for D in _valid_discriminants(-10_000, 10_000) if (od := disc_from_int(D)).f > 1]
    assert len(orders) == 3_814 and sum(od.D < 0 for od in orders) == 1_957
    assert {-3, -4, 5, 8, 12} <= {od.D0 for od in orders}
    for od in orders:
        for mode in EquivMode:
            assert class_count(od, mode) == len(class_set(od, mode).reps), (od, mode)


def test_class_count_formula_failures_raise(monkeypatch):
    # an automorph with no order dividing psi(f), and an index that does not
    # divide h * psi(f): D = 45 = 3^2 * 5 has h(5) = 1 and psi(3) = 4
    monkeypatch.setattr(forms, "_scalar_power", lambda m, k, f: False)
    with pytest.raises(SolgenusError, match="no order dividing 4 modulo scalars mod 3"):
        class_count(45, EquivMode.PROPER)
    monkeypatch.undo()
    monkeypatch.setattr(forms, "_unit_index", lambda od, mode, psi, cap: 3)
    with pytest.raises(SolgenusError, match="unit index 3 does not divide h \\* psi = 4"):
        class_count(45)


def test_cycle_cap_raises_domain_error():
    f = _reduced_forms(40)[0]
    assert len(_cycle_raw(f, 40, 6)) == 6
    with pytest.raises(SolgenusError):
        _cycle_raw(f, 40, 5)


def test_class_set_rejects_incomplete_enumeration(monkeypatch):
    # dropping one reduced form breaks the cycle cap or the partition check
    for D in (40, 1_000_009):
        full = _reduced_forms(D)
        monkeypatch.setattr(forms, "_reduced_forms", lambda D, full=full: full[1:])
        _class_set_cached.cache_clear()
        with pytest.raises(SolgenusError):
            class_set(D, EquivMode.PROPER)
    _class_set_cached.cache_clear()


def test_reduction_guard_raises_domain_error(monkeypatch):
    monkeypatch.setattr(forms, "_REDUCTION_STEPS", 1)
    with pytest.raises(SolgenusError):
        _reduce_indefinite((1, 0, -10), 40)


def test_class_set_matches_reference_partition():
    # the one-pass index against the old cycle walk, merge and sort
    discs = _valid_discriminants(-2000, 2000) + [1_000_009, 80_000_001, -24_000_003]
    assert len(discs) == 1_956 + 3
    for D in discs:
        for mode in EquivMode:
            reps, classes = reference_forms.class_partition(D, mode)
            cs = class_set(D, mode)
            assert tuple(q.triple() for q in cs.reps) == reps, (D, mode)
            assert cs.class_of == {f: i for i, members in enumerate(classes) for f in members}, (D, mode)
            assert cs.class_members == classes, (D, mode)


def test_class_index_of_matches_member_scan():
    # the lookup against a scan of the reference classes, on every reduced
    # form and on a random transform of every class representative
    rng = random.Random(2000)
    discs = _valid_discriminants(-2000, 2000)
    assert len(discs) == 1_956
    for D in discs:
        for mode in EquivMode:
            cs = class_set(D, mode)
            _, classes = reference_forms.class_partition(D, mode)
            forms_of = [BQForm(*f) for f in sorted(f for m in classes for f in m)]
            for q in cs.reps:
                u = random_unimodular(rng)
                # a det -1 step would leave the positive definite carrier
                forms_of.append(q.transform(u if D > 0 or u.det() == 1 else u * IntMat2(1, 0, 0, -1)))
            for q in forms_of:
                key = reduced(q)
                scan = [i for i, members in enumerate(classes) if key in members]
                assert scan == [cs.class_index_of(q)], (D, mode, q)


def test_class_set_reps_are_reduced_and_distinct():
    cs = class_set(40, EquivMode.IMPROPER)
    _, classes = reference_forms.class_partition(40, EquivMode.IMPROPER)
    assert len(set(cs.reps)) == cs.count == len(classes)
    for q, members in zip(cs.reps, classes):
        assert q.triple() in members


# ---------------------------------------------------------------------------
# Equivalence with witnesses
# ---------------------------------------------------------------------------


def test_forms_equivalent_identity():
    q = BQForm(1, 6, -1)
    u = forms_equivalent(q, q, EquivMode.PROPER)
    assert u is not None and q.transform(u) == q


def test_forms_equivalent_same_cycle():
    u = forms_equivalent(BQForm(1, 1, -1), BQForm(-1, 1, 1), EquivMode.PROPER)
    assert u is not None and u.det() == 1
    assert BQForm(1, 1, -1).transform(u) == BQForm(-1, 1, 1)


def test_forms_equivalent_distinct_classes_none():
    # D = -23: distinct reduced definite forms, opposite ones included, are
    # not equivalent in either mode
    pairs = [
        (BQForm(1, 6, -1), BQForm(3, 2, -3)),
        (BQForm(1, 1, 6), BQForm(2, 1, 3)),
        (BQForm(2, 1, 3), BQForm(2, -1, 3)),
    ]
    for mode in (EquivMode.PROPER, EquivMode.IMPROPER):
        for q1, q2 in pairs:
            assert forms_equivalent(q1, q2, mode) is None, (q1, q2, mode)


def test_forms_equivalent_improper_needs_flip():
    q1, q2 = BQForm(1, 2, -2), BQForm(-1, 2, 2)
    assert forms_equivalent(q1, q2, EquivMode.PROPER) is None
    u = forms_equivalent(q1, q2, EquivMode.IMPROPER)
    assert u is not None and u.det() == -1
    assert q1.transform(u) == q2


def test_forms_equivalent_symmetric_and_exact():
    rng = random.Random(12)
    seeds = [BQForm(1, 6, -1), BQForm(3, 2, -3), BQForm(1, 1, -1), BQForm(2, 2, 3)]
    for _ in range(200):
        q1 = rng.choice(seeds)
        u = random_unimodular(rng)
        if q1.disc < 0 and u.det() == -1:
            u = u * IntMat2(1, 0, 0, -1)
        q2 = q1.transform(u)
        w = forms_equivalent(q1, q2, EquivMode.IMPROPER)
        assert w is not None and q1.transform(w) == q2
        wback = forms_equivalent(q2, q1, EquivMode.IMPROPER)
        assert wback is not None and q2.transform(wback) == q1


def test_forms_equivalent_disc_mismatch():
    with pytest.raises(DiscriminantMismatch):
        forms_equivalent(BQForm(1, 1, -1), BQForm(1, 6, -1))
    with pytest.raises(DiscriminantMismatch):
        class_set(5).class_index_of(BQForm(1, 6, -1))
