import random

import pytest

from solgenus import (
    CharPoly,
    DegenerateSpectrum,
    GeometryLabel,
    IntMat2,
    NotUnimodular,
    TheoremBranch,
    canonical,
    canonical_form,
    char_poly,
    companion,
    genus,
    lm_representatives,
    presentation,
)
from solgenus.matrices import is_square

from helpers import mat, random_unimodular, unimodular_box


def test_genus_examples():
    r = genus(mat(0, -1, 1, 0))
    assert (r.genus, r.branch, r.h_field) == (1, TheoremBranch.TRACE_ZERO, 1)
    assert r.canonical is not None and r.canonical.B == mat(0, -1, 1, 0)

    r = genus(mat(1, 1, 0, 1))
    assert (r.genus, r.branch) == (1, TheoremBranch.REPEATED_ONE)

    r = genus(mat(2, 1, 1, 1))
    assert (r.genus, r.geometry, r.char.disc) == (1, GeometryLabel.SOL, 5)

    r = genus(mat(6, 1, 1, 0), evidence_level="fast")
    assert (r.genus, r.geometry) == (2, GeometryLabel.SOL)
    assert r.representatives.count == 2
    assert len(set(r.evidence.keys)) == 2 and r.evidence.pairs == ()


def test_genus_rejects_bad_input():
    with pytest.raises(NotUnimodular):
        genus(mat(2, 0, 0, 2))
    with pytest.raises(ValueError):
        genus(mat(2, 1, 1, 1), evidence_level="loud")


def test_genus_trace_zero_canonical_verified():
    for m in [mat(0, -1, 1, 0), mat(0, 1, -1, 0), mat(2, -5, 1, -2), mat(0, 1, 1, 0), mat(1, 0, 0, -1), mat(3, 2, -4, -3)]:
        r = genus(m)
        assert r.branch == TheoremBranch.TRACE_ZERO and r.genus == 1
        c = r.canonical
        assert c.P * m == c.B * c.P


def test_canonical_quarter_turn_by_class_key_on_box():
    # trace 0, det 1 (D = -4) takes the class-key route: h = 1, and the one
    # Latimer-MacDuffee representative is the companion, the quarter turn
    box = [m for m in unimodular_box(6) if char_poly(m).disc == -4]
    assert box
    for m in box:
        c = canonical(m)
        assert c.B == mat(0, -1, 1, 0)
        assert c.P.det() in (1, -1) and c.P * m == c.B * c.P
        with pytest.raises(DegenerateSpectrum):
            canonical_form(m)


def test_genus_repeated_branch():
    for m in [mat(1, 3, 0, 1), mat(-1, 0, 7, -1), IntMat2.identity(), mat(-1, 0, 0, -1)]:
        r = genus(m)
        assert r.branch in (TheoremBranch.REPEATED_ONE, TheoremBranch.REPEATED_MINUS_ONE)
        assert r.genus == 1 and r.h_field == 1
        c = r.canonical
        assert c.P * m == c.B * c.P


def test_canonical_targets_in_library():
    # conjugates of a companion land on the principal Latimer-MacDuffee
    # representative, with a verified conjugator
    rng = random.Random(4242)
    for t, n in ((6, -1), (10, -1), (12, 1)):
        p = CharPoly(t, n)
        reps = lm_representatives(p).reps
        for _ in range(8):
            v = random_unimodular(rng, 8)
            m = v * companion(p) * v.inverse()
            c = canonical(m)
            assert c is not None and c.B == reps[0]
            assert c.P.det() in (1, -1) and c.P * m == c.B * c.P
    # a lattice over a strictly larger order matches no representative
    assert canonical(mat(1, 2, 2, 3)) is None
    for m in (mat(2, 1, -3, -2), mat(-1, 4, 0, -1)):
        assert canonical(m) == canonical_form(m)


def test_genus_conductor_discrepancy_surfaced():
    r = genus(mat(12, 1, 1, 0))  # disc 148 = 4 * 37: order classes 3, field classes 1
    assert (r.h_field, r.h_order, r.genus) == (1, 3, 1)
    assert r.discrepancy and r.disc.f == 2
    assert r.representatives.count == 3


def test_genus_conjugation_invariant():
    rng = random.Random(60902)
    # pool of conjugators with entries in [-5, 5]
    pool = []
    while len(pool) < 40:
        p = random_unimodular(rng)
        if max(abs(x) for x in (p.a, p.b, p.c, p.d)) <= 5:
            pool.append(p)
    for m in unimodular_box(4):
        p = rng.choice(pool)
        assert genus(p * m * p.inverse(), "none").genus == genus(m, "none").genus


def test_genus_depends_only_on_char_poly_in_main_branch():
    by_char = {}
    for m in unimodular_box(3):
        p = char_poly(m)
        if p.t == 0 or p.disc == 0:
            continue
        g = genus(m, "none").genus
        if p in by_char:
            assert by_char[p] == g
        else:
            by_char[p] = g


def test_representative_count_equals_genus_when_conductor_one():
    from solgenus import order_disc

    for t in range(-12, 13):
        for n in (1, -1):
            d = t * t - 4 * n
            if t == 0 or d == 0 or (d > 0 and is_square(d)):
                continue
            od = order_disc(char_poly(mat(0, -n, 1, t)))
            r = genus(mat(0, -n, 1, t), "none")
            if od.f == 1:
                assert r.representatives.count == r.genus, (t, n)


def test_corollary1_examples():
    # trace 0 or equal eigenvalues implies genus 1
    assert genus(mat(0, 1, 1, 0), "none").genus == 1
    assert genus(mat(-1, 3, 0, -1), "none").genus == 1


def test_rigidity_examples():
    assert genus(mat(1, 0, 5, 1), "none").rigid
    assert genus(mat(2, 1, 1, 1), "none").rigid
    assert not genus(mat(6, 1, 1, 0), "none").rigid


def test_presentation_examples():
    assert (
        presentation(IntMat2.identity())
        == "⟨x,y,t | [x,y]=1, txt⁻¹=x, tyt⁻¹=y⟩"
    )
    assert (
        presentation(mat(2, 1, 1, 1))
        == "⟨x,y,t | [x,y]=1, txt⁻¹=x²y, tyt⁻¹=xy⟩"
    )
    assert "txt⁻¹=xy" in presentation(mat(1, 0, 1, 1))
    assert "x⁻¹" in presentation(mat(-1, 0, 0, -1))


def test_full_evidence_structure():
    r = genus(mat(6, 1, 1, 0), evidence_level="full")
    (pair,) = r.evidence.pairs
    assert pair.brute.bound == 50 and pair.brute.witness is None
    assert pair.modular.consistent and pair.modular.m_max == 30


def test_full_evidence_sweep_conductor_one():
    """|t| <= 8, f = 1, MainQuadratic: full evidence shows pairwise
    non-conjugacy over Z (bound 50) and mod-m witnesses for all m <= 30.
    Cells with class number 1 have no pairs and pass trivially."""
    from solgenus import order_disc

    for t in range(-8, 9):
        for n in (1, -1):
            d = t * t - 4 * n
            if t == 0 or d == 0 or (d > 0 and is_square(d)):
                continue
            p = char_poly(mat(0, -n, 1, t))
            if order_disc(p).f != 1:
                continue
            r = genus(mat(0, -n, 1, t), evidence_level="full")
            h = r.representatives.count
            assert len(set(r.evidence.keys)) == h and len(r.evidence.pairs) == h * (h - 1) // 2
            for pair in r.evidence.pairs:
                assert pair.brute.witness is None and pair.brute.bound == 50
                assert pair.modular.consistent and pair.modular.m_max == 30


def test_genus_factors_discriminant_a_fixed_number_of_times(monkeypatch):
    import solgenus.forms
    import solgenus.genus
    import solgenus.ideals
    import solgenus.orders
    from solgenus.forms import _class_set_cached

    calls = []
    original = solgenus.orders.disc_from_int

    def counted(D):
        calls.append(D)
        return original(D)

    for module in (solgenus.orders, solgenus.forms, solgenus.ideals, solgenus.genus):
        if hasattr(module, "disc_from_int"):
            monkeypatch.setattr(module, "disc_from_int", counted)
    _class_set_cached.cache_clear()
    report = genus(mat(0, 1, 1, 100), evidence_level="none")
    assert report.h_order == 12 and report.representatives.count == 12
    # once for the order of the representatives, once for the field
    assert len(calls) <= 2


def test_fast_evidence_makes_one_key_per_representative(monkeypatch):
    import importlib

    from solgenus.forms import _class_set_cached
    from solgenus.ideals import companion

    # import_module, since the package attribute solgenus.genus is the function
    names = ("orders", "forms", "ideals", "genus", "conjugacy")
    modules = [importlib.import_module(f"solgenus.{name}") for name in names]
    factored, decided = [], []
    original = modules[0].disc_from_int

    def counted(D):
        factored.append(D)
        return original(D)

    def decision(a, b):
        decided.append((a, b))
        return None

    for module in modules:
        if hasattr(module, "disc_from_int"):
            monkeypatch.setattr(module, "disc_from_int", counted)
        if hasattr(module, "are_conjugate_gl2z"):
            monkeypatch.setattr(module, "are_conjugate_gl2z", decision)
    _class_set_cached.cache_clear()
    report = genus(companion(CharPoly(1026, -1)))
    n = report.representatives.count
    assert n > 90 and len(set(report.evidence.keys)) == n and report.evidence.pairs == ()
    # distinct keys need no decision; D and D0 are factored once each
    assert decided == []
    assert len(factored) <= 2


def test_survey_rows_match_genus_reports():
    from solgenus.genus import survey_rows
    from solgenus.ideals import companion

    rows = survey_rows(30, "both")
    assert len(rows) == 116
    for row in rows:
        r = genus(companion(row.char), "none")
        expected = (r.char, r.disc, r.geometry, r.branch)
        assert (row.char, row.disc, row.geometry, row.branch) == expected, row
        assert (row.h_field, row.h_order, row.genus, row.rigid) == (r.h_field, r.h_order, r.genus, r.rigid), row


def test_equal_class_keys_raise(monkeypatch):
    import importlib

    from solgenus import SolgenusError

    # equal keys would mean two enumerated representatives are conjugate
    module = importlib.import_module("solgenus.genus")
    monkeypatch.setattr(module, "class_key", lambda m, classes=None: (1, 0))
    for level in ("fast", "full"):
        with pytest.raises(SolgenusError, match="share a class key"):
            genus(mat(6, 1, 1, 0), level)
    assert genus(mat(6, 1, 1, 0), "none").evidence is None


def test_full_evidence_pair_limit(monkeypatch, capsys):
    import importlib

    from solgenus import SolgenusError
    from solgenus.cli import main

    module = importlib.import_module("solgenus.genus")
    m = companion(CharPoly(26, -1))  # h_order = 4: 6 pairs
    monkeypatch.setattr(module, "MAX_FULL_PAIRS", 6)
    assert len(genus(m, "full").evidence.pairs) == 6

    def scan(*args):
        raise AssertionError("a scan ran past the pair limit")

    monkeypatch.setattr(module, "MAX_FULL_PAIRS", 5)
    monkeypatch.setattr(module, "brute_force_conjugator", scan)
    monkeypatch.setattr(module, "modular_table", scan)
    with pytest.raises(SolgenusError, match="6 pair scans, above 5"):
        genus(m, "full")
    assert main(["genus", "0 1; 1 26", "--evidence", "full"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(genus(m, "fast").evidence.keys) == 4


def test_survey_builds_each_class_set_once(monkeypatch):
    # D = t^2 - 4n is even in t, so the rows for +t reuse the class sets that
    # the rows for -t built; a bounded cache would build them again.  h_order
    # of a conductor f > 1 comes from the field's class set, so only the
    # fields' class sets are built
    from solgenus import forms
    from solgenus.forms import _class_set_cached
    from solgenus.genus import survey_rows
    from solgenus.orders import disc_from_int

    built = []
    original = forms._reduced_forms

    def recorded(D):
        built.append(D)
        return original(D)

    monkeypatch.setattr(forms, "_reduced_forms", recorded)
    _class_set_cached.cache_clear()
    rows = survey_rows(60)
    fields = {r.disc.D0 for r in rows}
    assert any(r.disc.f > 1 for r in rows)
    assert _class_set_cached.cache_info().misses == len(fields)
    assert sorted(built) == sorted(fields) and all(disc_from_int(D).f == 1 for D in built)
    _class_set_cached.cache_clear()


def test_survey_negative_tmax_refused(capsys):
    from solgenus import SolgenusError
    from solgenus.cli import main
    from solgenus.genus import survey_rows

    with pytest.raises(SolgenusError, match="survey tmax -1 is negative"):
        survey_rows(-1)
    assert main(["survey", "--tmax", "-5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: survey tmax -5 is negative\n"
    # tmax 0 has no Sol cell: an empty survey, not an error
    assert survey_rows(0) == []


def test_genus_checks_h_order_against_representatives(monkeypatch, capsys):
    # the enumeration of D and the class number formula are two computations
    # of h_order: a formula that is off by one is caught in every report
    import importlib

    from solgenus import SolgenusError
    from solgenus.cli import main

    module = importlib.import_module("solgenus.genus")
    original = module.class_count
    m = companion(CharPoly(12, -1))  # D = 148 = 2^2 * 37
    r = genus(m, "none")
    assert r.disc.f == 2 and r.h_order == 3

    def off_by_one(disc, *mode):
        h = original(disc, *mode)
        return h + 1 if getattr(disc, "f", 1) > 1 else h

    monkeypatch.setattr(module, "class_count", off_by_one)
    for level in ("none", "fast"):
        with pytest.raises(SolgenusError, match="3 representatives for disc 148, but the class number formula gives 4"):
            genus(m, level)
    assert main(["genus", "0 1; 1 12"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: 3 representatives") and err.count("\n") == 1


def test_survey_tmax_above_limit_refused_before_class_sets(capsys, monkeypatch):
    # memory grows as tmax^2 with every class set cached: refuse at once
    import importlib

    from solgenus import SolgenusError, forms
    from solgenus.cli import main
    from solgenus.genus import MAX_SURVEY_TMAX, survey_rows

    module = importlib.import_module("solgenus.genus")

    def unreachable(*args, **kwargs):
        raise AssertionError("a class set was built")

    monkeypatch.setattr(forms, "class_set", unreachable)
    monkeypatch.setattr(module, "class_set", unreachable)
    with pytest.raises(SolgenusError, match=f"survey tmax {MAX_SURVEY_TMAX + 1} is above {MAX_SURVEY_TMAX}"):
        survey_rows(MAX_SURVEY_TMAX + 1)
    assert main(["survey", "--tmax", "999999"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: survey tmax 999999 is above {MAX_SURVEY_TMAX}\n"
    # the limit itself is accepted: the first cell reaches the class sets
    with pytest.raises(AssertionError, match="a class set was built"):
        survey_rows(MAX_SURVEY_TMAX)
