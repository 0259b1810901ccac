"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import contextlib
import itertools
import math
import time
from pathlib import Path

from solgenus import (
    CharPoly,
    EquivMode,
    GeometryLabel,
    IntMat2,
    TheoremBranch,
    are_conjugate_gl2z,
    are_conjugate_mod_m,
    brute_force_conjugator,
    char_poly,
    class_count,
    genus,
    geometry,
    is_hyperbolic,
    lm_representatives,
    matrix_order,
    order_disc,
)
from solgenus.matrices import is_square

FIXTURES = Path(__file__).parent / "fixtures"


@contextlib.contextmanager
def criterion(num: int, budget: float, desc: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num}] FAIL  {desc}")
        raise
    dt = time.monotonic() - t0
    assert dt < budget, f"criterion {num} exceeded {budget}s budget ({dt:.1f}s)"
    print(f"[ACCEPTANCE {num}] PASS  ({dt:6.2f}s < {budget:g}s)  {desc}")


def _traceless_box(bound: int) -> list[IntMat2]:
    out = []
    for a in range(-bound, bound + 1):
        for n in (1, -1):
            target = -a * a - n  # b*c
            for b in range(-bound, bound + 1):
                if b == 0:
                    if target == 0:
                        out.extend(IntMat2(a, 0, c, -a) for c in range(-bound, bound + 1))
                    continue
                if target % b == 0 and abs(target // b) <= bound:
                    out.append(IntMat2(a, b, target // b, -a))
    return sorted(set(out), key=lambda m: (m.a, m.b, m.c, m.d))


def test_criterion_1_trace_zero_rigidity():
    with criterion(1, 5.0, "trace-zero monodromies: genus 1 with verified canonical conjugator"):
        mats = _traceless_box(10)
        assert len(mats) >= 200
        for m in mats:
            r = genus(m, evidence_level="none")
            assert r.genus == 1 and r.branch is TheoremBranch.TRACE_ZERO
            c = r.canonical
            assert c is not None and c.P.det() in (1, -1)
            assert c.P * m == c.B * c.P
            if m.det() == 1:
                assert c.B == IntMat2(0, -1, 1, 0)
            elif (m.a % 2, m.b % 2, m.c % 2, m.d % 2) != (1, 0, 0, 1):
                assert c.B == IntMat2(0, 1, 1, 0)


def test_criterion_2_repeated_eigenvalue_rigidity():
    with criterion(2, 5.0, "repeated-eigenvalue monodromies (entries in [-6,6]): genus 1"):
        span = range(-6, 7)
        seen = 0
        for a, b, c, d in itertools.product(span, repeat=4):
            if a * d - b * c not in (1, -1):
                continue
            m = IntMat2(a, b, c, d)
            p = char_poly(m)
            if p.disc != 0:
                continue
            r = genus(m, evidence_level="none")
            assert r.genus == 1
            assert r.canonical.P * m == r.canonical.B * r.canonical.P
            seen += 1
        assert seen > 100


def _direct_definite_count(D: int) -> int:
    count = 0
    a = 1
    while 3 * a * a <= abs(D):
        for b in range(-a, a + 1):
            if (b * b - D) % (4 * a) == 0:
                c = (b * b - D) // (4 * a)
                if c >= a and not (b < 0 and (-b == a or a == c)):
                    if math.gcd(math.gcd(a, b), c) == 1:
                        count += 1
        a += 1
    return count


def test_criterion_3_gaussian_class_number():
    with criterion(3, 5.0, "definite class numbers at disc -4 and -3 equal 1 (oracle checked)"):
        for D in (-4, -3):
            assert class_count(D, EquivMode.IMPROPER) == 1
            assert class_count(D, EquivMode.PROPER) == 1
            assert _direct_definite_count(D) == 1


def test_criterion_4_genus_two_witness_pipeline():
    with criterion(4, 60.0, "disc 40 pipeline: 2 classes, no conjugator to bound 50, mod-m witnesses to 30"):
        p = CharPoly(6, -1)
        reps = lm_representatives(p)
        assert reps.count == 2
        a, b = reps.reps
        assert char_poly(a) == char_poly(b) == p
        scan = brute_force_conjugator(a, b, 50)
        assert scan.witness is None and scan.bound == 50
        for m in range(2, 31):
            w = are_conjugate_mod_m(a, b, m)
            assert w is not None, f"missing GL2(Z/{m}) witness"


def test_criterion_5_theorem_equality_sweep():
    with criterion(5, 30.0, "sweep |t| <= 12, conductor 1: representative count = class number = genus"):
        cells = 0
        for t in range(-12, 13):
            for n in (1, -1):
                d = t * t - 4 * n
                if d == 0 or (d > 0 and is_square(d)):
                    continue
                p = CharPoly(t, n)
                od = order_disc(p)
                if od.f != 1:
                    continue
                reps = lm_representatives(p)
                h = class_count(od.D0, EquivMode.IMPROPER)
                assert reps.count == h
                if t != 0:
                    r = genus(IntMat2(0, -n, 1, t), evidence_level="none")
                    assert r.genus == h == r.representatives.count
                cells += 1
        assert cells > 30


def test_criterion_6_oracle_equivalence():
    with criterion(6, 600.0, "forms-based conjugacy decision agrees with exhaustive search (entries in [-4,4])"):
        span = range(-4, 5)
        groups: dict[CharPoly, list[IntMat2]] = {}
        for a, b, c, d in itertools.product(span, repeat=4):
            if a * d - b * c not in (1, -1):
                continue
            m = IntMat2(a, b, c, d)
            p = char_poly(m)
            if p.disc == 0 or is_square(max(p.disc, 0)):
                continue
            groups.setdefault(p, []).append(m)

        none_pairs = 0
        confirm_budget = 20
        for p, ms in sorted(groups.items(), key=lambda kv: (kv[0].t, kv[0].n)):
            for a, b in itertools.combinations(ms, 2):
                w = are_conjugate_gl2z(a, b)  # witness self-verifies when found
                if w is None:
                    assert brute_force_conjugator(a, b, 25).witness is None, (a, b)
                    none_pairs += 1
                elif confirm_budget > 0:
                    # spot-check the other direction: exhaustive search also succeeds
                    assert brute_force_conjugator(a, b, 25).witness is not None
                    confirm_budget -= 1
        assert none_pairs >= 50  # the disc-20 content split lives in this box


def test_criterion_7_geometry_classifier():
    with criterion(7, 5.0, "geometry labels match the eigenvalue criterion at 1e-9"):
        for t in range(-50, 51):
            for n in (1, -1):
                m = IntMat2(0, -n, 1, t)
                d = t * t - 4 * n
                if d >= 0:
                    rt = math.sqrt(d)
                    moduli = (abs((t + rt) / 2), abs((t - rt) / 2))
                else:
                    moduli = (math.sqrt(n),) * 2
                hyp = all(abs(x - 1.0) > 1e-9 for x in moduli)
                assert is_hyperbolic(m) == hyp
                label = geometry(m)
                if abs(t) > 2:
                    assert label is GeometryLabel.SOL
                if matrix_order(m) is not None:
                    assert label is GeometryLabel.EUCLIDEAN
                elif not hyp:
                    assert label is GeometryLabel.NIL


def test_criterion_8_survey_golden_and_row_invariants():
    with criterion(8, 60.0, "survey --tmax 20 byte-stable against the golden file, rows internally consistent"):
        from solgenus.cli import main

        import io
        import contextlib as ctx

        def run():
            buf = io.StringIO()
            with ctx.redirect_stdout(buf):
                assert main(["survey", "--tmax", "20", "--format", "csv"]) == 0
            return buf.getvalue()

        out1, out2 = run(), run()
        assert out1 == out2
        assert out1 == (FIXTURES / "survey_tmax20.csv").read_text()

        lines = out1.strip().split("\n")
        assert lines[0] == "t,n,D,D0,f,geometry,branch,h_field,h_order,genus,rigid"
        assert len(lines) - 1 == 76
        for line in lines[1:]:
            t, n, D, D0, f, geo, branch, hf, ho, g, rigid = line.split(",")
            t, n, D, D0, f, hf, ho, g = map(int, (t, n, D, D0, f, hf, ho, g))
            assert D == t * t - 4 * n and D == f * f * D0
            assert D > 0 and not is_square(D)
            assert geo == "Sol" and branch == "MainQuadratic"
            assert g == hf >= 1 and ho >= 1
            assert rigid == ("true" if g == 1 else "false")
            assert class_count(D0, EquivMode.IMPROPER) == hf
            if branch != "MainQuadratic":
                assert g == 1
