"""Checks of `solgenus` outputs against arithmetic computed apart from the program.

Nothing here imports `solgenus`.  The class numbers come from Dirichlet's
class number formula, evaluated through the exponentially convergent series
that its functional equation gives (Cohen, GTM 138, Prop. 5.3.16 for D < 0
and Prop. 5.6.11 for D > 0), so a check costs O(sqrt|D|) instead of the
O(|D|) of the finite sums.  `finite_class_number` evaluates the finite sums
themselves; the quick mode of run.py compares the two on small D.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erfc, exp1
from sympy import factorint

from workloads import survey_cells

SURVEY_FIELDS = ["t", "n", "D", "D0", "f", "geometry", "branch", "h_field", "h_order", "genus", "rigid"]


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


@dataclass
class CheckResult:
    items: int
    failed: int = 0
    incorrect: bool = False  # some output was present but wrong
    messages: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Discriminants, characters and class numbers
# ---------------------------------------------------------------------------


def split_disc(D: int) -> tuple[int, int]:
    """(D0, f) with D = f^2 * D0 and D0 fundamental, from sympy.factorint."""
    f = 1
    for p, e in factorint(abs(D)).items():
        f *= p ** (e // 2)
    d0 = D // (f * f)
    if d0 % 4 != 1:  # square-free part 2 or 3 mod 4: D0 = 4 * d0
        f //= 2
        d0 = D // (f * f)
    return d0, f


def kronecker_prime(D0: int, p: int) -> int:
    """Kronecker symbol (D0 / p) for a prime p."""
    if p == 2:
        return 0 if D0 % 2 == 0 else (1 if D0 % 8 in (1, 7) else -1)
    r = D0 % p
    if r == 0:
        return 0
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=None)
def _smallest_prime_factor(limit: int) -> np.ndarray:
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            spf[p * p :: p] = np.minimum(spf[p * p :: p], p)
    return spf


def _character(D0: int, N: int) -> np.ndarray:
    """chi(n) = (D0 / n) for n = 1..N, by complete multiplicativity."""
    spf = _smallest_prime_factor(1 << max(N, 2).bit_length())[: N + 1]
    n = np.arange(N + 1, dtype=np.int64)
    odd = n[(spf == n) & (n > 2)]
    # Euler's criterion, vectorized square-and-multiply
    r = D0 % odd
    e = (odd - 1) // 2
    acc = np.ones_like(odd)
    base = r.copy()
    while e.any():
        acc = np.where(e & 1, acc * base % odd, acc)
        base = base * base % odd
        e >>= 1
    chi_p = np.zeros(N + 1, dtype=np.int64)
    chi_p[1] = 1
    if N >= 2:
        chi_p[2] = kronecker_prime(D0, 2)
    chi_p[odd] = np.where(r == 0, 0, np.where(acc == 1, 1, -1))
    chi = np.ones(N, dtype=np.int64)
    rest = n[1:].copy()
    while (rest > 1).any():
        p = spf[rest]
        chi *= chi_p[p]
        rest //= p
    return chi


def _reduced_start(D0: int) -> tuple[int, int]:
    """(P, 2) with (P + sqrt D0)/2 reduced and Z + Z*(P + sqrt D0)/2 the maximal order."""
    s = math.isqrt(D0)
    return (s if (s - D0) % 2 == 0 else s - 1), 2


def log_fundamental_unit(D0: int) -> float:
    """log of the fundamental unit: sum of log complete quotients over one period."""
    P0, Q0 = _reduced_start(D0)
    s, root = math.isqrt(D0), math.sqrt(D0)
    P, Q, total = P0, Q0, 0.0
    while True:
        total += math.log((P + root) / Q)
        a = (P + s) // Q
        P = a * Q - P
        Q = (D0 - P * P) // Q
        if (P, Q) == (P0, Q0):
            return total


def unit_index(D0: int, f: int) -> int:
    """[O_K^x : O^x] for the order of conductor f in the field of discriminant D0."""
    if f == 1:
        return 1
    if D0 < 0:
        return {-3: 3, -4: 2}.get(D0, 1)
    # eps = q_{l-1} * alpha0 + q_{l-2} from the period of alpha0 = (P0 + sqrt D0)/2,
    # written x + y*w with w = (D0 + sqrt D0)/2, all mod f
    P0, Q0 = _reduced_start(D0)
    s = math.isqrt(D0)
    P, Q, q2, q1 = P0, Q0, 1, 0
    while True:
        a = (P + s) // Q
        q2, q1 = q1, (a * q1 + q2) % f
        P = a * Q - P
        Q = (D0 - P * P) // Q
        if (P, Q) == (P0, Q0):
            break
    x, y = (q1 * ((P0 - D0) // 2) + q2) % f, q1
    norm_w = (D0 * D0 - D0) // 4  # w^2 = D0*w - norm_w
    ex, ey = x, y
    for k in range(1, 4 * f * f + 2):  # eps^k lies in Z + f*O_K exactly when f | ey
        if ey % f == 0:
            return k
        ex, ey = (ex * x - norm_w * ey * y) % f, (ex * y + x * ey + D0 * ey * y) % f
    raise CheckFailed(f"no power of the unit lies in the order of conductor {f}")


@lru_cache(maxsize=None)
def field_class_number(D0: int) -> int:
    """h(D0) from Dirichlet's class number formula (series form)."""
    A = abs(D0)
    N = int(7.0 * math.sqrt(A / math.pi)) + 10  # tail terms below 1e-20
    chi = _character(D0, N).astype(np.float64)
    n = np.arange(1, N + 1, dtype=np.float64)
    x = n * math.sqrt(math.pi / A)
    if D0 < 0:
        w = {-3: 6, -4: 4}.get(D0, 2)
        h = w / 2 * float(np.sum(chi * (erfc(x) + math.sqrt(A) / (math.pi * n) * np.exp(-x * x))))
    else:
        h = float(np.sum(chi * (math.sqrt(A) / n * erfc(x) + exp1(x * x)))) / (2 * log_fundamental_unit(D0))
    if abs(h - round(h)) > 1e-6:
        raise CheckFailed(f"class number series for {D0} is not an integer: {h}")
    return round(h)


def finite_class_number(D0: int) -> float:
    """h(D0) from the finite sums: -1/2 sum chi(a) log sin(pi a/D0) = h log eps for
    D0 > 0, and -(w/2|D0|) sum chi(a) a for D0 < 0.  O(|D0|); for cross-checks."""
    A = abs(D0)
    chi = _character(D0, A - 1).astype(np.float64)
    a = np.arange(1, A, dtype=np.float64)
    if D0 < 0:
        return -{-3: 6, -4: 4}.get(D0, 2) / (2 * A) * float(np.sum(chi * a))
    return -0.5 * float(np.sum(chi * np.log(np.sin(np.pi * a / A)))) / log_fundamental_unit(D0)


@lru_cache(maxsize=None)
def order_class_number(D: int) -> int:
    """h(O) = h * f * prod_{p | f} (1 - (D0/p)/p) / [O_K^x : O^x]."""
    D0, f = split_disc(D)
    num, den = field_class_number(D0) * f, 1
    for p in factorint(f):
        num *= p - kronecker_prime(D0, p)
        den *= p
    h, rem = divmod(num, den * unit_index(D0, f))
    if rem:
        raise CheckFailed(f"order class number formula is not integral at D = {D}")
    return h


def is_reduced(a: int, b: int, c: int, D: int) -> bool:
    """Primitive, of discriminant D, and reduced (Gauss for D < 0; |sqrt D - 2|a|| < b < sqrt D for D > 0)."""
    if b * b - 4 * a * c != D or math.gcd(math.gcd(a, b), c) != 1:
        return False
    if D < 0:
        return 0 < a and abs(b) <= a <= c and not (b < 0 and (-b == a or a == c))
    ta = 2 * abs(a)
    return 0 < b and b * b < D and (ta + b) ** 2 > D and (ta <= b or (ta - b) ** 2 < D)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def parse_matrix(text: str) -> tuple[int, int, int, int]:
    rows = [r.replace(",", " ").split() for r in text.split(";")]
    (a, b), (c, d) = rows
    return int(a), int(b), int(c), int(d)


def _from_json(m) -> tuple[int, int, int, int]:
    (a, b), (c, d) = m
    return int(a), int(b), int(c), int(d)


def _mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def modular_witness_holds(P, A, B, m: int) -> bool:
    """P*A = B*P (mod m) and det P invertible mod m."""
    lhs, rhs = _mul(P, A), _mul(B, P)
    det = P[0] * P[3] - P[1] * P[2]
    return all((x - y) % m == 0 for x, y in zip(lhs, rhs)) and math.gcd(det, m) == 1


# ---------------------------------------------------------------------------
# Per-command output checks; each raises CheckFailed on the first mismatch
# ---------------------------------------------------------------------------


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_invariants(D: int, D0: int, f: int, h_field: int | None, h_order: int, genus: int | None) -> None:
    _expect((D0, f) == split_disc(D), f"split of {D}: got D0={D0}, f={f}")
    if h_field is not None:
        _expect(h_field == field_class_number(D0), f"h_field({D0}) = {h_field}, formula {field_class_number(D0)}")
    _expect(h_order == order_class_number(D), f"h_order({D}) = {h_order}, formula {order_class_number(D)}")
    if genus is not None:
        _expect(1 <= genus <= h_order, f"genus {genus} outside 1..{h_order}")


def _check_survey_row(cell: tuple[int, int], row: list[str]) -> None:
    _expect(len(row) == len(SURVEY_FIELDS), f"row {row} has {len(row)} fields")
    rec = dict(zip(SURVEY_FIELDS, row))
    t, n = cell
    _expect((int(rec["t"]), int(rec["n"])) == cell, f"row {row} where cell {cell} was due")
    D = int(rec["D"])
    _expect(D == t * t - 4 * n, f"D of {cell}")
    _expect((rec["geometry"], rec["branch"]) == ("Sol", "MainQuadratic"), f"labels of {cell}")
    genus = int(rec["genus"])
    _check_invariants(D, int(rec["D0"]), int(rec["f"]), int(rec["h_field"]), int(rec["h_order"]), genus)
    _expect(rec["rigid"] == ("true" if genus == 1 else "false"), f"rigid of {cell}")


def _check_survey(argv: list[str], out: str, res: CheckResult) -> None:
    cells = survey_cells(int(argv[argv.index("--tmax") + 1]))
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != SURVEY_FIELDS or len(rows) - 1 != len(cells):
        res.failed, res.incorrect = res.items, True
        res.messages.append(f"survey: header or row count wrong ({len(rows) - 1} rows, {len(cells)} cells)")
        return
    for cell, row in zip(cells, rows[1:]):
        try:
            _check_survey_row(cell, row)
        except (CheckFailed, ValueError) as e:
            res.failed += 1
            res.incorrect = True
            res.messages.append(f"survey: {e}")


def _check_classnumber(argv: list[str], rep: dict) -> None:
    D = int(argv[1])
    _expect(int(rep["D"]) == D and rep["mode"] == "improper", "echoed D or mode")
    h = int(rep["h"])
    _check_invariants(D, int(rep["D0"]), int(rep["f"]), None, h, None)
    forms = [tuple(int(x) for x in f) for f in rep["reps"]]
    _expect(len(forms) == h and len(set(forms)) == h, f"{len(forms)} representatives for h = {h}")
    bad = [f for f in forms if not is_reduced(*f, D)]
    _expect(not bad, f"representatives not reduced, primitive, of discriminant {D}: {bad[:3]}")


def _check_genus(argv: list[str], rep: dict) -> None:
    A = parse_matrix(argv[1])
    level = argv[argv.index("--evidence") + 1] if "--evidence" in argv else "fast"
    t, n = A[0] + A[3], A[0] * A[3] - A[1] * A[2]
    D = t * t - 4 * n
    _expect(_from_json(rep["matrix"]) == A, "echoed matrix")
    _expect((rep["trace"], rep["det"], int(rep["D"])) == (t, n, D), "trace, det or D")
    _expect((rep["geometry"], rep["branch"]) == ("Sol", "MainQuadratic"), "geometry or branch")
    h_order, genus = int(rep["h_order"]), int(rep["genus"])
    D0, f = int(rep["D0"]), int(rep["conductor"])
    _check_invariants(D, D0, f, int(rep["h_field"]), h_order, genus)
    _expect(rep["rigid"] == (genus == 1), "rigid flag")
    reps = [_from_json(r["matrix"]) for r in rep["representatives"]]
    _expect(len(reps) == h_order == len(set(reps)), f"{len(reps)} representatives for h_order = {h_order}")
    _expect(all((r[0] + r[3], r[0] * r[3] - r[1] * r[2]) == (t, n) for r in reps), "representative trace/det")
    ev = rep["evidence"]
    _expect(ev["level"] == level, "evidence level")
    pairs = ev["pairs"]
    due = [(i, j) for i in range(h_order) for j in range(i + 1, h_order)]
    _expect([(p["i"], p["j"]) for p in pairs] == due, "pair list")
    _expect(not any(p["gl2z_conjugate"] for p in pairs), "a pair of representatives reported conjugate")
    if level != "full":
        return
    for p in pairs:
        _expect(not p["exhaustive_scan"]["witness_found"], f"box scan found a witness for pair {p['i']},{p['j']}")
        mod = p["mod_m"]
        levels = mod["witnesses"]
        _expect([w["m"] for w in levels] == list(range(2, mod["m_max"] + 1)), "mod-m levels")
        _check_levels(reps[p["i"]], reps[p["j"]], [(w["m"], w["P"]) for w in levels], f)


def _check_levels(A, B, levels, conductor: int) -> None:
    for m, P in levels:
        if P is None:
            # every invertible ideal is locally principal: conductor 1 leaves no gap
            _expect(conductor > 1, f"level {m} not witnessed at conductor 1")
            continue
        _expect(modular_witness_holds(_from_json(P), A, B, m), f"witness at m = {m} fails P*A = B*P or det")


def _check_conj_mod(argv: list[str], rep: dict) -> None:
    A, B = parse_matrix(argv[1]), parse_matrix(argv[2])
    mmax = int(argv[argv.index("--mmax") + 1])
    _expect(_from_json(rep["matrix_a"]) == A and _from_json(rep["matrix_b"]) == B, "echoed matrices")
    levels = [(lv["m"], lv["witness"]) for lv in rep["levels"]]
    _expect([m for m, _ in levels] == list(range(2, mmax + 1)), "levels")
    t, n = A[0] + A[3], A[0] * A[3] - A[1] * A[2]
    _check_levels(A, B, levels, split_disc(t * t - 4 * n)[1])
    first = next((m for m, P in levels if P is None), None)
    _expect(rep["first_failure"] == first and rep["all_witnessed"] == (first is None), "summary fields")


_JSON_CHECKS = {"classnumber": _check_classnumber, "genus": _check_genus, "conj-mod": _check_conj_mod}


def check_output(argv: list[str], out: str, items: int) -> CheckResult:
    """Check one CLI output; every item of a wrong output counts as failed."""
    res = CheckResult(items)
    if argv[0] == "survey":
        _check_survey(argv, out, res)
        return res
    try:
        _JSON_CHECKS[argv[0]](argv, json.loads(out))
    except (CheckFailed, KeyError, TypeError, ValueError) as e:
        res.failed, res.incorrect = items, True
        res.messages.append(f"{argv[0]}: {type(e).__name__}: {e}")
    return res
