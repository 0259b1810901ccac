"""GL2(Z)-conjugacy decisions, class keys, exhaustive search oracles, and mod-m witnesses.

The irreducible case is decided through binary quadratic forms: the
fixed-line form of A = [[p, q], [r, s]] is F_A = (r, s - p, -q), and
conjugating A by V^-1 transforms F_A by the determinant-twisted substitution
implemented in :mod:`solgenus.forms`.  Matrices with equal irreducible
characteristic polynomial are conjugate exactly when their fixed forms have
the same content and are equivalent under that action.  A reduced form (D < 0)
or reduced cycle (D > 0) tells its class (Buchmann-Vollmer, Binary Quadratic
Forms, ch. 6), so :func:`class_key` decides conjugacy with one reduction per
matrix, and :func:`are_conjugate_gl2z` turns the form transformation into a
conjugator, which is verified before being returned.

Degenerate spectra (discriminant 0 or 4) are decided by exact integral
normal forms: [[e, k], [0, e]] for repeated eigenvalue e with k >= 0, and
for trace 0 / det -1 one of [[0, 1], [1, 0]] or [[1, 0], [0, -1]] depending
on whether the two eigenlines span the lattice (equivalently, whether the
matrix is the identity mod 2; the two types are already non-conjugate mod 2).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSpectrum, SolgenusError
from .forms import _FLIP, BQForm, FormClassSet, class_set, forms_equivalent
from .matrices import IntMat2, char_poly
from .orders import factor

# largest prime-power part q of a modulus that the GL2(Z/q) scan accepts: the
# scan builds q^4-cell int64 grids, and q = 53 already peaks near 634 MB
MAX_SCAN_PRIME_POWER = 53


@dataclass(frozen=True)
class ConjugacyWitness:
    """P in GL2(Z) with P*A = B*P; checked on construction."""

    P: IntMat2
    A: IntMat2
    B: IntMat2

    def __post_init__(self):
        if self.P.det() not in (1, -1):
            raise SolgenusError("conjugacy witness must be unimodular")
        if self.P * self.A != self.B * self.P:
            raise SolgenusError("conjugacy witness fails P*A = B*P")


@dataclass(frozen=True)
class ModularWitness:
    """Residue matrix P mod m with P*A = B*P (mod m) and det invertible mod m."""

    m: int
    P: IntMat2
    A: IntMat2
    B: IntMat2

    def __post_init__(self):
        if self.m < 2:
            raise SolgenusError("modulus must be at least 2")
        lhs = self.P * self.A
        rhs = self.B * self.P
        if any((x - y) % self.m for x, y in zip(_entries(lhs), _entries(rhs))):
            raise SolgenusError("modular witness fails P*A = B*P mod m")
        if math.gcd(self.P.det(), self.m) != 1:
            raise SolgenusError("modular witness determinant not invertible mod m")


@dataclass(frozen=True)
class BruteSearchResult:
    """Outcome of an exhaustive conjugator scan; a None witness is conclusive
    only for conjugators with entries within ``bound``."""

    witness: ConjugacyWitness | None
    bound: int


def _entries(m: IntMat2) -> tuple[int, int, int, int]:
    return (m.a, m.b, m.c, m.d)


def _content(m: IntMat2) -> int:
    return math.gcd(math.gcd(abs(m.a), abs(m.b)), math.gcd(abs(m.c), abs(m.d)))


def _fixed_form(m: IntMat2) -> tuple[int, int, BQForm]:
    """(content, sign, primitive form) of the fixed-line form F = (c, d - a, -b) of m.

    The form is sign * F / content; sign is -1 exactly when F is negative
    definite, so a definite form is carried by its positive representative.
    Requires a nondegenerate discriminant.
    """
    a, b, c = m.c, m.d - m.a, -m.b
    g = math.gcd(a, b, c)
    sign = -1 if b * b - 4 * a * c < 0 and a < 0 else 1
    return g, sign, BQForm(sign * a // g, sign * b // g, sign * c // g)


def class_key(m: IntMat2, classes: FormClassSet | None = None) -> tuple[int, int]:
    """(content, improper class index of the fixed form in class_set(D / content^2)).

    Matrices with one irreducible characteristic polynomial are
    GL2(Z)-conjugate exactly when their keys are equal.  For D < 0 a negative
    definite fixed form is keyed by the class of (a, -b, c), the det -1 step
    that :func:`are_conjugate_gl2z` takes.  ``classes``, the class set of D
    when the caller holds it, spares factoring D for content 1.
    """
    p = char_poly(m)
    if p.disc in (0, 4):
        raise DegenerateSpectrum(f"{p} is reducible; no nondegenerate fixed form")
    g, sign, q = _fixed_form(m)
    if sign < 0:
        q = BQForm(q.a, -q.b, q.c)
    if classes is None or g > 1:
        classes = class_set(q.disc)
    return g, classes.class_index_of(q)


# ---------------------------------------------------------------------------
# Exact canonical forms for degenerate spectra
# ---------------------------------------------------------------------------


def _primitive_kernel_vector(m: IntMat2) -> tuple[int, int]:
    """Primitive generator of ker(m) for a nonzero singular 2x2 matrix."""
    if m.det() != 0:
        raise SolgenusError("kernel vector of a nonsingular matrix")
    if (m.a, m.b) != (0, 0):
        v = (-m.b, m.a)
    else:
        v = (-m.d, m.c)
    g = math.gcd(abs(v[0]), abs(v[1]))
    v = (v[0] // g, v[1] // g)
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = (-v[0], -v[1])
    return v


def _canonical_repeated(m: IntMat2) -> tuple[IntMat2, IntMat2]:
    """(C, P) with P*m*P^-1 = C = [[e, k], [0, e]], k = content(m - e*I) >= 0."""
    p = char_poly(m)
    if p.disc != 0:
        raise SolgenusError(f"{p} has no repeated eigenvalue")
    e = p.t // 2
    nil = IntMat2(m.a - e, m.b, m.c, m.d - e)
    g = _content(nil)
    if g == 0:
        return m, IntMat2.identity()
    # nil = g * u * v^T with u, v primitive and v . u = 0
    col = (nil.a // g, nil.c // g) if (nil.a, nil.c) != (0, 0) else (nil.b // g, nil.d // g)
    gc = math.gcd(abs(col[0]), abs(col[1]))
    u = (col[0] // gc, col[1] // gc)
    i = 0 if u[0] != 0 else 1
    row = (nil.a // g, nil.b // g) if i == 0 else (nil.c // g, nil.d // g)
    v = (row[0] // u[i], row[1] // u[i])
    if (nil.a, nil.b, nil.c, nil.d) != (g * u[0] * v[0], g * u[0] * v[1], g * u[1] * v[0], g * u[1] * v[1]):
        raise SolgenusError(f"m - e*I of {m} is not of rank one")
    # w with v . w = 1 completes (u, w) to a basis in which nil/g is [[0,1],[0,0]]
    gg, x, y = _xgcd(v[0], v[1])
    if gg != 1:
        raise SolgenusError(f"row vector {v} is not primitive")
    q = IntMat2(u[0], x, u[1], y)
    pmat = q.inverse()
    canon = IntMat2(e, g, 0, e)
    if pmat * m != canon * pmat:
        raise SolgenusError(f"shear normal form of {m} failed verification")
    return canon, pmat


def _canonical_involution(m: IntMat2) -> tuple[IntMat2, IntMat2]:
    """(C, P) for trace 0, det -1: C is [[1,0],[0,-1]] or [[0,1],[1,0]]."""
    vp = _primitive_kernel_vector(IntMat2(m.a - 1, m.b, m.c, m.d - 1))
    vm = _primitive_kernel_vector(IntMat2(m.a + 1, m.b, m.c, m.d + 1))
    q = IntMat2(vp[0], vm[0], vp[1], vm[1])
    dt = q.det()
    if abs(dt) == 1:
        pmat = q.inverse()
        canon = IntMat2(1, 0, 0, -1)
        if pmat * m != canon * pmat:
            raise SolgenusError(f"involution normal form of {m} failed verification")
        return canon, pmat
    if abs(dt) != 2:
        raise SolgenusError(f"eigenline lattice of {m} has index {abs(dt)}, not 1 or 2")
    canon = IntMat2(0, 1, 1, 0)
    adj = IntMat2(q.d, -q.b, -q.c, q.a)
    for alpha, beta in ((1, 1), (1, -1)):
        num = IntMat2(alpha, beta, alpha, -beta) * adj
        if any(x % dt for x in _entries(num)):
            continue
        pmat = IntMat2(num.a // dt, num.b // dt, num.c // dt, num.d // dt)
        if pmat.det() in (1, -1) and pmat * m == canon * pmat:
            return canon, pmat
    raise SolgenusError(f"involution canonicalization of {m} failed")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def canonical_form(m: IntMat2) -> tuple[IntMat2, IntMat2]:
    """Integral canonical form for trace-zero or repeated-eigenvalue matrices.

    Returns (C, P) with P*m*P^-1 = C.  For det +1 and trace 0 the target is
    the quarter-turn [[0, -1], [1, 0]]; for det -1 and trace 0 one of the two
    involution types; for discriminant 0 the shear [[e, k], [0, e]].
    """
    p = char_poly(m)
    if p.disc == 0:
        return _canonical_repeated(m)
    if p.t == 0 and p.n == -1:
        return _canonical_involution(m)
    if p.t == 0 and p.n == 1:
        target = IntMat2(0, -1, 1, 0)
        w = are_conjugate_gl2z(m, target)
        if w is None:
            raise SolgenusError(f"{m} is not conjugate to the quarter-turn")
        return target, w.P
    raise DegenerateSpectrum(f"no canonical normal form implemented for {p}")


# ---------------------------------------------------------------------------
# The conjugacy decision
# ---------------------------------------------------------------------------


def are_conjugate_gl2z(a: IntMat2, b: IntMat2) -> ConjugacyWitness | None:
    """Decide conjugacy in GL2(Z); returns a verified witness or None."""
    pa, pb = char_poly(a), char_poly(b)
    if pa != pb:
        return None
    if a == b:
        return ConjugacyWitness(IntMat2.identity(), a, b)
    if pa.disc in (0, 4):
        ca, qa = canonical_form(a)
        cb, qb = canonical_form(b)
        if ca != cb:
            return None
        return ConjugacyWitness(qb.inverse() * qa, a, b)
    ga, sa, qa = _fixed_form(a)
    gb, sb, qb = _fixed_form(b)
    if ga != gb:
        return None  # form content is a conjugacy invariant
    if sa != sb:
        # D < 0 and the fixed forms have opposite signs: the det -1 step _FLIP
        # carries F_a to sign(F_b) * (qa.a, -qa.b, qa.c).  Same signs need no
        # step, since negation commutes with substitution.
        qa = BQForm(qa.a, -qa.b, qa.c)
    v = forms_equivalent(qa, qb)
    if v is None:
        return None
    if sa != sb:
        v = _FLIP * v
    return ConjugacyWitness(v.inverse(), a, b)


# ---------------------------------------------------------------------------
# Exhaustive conjugator scan (independent oracle)
# ---------------------------------------------------------------------------


def brute_force_conjugator(a: IntMat2, b: IntMat2, bound: int) -> BruteSearchResult:
    """Scan all P with entries in [-bound, bound] for P*A = B*P, det P = +-1.

    Returns the lexicographically first witness (ordered by entries
    (p11, p12, p21, p22)) or a bound-labeled miss.  Vectorized with int64;
    requires bound * max|entry| < 2^60.
    """
    char_poly(a), char_poly(b)
    maxent = max(abs(x) for x in _entries(a) + _entries(b))
    if bound < 1 or bound * max(maxent, 1) >= 2**60:
        raise SolgenusError("scan bound out of supported range")
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    qg, rg, sg = np.meshgrid(rng, rng, rng, indexing="ij")
    qg, rg, sg = qg.ravel(), rg.ravel(), sg.ravel()
    a11, a12, a21, a22 = a.a, a.b, a.c, a.d
    b11, b12, b21, b22 = b.a, b.b, b.c, b.d
    for p11 in rng:
        e1 = p11 * a11 + qg * a21 - (b11 * p11 + b12 * rg)
        e2 = p11 * a12 + qg * a22 - (b11 * qg + b12 * sg)
        e3 = rg * a11 + sg * a21 - (b21 * p11 + b22 * rg)
        e4 = rg * a12 + sg * a22 - (b21 * qg + b22 * sg)
        det = p11 * sg - qg * rg
        mask = (np.abs(det) == 1) & (e1 == 0) & (e2 == 0) & (e3 == 0) & (e4 == 0)
        if mask.any():
            i = int(np.argmax(mask))
            p = IntMat2(int(p11), int(qg[i]), int(rg[i]), int(sg[i]))
            return BruteSearchResult(ConjugacyWitness(p, a, b), bound)
    return BruteSearchResult(None, bound)


# ---------------------------------------------------------------------------
# Conjugacy in GL2(Z/m)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _modular_scan(a_ent: tuple, b_ent: tuple, q: int, p: int) -> tuple | None:
    """First P (lex order) in GL2(Z/q) with P*A = B*P mod q; q = p^k."""
    a11, a12, a21, a22 = a_ent
    b11, b12, b21, b22 = b_ent
    grid = np.indices((q, q, q, q), dtype=np.int64).reshape(4, -1)
    p11, p12, p21, p22 = grid
    e1 = (p11 * a11 + p12 * a21 - b11 * p11 - b12 * p21) % q
    e2 = (p11 * a12 + p12 * a22 - b11 * p12 - b12 * p22) % q
    e3 = (p21 * a11 + p22 * a21 - b21 * p11 - b22 * p21) % q
    e4 = (p21 * a12 + p22 * a22 - b21 * p12 - b22 * p22) % q
    det = (p11 * p22 - p12 * p21) % p
    mask = (det != 0) & (e1 == 0) & (e2 == 0) & (e3 == 0) & (e4 == 0)
    if not mask.any():
        return None
    i = int(np.argmax(mask))
    return (int(p11[i]), int(p12[i]), int(p21[i]), int(p22[i]))


def _crt_pair(x1: int, m1: int, x2: int, m2: int) -> int:
    g, s, _ = _xgcd(m1, m2)
    if g != 1:
        raise SolgenusError(f"moduli {m1} and {m2} are not coprime")
    return (x1 + (x2 - x1) * s % m2 * m1) % (m1 * m2)


def _scan_parts(m: int) -> list[tuple[int, int]]:
    """(q, p) for each prime-power part q = p^e of m, or an error if m cannot be scanned."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    split = [(p**e, p) for p, e in factor(m)]
    if max(q for q, _ in split) > MAX_SCAN_PRIME_POWER:
        raise SolgenusError(f"modulus {m} has a prime-power part above {MAX_SCAN_PRIME_POWER}")
    return split


def are_conjugate_mod_m(a: IntMat2, b: IntMat2, m: int) -> ModularWitness | None:
    """Witness of conjugacy in GL2(Z/m), assembled prime power by prime power.

    Raises SolgenusError, before any scan, when a prime-power part of m
    exceeds MAX_SCAN_PRIME_POWER.
    """
    parts = []
    for q, p in _scan_parts(m):
        am = tuple(x % q for x in _entries(a))
        bm = tuple(x % q for x in _entries(b))
        w = _modular_scan(am, bm, q, p)
        if w is None:
            return None
        parts.append((q, w))
    ent = list(parts[0][1])
    mod = parts[0][0]
    for q, w in parts[1:]:
        ent = [_crt_pair(x, mod, y, q) for x, y in zip(ent, w)]
        mod *= q
    if mod != m:
        raise SolgenusError(f"CRT assembled modulus {mod}, expected {m}")
    return ModularWitness(m, IntMat2(*ent), a, b)


@dataclass(frozen=True)
class ProfiniteEvidence:
    """Per-level conjugacy witnesses for a list of moduli, with a summary verdict."""

    m_max: int
    levels: tuple[tuple[int, ModularWitness | None], ...]
    refuted_at: int | None

    @property
    def consistent(self) -> bool:
        return self.refuted_at is None

    @property
    def verdict(self) -> str:
        if self.consistent:
            return f"consistent with profinite conjugacy up to m = {self.m_max}"
        return f"refuted at m = {self.refuted_at}"


def modular_table(a: IntMat2, b: IntMat2, moduli: Sequence[int]) -> ProfiniteEvidence:
    """GL2(Z/m) conjugacy witness, or None, for every m in ``moduli``, in order.

    Every modulus is checked before the first scan, so a modulus that cannot
    be scanned fails the whole table at once.  The characteristic polynomials
    of a and b may differ.  An empty table is consistent up to m = 1, where
    GL2(Z/1) is trivial.
    """
    for m in moduli:
        _scan_parts(m)
    levels = tuple((m, are_conjugate_mod_m(a, b, m)) for m in moduli)
    refuted = next((m for m, w in levels if w is None), None)
    return ProfiniteEvidence(max(moduli, default=1), levels, refuted)


def profinite_evidence(a: IntMat2, b: IntMat2, m_max: int = 30) -> ProfiniteEvidence:
    """Tabulate GL2(Z/m) conjugacy for every m in 2..m_max."""
    if char_poly(a) != char_poly(b):
        raise ValueError("profinite evidence requires equal characteristic polynomials")
    return modular_table(a, b, range(2, m_max + 1))
