"""GL2(Z)-conjugacy decisions, class keys, exhaustive search oracles, and mod-m witnesses.

The irreducible case is decided through binary quadratic forms: the
fixed-line form of A = [[p, q], [r, s]] is F_A = (r, s - p, -q), and
conjugating A by V^-1 transforms F_A by the determinant-twisted substitution
implemented in :mod:`solgenus.forms`.  A negative definite F_A is first
carried to its positive opposite by the one det -1 step F = diag(1, -1),
conjugating A to F*A*F.  Matrices with equal irreducible characteristic
polynomial are conjugate exactly when the resulting forms have the same
content and are equivalent under that action.  A reduced form (D < 0) or
reduced cycle (D > 0) tells its class (Buchmann-Vollmer, Binary Quadratic
Forms, ch. 6), so :func:`class_key` decides conjugacy with one reduction per
matrix, and :func:`are_conjugate_gl2z` turns the form transformation into a
conjugator, which is verified before being returned.  Trace 0, det 1
(D = -4) is one such case.

Degenerate spectra (discriminant 0 or 4) have an integer eigenvalue e and
are decided by one triangular normal form, :func:`canonical_form`: a
primitive eigenvector completed to a basis by xgcd (Cohen, GTM 138,
sec. 2.4) puts the matrix in the shape [[e, k], [0, e']], and the target
follows from k alone.  It is [[e, content(A - e*I)], [0, e]] for repeated
eigenvalue e, and for trace 0 / det -1 it is [[1, 0], [0, -1]] when the
matrix is the identity mod 2 and [[0, 1], [1, 0]] otherwise (the two types
are already non-conjugate mod 2).  The target is a conjugacy invariant; the
conjugator is one verified choice among many.

The two oracles use no reduction theory.  P*A - B*P is a linear map M of
the entries of P, and one diagonal form U*M*V = diag(d), U and V unimodular
(Cohen, GTM 138, sec. 2.4), gives every solution lattice of a pair: one
kernel echelon basis K of the V_i with d_i = 0 spans the solutions of
P*A = B*P, and K with the (q / gcd(d_i, q)) V_i, d_i != 0, those mod q.
:func:`brute_force_conjugator` walks K inside a box and :func:`_modular_scan`
the lattice mod q with entries in [0, q), both in lexicographic order, up to
the first unit determinant.  On the last basis row the determinant is a
quadratic in the coefficient, so that coefficient is solved for, not walked.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateSpectrum, SolgenusError
from .forms import _FLIP, BQForm, FormClassSet, class_set, forms_equivalent
from .matrices import IntMat2, char_poly
from .orders import primes_up_to

# largest prime-power part q of a modulus that the GL2(Z/q) scan accepts.  The
# lattice walk builds no grid: over q <= 53 its slowest level measured 0.85 ms
# (q = 32, A = B = [[0, 16], [0, 0]], 2-core x86-64 VM), a refuted level
# under 0.1 ms.  Raising the limit changes which moduli are refused.
MAX_SCAN_PRIME_POWER = 53
_SCAN_PRIMES = tuple(primes_up_to(MAX_SCAN_PRIME_POWER))

# largest box-scan bound that brute_force_conjugator accepts.  The walk solves
# for the last coefficient instead of scanning it, so it grows with the bound
# times the number of rows above the last: with no witness in the box, the two
# disc-40 representatives took 0.002 s at bound 400, 0.004 s at 800 and
# 0.005 s at 1000; [[1, 1], [0, 1]] against itself took 0.0006 s and the
# identity, whose lattice has rank 4, 0.003 s at 1000 (2-core x86-64 VM).
MAX_SCAN_BOUND = 1000


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
        m = self.m
        if m < 2:
            raise SolgenusError("modulus must be at least 2")
        p0, p1, p2, p3 = _entries(self.P)
        a0, a1, a2, a3 = _entries(self.A)
        b0, b1, b2, b3 = _entries(self.B)
        if ((p0 * a0 + p1 * a2 - b0 * p0 - b1 * p2) % m or (p0 * a1 + p1 * a3 - b0 * p1 - b1 * p3) % m
                or (p2 * a0 + p3 * a2 - b2 * p0 - b3 * p2) % m or (p2 * a1 + p3 * a3 - b2 * p1 - b3 * p3) % m):
            raise SolgenusError("modular witness fails P*A = B*P mod m")
        if math.gcd(p0 * p3 - p1 * p2, m) != 1:
            raise SolgenusError("modular witness determinant not invertible mod m")


@dataclass(frozen=True)
class BruteSearchResult:
    """Outcome of an exhaustive conjugator scan; a None witness is conclusive
    only for conjugators with entries within ``bound``."""

    witness: ConjugacyWitness | None
    bound: int


def _entries(m: IntMat2) -> tuple[int, int, int, int]:
    return (m.a, m.b, m.c, m.d)


def _fixed_form(m: IntMat2) -> tuple[int, BQForm, IntMat2]:
    """(content, primitive form, F) for the fixed-line form (c, d - a, -b) of F*m*F.

    F is _FLIP when the fixed form of m is negative definite and the identity
    otherwise, so a definite form is carried by its positive representative.
    Requires a nondegenerate discriminant.
    """
    f = _FLIP if m.c < 0 and (m.d - m.a) ** 2 + 4 * m.b * m.c < 0 else IntMat2.identity()
    m = f * m * f
    a, b, c = m.c, m.d - m.a, -m.b
    g = math.gcd(a, b, c)
    return g, BQForm(a // g, b // g, c // g), f


def class_key(m: IntMat2, classes: FormClassSet | None = None) -> tuple[int, int]:
    """(content, improper class index of the fixed form in class_set(D / content^2)).

    Matrices with one irreducible characteristic polynomial are
    GL2(Z)-conjugate exactly when their keys are equal.  The form is that of
    :func:`_fixed_form`, whose det -1 step F is the one
    :func:`are_conjugate_gl2z` takes.  ``classes``, the class set of D when
    the caller holds it, spares factoring D for content 1.
    """
    p = char_poly(m)
    if p.disc in (0, 4):
        raise DegenerateSpectrum(f"{p} is reducible; no nondegenerate fixed form")
    g, q, _ = _fixed_form(m)
    if classes is None or g > 1:
        classes = class_set(q.disc)
    return g, classes.class_index_of(q)


# ---------------------------------------------------------------------------
# Exact canonical forms for degenerate spectra
# ---------------------------------------------------------------------------


def _primitive_kernel_vector(m: IntMat2) -> tuple[int, int]:
    """Primitive generator of ker(m) for a nonzero singular 2x2 matrix."""
    v = (-m.b, m.a) if (m.a, m.b) != (0, 0) else (-m.d, m.c)
    g = math.gcd(abs(v[0]), abs(v[1]))
    v = (v[0] // g, v[1] // g)
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = (-v[0], -v[1])
    return v


def canonical_form(m: IntMat2) -> ConjugacyWitness:
    """Witness P*m = C*P, C the integral normal form of m, for discriminant 0 or 4.

    m has the integer eigenvalue e = (t + sqrt(D)) / 2.  A primitive
    eigenvector u, completed by xgcd to q = [u | w] with det q = 1, gives
    q^-1*m*q = [[e, k], [0, t - e]].  For D = 0 the target is
    [[e, |k|], [0, e]], |k| = content(m - e*I), reached by diag(1, -1) when
    k < 0.  For D = 4 (e = 1) the shear [[1, j], [0, 1]] moves k by -2j, so
    k mod 2 decides: even k gives [[1, 0], [0, -1]], odd k gives
    [[1, 1], [0, -1]], which [[1, 0], [1, 1]] carries to [[0, 1], [1, 0]].
    Any other discriminant raises DegenerateSpectrum.
    """
    p = char_poly(m)
    if p.disc not in (0, 4):
        raise DegenerateSpectrum(f"{p} has no integer eigenvalue, so no triangular normal form")
    e = (p.t + math.isqrt(p.disc)) // 2
    nil = IntMat2(m.a - e, m.b, m.c, m.d - e)
    if nil == IntMat2(0, 0, 0, 0):
        return ConjugacyWitness(IntMat2.identity(), m, m)
    u0, u1 = _primitive_kernel_vector(nil)
    _, x, y = _xgcd(u0, u1)
    pmat = IntMat2(x, y, -u1, u0)  # q^-1 for w = (-y, x)
    k = (pmat * m * IntMat2(u0, -y, u1, x)).b
    if p.disc == 0:
        canon = IntMat2(e, abs(k), 0, e)
        if k < 0:
            pmat = _FLIP * pmat
    else:
        canon = IntMat2(1, 0, 0, -1)
        pmat = IntMat2(1, k // 2, 0, 1) * pmat
        if k % 2:
            canon = IntMat2(0, 1, 1, 0)
            pmat = IntMat2(1, 0, 1, 1) * pmat
    return ConjugacyWitness(pmat, m, canon)


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


# ---------------------------------------------------------------------------
# The conjugacy decision
# ---------------------------------------------------------------------------


def are_conjugate_gl2z(a: IntMat2, b: IntMat2) -> ConjugacyWitness | None:
    """Decide conjugacy in GL2(Z); returns a verified witness or None."""
    pa, pb = char_poly(a), char_poly(b)
    if pa != pb:
        return None
    if pa.disc in (0, 4):
        wa, wb = canonical_form(a), canonical_form(b)
        if wa.B != wb.B:
            return None
        return ConjugacyWitness(wb.P.inverse() * wa.P, a, b)
    ga, qa, fa = _fixed_form(a)
    gb, qb, fb = _fixed_form(b)
    if ga != gb:
        return None  # form content is a conjugacy invariant
    # v^-1 (fa a fa) v and fb b fb share the trace and the fixed form gb * qb
    v = forms_equivalent(qa, qb)
    if v is None:
        return None
    return ConjugacyWitness(fb * v.inverse() * fa, a, b)


# ---------------------------------------------------------------------------
# Exhaustive conjugator scans (independent oracles): lattice walks
# ---------------------------------------------------------------------------


def _clear(x: Sequence[int], y: Sequence[int], k: int) -> tuple[Sequence[int], Sequence[int]]:
    """A unimodular change of the pair x, y that makes y[k] zero: x[k] | y[k]
    keeps x, otherwise x[k] becomes gcd(x[k], y[k])."""
    if not y[k]:
        return x, y
    if x[k] and y[k] % x[k] == 0:
        c = y[k] // x[k]
        return x, [v - c * u for u, v in zip(x, y)]
    g, s, t = _xgcd(x[k], y[k])
    u, v = x[k] // g, y[k] // g
    return [s * a + t * b for a, b in zip(x, y)], [u * b - v * a for a, b in zip(x, y)]


def _echelon(rows: list[Sequence[int]]) -> list[Sequence[int]]:
    """Row echelon basis of the Z-span of ``rows`` in Z^4: unimodular row
    operations, positive pivots, zero rows dropped (Cohen, GTM 138, sec. 2.4)."""
    out = []
    for col in range(4):
        pivot, rest = None, []
        for r in rows:
            if r[col] == 0:
                rest.append(r)
            elif pivot is None:
                pivot = r
            else:
                pivot, r = _clear(pivot, r, col)
                rest.append(r)
        if pivot is not None:
            out.append(pivot if pivot[col] > 0 else [-x for x in pivot])
        rows = rest
    return out


def _det(x: Sequence[int]) -> int:
    return x[0] * x[3] - x[1] * x[2]


@lru_cache(maxsize=1024)
def _diagonal_form(a_ent: tuple, b_ent: tuple) -> tuple[tuple[int, ...], tuple, tuple]:
    """(d, V, K) with U*M*V = diag(d) and U, V unimodular, for the matrix M of
    x -> P*A - B*P, x = (p11, p12, p21, p22) (Cohen, GTM 138, sec. 2.4), and
    K the echelon basis of the exact solutions, the V_i with d_i = 0.

    M x = 0 (mod q) exactly when x = V y with d_i y_i = 0 (mod q) for each i;
    q = 0 asks for the exact solutions.  V is returned column by column, and
    the d_i need not divide one another.  The row operations are not recorded.
    """
    a11, a12, a21, a22 = a_ent
    b11, b12, b21, b22 = b_ent
    # column i of M above column i of V: column operations move both
    cols = [
        [a11 - b11, a12, -b21, 0, 1, 0, 0, 0],
        [a21, a22 - b11, 0, -b21, 0, 1, 0, 0],
        [-b12, 0, a11 - b22, a12, 0, 0, 1, 0],
        [0, -b12, a21, a22 - b22, 0, 0, 0, 1],
    ]
    for k in range(4):
        # each pass clears row k, then column k; only a gcd step, which lowers
        # a nonzero |pivot|, can refill row k, so the passes end
        while True:
            for i in range(k + 1, 4):
                cols[k], cols[i] = _clear(cols[k], cols[i], k)
            if not any(cols[k][k + 1 : 4]):
                break
            rows = list(zip(*cols))
            for j in range(k + 1, 4):
                rows[k], rows[j] = _clear(rows[k], rows[j], k)
            cols = list(zip(*rows))
    d, v = tuple(c[k] for k, c in enumerate(cols)), tuple(tuple(c[4:]) for c in cols)
    return d, v, tuple(_echelon([vi for di, vi in zip(d, v) if di == 0]))


def _first_unit(a: int, k: int, d: int, clo: int, chi: int, p: int) -> int | None:
    """Smallest c in [clo, chi] with a*c^2 + k*c + d a unit: +-1 for p = 0,
    prime to p otherwise; or None.

    Mod p the c are scanned: the range has at most q <= 53 values, and a
    quadratic mod p that is not zero has at most two roots.  Over Z the
    candidates are the integer roots of a*c^2 + k*c + d -+ 1; when that does
    not depend on c, every c or none is a root.
    """
    if p:
        return next((c for c in range(clo, chi + 1) if (a * c * c + k * c + d) % p), None)
    if not a and not k:
        return clo if d in (1, -1) and clo <= chi else None
    roots = []
    for e in (d - 1, d + 1):
        if not a:
            roots.append(-e // k)
        elif (disc := k * k - 4 * a * e) >= 0:
            s = math.isqrt(disc)
            roots += [(-k - s) // (2 * a), (-k + s) // (2 * a)]
    # a floor quotient is a root only when the division is exact; the check keeps those
    return min((c for c in roots if clo <= c <= chi and a * c * c + k * c + d in (1, -1)), default=None)


def _lex_first(basis: Sequence[Sequence[int]], lo: int, hi: int, p: int) -> tuple | None:
    """Lexicographically first lattice point x with every entry in [lo, hi]
    and det x a unit (+-1 for p = 0, prime to p otherwise), or None; requires
    lo <= 0 <= hi.

    With ``basis`` in echelon form and positive pivots, lex order of points is
    lex order of their coefficients.  The walk takes each coefficient in
    ascending order, within the bounds of the entries it fixes: those from its
    pivot up to the next pivot, or to the end for the last coefficient, which
    :func:`_first_unit` solves for instead.  An empty basis gives None: its
    one point, zero, has determinant 0.
    """
    if not basis:
        return None
    pivots = [next(k for k, v in enumerate(row) if v) for row in basis] + [4]
    # each row r with its pivot k, r[k] > 0, and the later entries it fixes, up to the next pivot
    rows = [(*r, k, r[k], [(i, r[i]) for i in range(k + 1, end)]) for r, k, end in zip(basis, pivots, pivots[1:])]
    # on the last row r, det(x + c*r) = a*c^2 + (kx . x)*c + det(x)
    r = basis[-1]
    a, kx, top = _det(r), (r[3], -r[2], -r[1], r[0]), len(basis) - 1

    def walk(j: int, x: tuple) -> tuple | None:
        r0, r1, r2, r3, k, v, rest = rows[j]
        clo, chi = -((x[k] - lo) // v), (hi - x[k]) // v
        for k, v in rest:
            y = x[k]
            if v > 0:
                clo, chi = max(clo, -((y - lo) // v)), min(chi, (hi - y) // v)
            elif v:
                clo, chi = max(clo, -((hi - y) // -v)), min(chi, (y - lo) // -v)
            elif not lo <= y <= hi:
                return None
        x0, x1, x2, x3 = x
        if j == top:
            c = _first_unit(a, kx[0] * x0 + kx[1] * x1 + kx[2] * x2 + kx[3] * x3, x0 * x3 - x1 * x2, clo, chi, p)
            return None if c is None else (x0 + c * r0, x1 + c * r1, x2 + c * r2, x3 + c * r3)
        for c in range(clo, chi + 1):
            found = walk(j + 1, (x0 + c * r0, x1 + c * r1, x2 + c * r2, x3 + c * r3))
            if found is not None:
                return found
        return None

    return walk(0, (0, 0, 0, 0))


def brute_force_conjugator(a: IntMat2, b: IntMat2, bound: int) -> BruteSearchResult:
    """Scan all P with entries in [-bound, bound] for P*A = B*P, det P = +-1.

    Returns the lexicographically first witness (ordered by entries
    (p11, p12, p21, p22)) or a bound-labeled miss.  The scan walks the box
    points of the exact solution lattice of P*A = B*P, with no reduction
    theory, in Python integers, so the entries of A and B may have any size.
    A bound outside 1..MAX_SCAN_BOUND raises SolgenusError before the
    lattice is built.
    """
    char_poly(a), char_poly(b)
    if not 1 <= bound <= MAX_SCAN_BOUND:
        raise SolgenusError(f"scan bound {bound} is outside 1..{MAX_SCAN_BOUND}")
    x = _lex_first(_diagonal_form(_entries(a), _entries(b))[2], -bound, bound, 0)
    return BruteSearchResult(None if x is None else ConjugacyWitness(IntMat2(*x), a, b), bound)


# ---------------------------------------------------------------------------
# Conjugacy in GL2(Z/m)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _modular_scan(a_ent: tuple, b_ent: tuple, q: int, p: int) -> tuple | None:
    """First P (lex order) in GL2(Z/q) with P*A = B*P mod q; q = p^k.

    The solutions are spanned by K and the (q / gcd(d_i, q)) V_i, d_i != 0,
    of :func:`_diagonal_form`, their image mod p by the V_i with q | d_i, which
    are independent mod p.  A subspace of singular 2x2 matrices has dimension
    at most 2, so three of those hold a unit; on the span of u and v, det is
    a binary quadratic form, zero only if it is zero at u, v and u + v.  A
    refuted level is not walked.
    """
    d, v, kernel = _diagonal_form(a_ent, b_ent)
    gens = [vi for di, vi in zip(d, v) if di % q == 0]
    tries = gens + [[x + y for x, y in zip(*gens)]] if len(gens) == 2 else gens
    if len(gens) < 3 and not any(_det(x) % p for x in tries):
        return None
    lattice = [*kernel, *([q // math.gcd(di, q) * x for x in vi] for di, vi in zip(d, v) if di)]
    return _lex_first(_echelon(lattice), 0, q - 1, p)


@lru_cache(maxsize=1024)
def _scan_parts(m: int) -> tuple[tuple[int, int], ...]:
    """(q, p) for each prime-power part q = p^e of m, or an error if m cannot be scanned.

    m is divided only by the primes up to MAX_SCAN_PRIME_POWER, so a modulus
    of any size is refused at once rather than factored.
    """
    if m < 2:
        raise SolgenusError("modulus must be at least 2")
    split, rest, q = [], m, 1
    for p in _SCAN_PRIMES:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            split.append((q, p))
            if rest == 1 or q > MAX_SCAN_PRIME_POWER:
                break
    if rest > 1 or q > MAX_SCAN_PRIME_POWER:
        raise SolgenusError(f"modulus {m} has a prime-power part above {MAX_SCAN_PRIME_POWER}")
    return tuple(split)


def are_conjugate_mod_m(a: IntMat2, b: IntMat2, m: int) -> ModularWitness | None:
    """Witness of conjugacy in GL2(Z/m), assembled prime power by prime power.

    Raises SolgenusError, before any scan, when a prime-power part of m
    exceeds MAX_SCAN_PRIME_POWER.
    """
    ae, be, ent, mod = _entries(a), _entries(b), [0, 0, 0, 0], 1
    for q, p in _scan_parts(m):
        w = _modular_scan(ae, be, q, p)
        if w is None:
            return None
        s = pow(mod, -1, q)
        # x is below mod, so x + t*mod with 0 <= t < q is the residue mod mod*q
        ent = [x + (y - x) * s % q * mod for x, y in zip(ent, w)]
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


def modular_table(a: IntMat2, b: IntMat2, moduli: Iterable[int]) -> ProfiniteEvidence:
    """GL2(Z/m) conjugacy witness, or None, for every m in ``moduli``, in order.

    Every modulus is split before the first scan, so a modulus that cannot be
    scanned fails the whole table at once; each level reads its split from
    the cache.  The characteristic polynomials of a and b may differ.  An
    empty table is consistent up to m = 1, where GL2(Z/1) is trivial.
    """
    checked = [(m, _scan_parts(m)) for m in moduli]
    levels = tuple((m, are_conjugate_mod_m(a, b, m)) for m, _ in checked)
    refuted = next((m for m, w in levels if w is None), None)
    return ProfiniteEvidence(max((m for m, _ in checked), default=1), levels, refuted)
