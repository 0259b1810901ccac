"""Binary quadratic forms: reduction, cycles, class sets, equivalence witnesses.

Transformation convention
-------------------------
A form q acts on column vectors, q(x, y) = a*x^2 + b*xy + c*y^2.  A matrix
U in GL2(Z) acts on forms by the determinant-twisted substitution

    (q . U)(v) = det(U) * q(U v).

For det(U) = +1 this is the classical proper (SL2) action.  The twist makes
the action compatible with matrix conjugacy: the fixed-line form of
V^-1 A V is exactly (form of A) . V.  Consequently GL2(Z)-orbits under this
action correspond to conjugacy classes of matrices and to ideal classes of
the order under ordinary (not narrow) equivalence.

``EquivMode.PROPER`` tests SL2-equivalence; ``EquivMode.IMPROPER`` tests
equivalence under the full twisted GL2 action.  For D < 0 the twist maps
positive definite forms to negative definite ones, so on the normalized
(positive definite) carrier the two modes coincide, matching the classical
fact that ordinary and narrow class numbers agree for imaginary fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

from .errors import DiscriminantMismatch, ImprimitiveForm, SolgenusError
from .matrices import IntMat2, is_square
from .orders import OrderDisc, disc_from_int, factor, kronecker_prime, primes_up_to, sqrt_mod_prime

_SWAP = IntMat2(0, -1, 1, 0)  # q -> (c, -b, a)
_FLIP = IntMat2(1, 0, 0, -1)  # det -1 reflection


class EquivMode(Enum):
    PROPER = "proper"
    IMPROPER = "improper"


@dataclass(frozen=True)
class BQForm:
    """Primitive binary quadratic form a*x^2 + b*xy + c*y^2, nondegenerate disc."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        D = self.disc
        if D == 0 or (D > 0 and is_square(D)):
            raise SolgenusError(f"degenerate discriminant {D} for form {self.triple()}")
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise ImprimitiveForm(f"form {self.triple()} is not primitive")
        if D < 0 and self.a < 0:
            raise SolgenusError("definite forms are carried by their positive representative")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def transform(self, u: IntMat2) -> "BQForm":
        """Determinant-twisted substitution (see module docstring)."""
        det = u.det()
        if det not in (1, -1):
            raise SolgenusError("form transformations must lie in GL2(Z)")
        a, b, c = _apply(self.triple(), u)
        return BQForm(det * a, det * b, det * c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def _apply(f: tuple[int, int, int], u: IntMat2) -> tuple[int, int, int]:
    """Plain substitution q(Uv), no determinant twist."""
    a, b, c = f
    p, q, r, s = u.a, u.b, u.c, u.d
    return (
        a * p * p + b * p * r + c * r * r,
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        a * q * q + b * q * s + c * s * s,
    )


def principal_form(D: int) -> BQForm:
    """The form (1, b0, c0) with b0 = D mod 2, representing the order itself."""
    b0 = D % 2
    return BQForm(1, b0, (b0 * b0 - D) // 4)


def _opposite(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """Image under any det -1 element of the twisted action, e.g. -q(x, -y)."""
    a, b, c = f
    return (-a, b, -c)


# ---------------------------------------------------------------------------
# Definite reduction (D < 0, a > 0)
# ---------------------------------------------------------------------------


def _reduce_definite(f: tuple[int, int, int]) -> tuple[tuple[int, int, int], IntMat2]:
    """Unique reduced representative plus U with f . U = reduced (det U = 1)."""
    a, b, c = f
    if a <= 0:
        raise SolgenusError(f"definite reduction of {f} expects the positive representative")
    u = IntMat2.identity()
    while True:
        if a > c:
            a, b, c = c, -b, a
            u = u * _SWAP
            continue
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            k = (r - b) // (2 * a)
            c = a * k * k + b * k + c
            b = r
            u = u * IntMat2(1, k, 0, 1)
            continue
        if a == c and b < 0:
            a, b, c = c, -b, a
            u = u * _SWAP
            continue
        return (a, b, c), u


# ---------------------------------------------------------------------------
# Indefinite reduction (D > 0 nonsquare): rho steps and cycles
# ---------------------------------------------------------------------------


def _is_reduced_indefinite(f: tuple[int, int, int], D: int) -> bool:
    # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, all exact
    a, b, _ = f
    if b <= 0 or b * b >= D:
        return False
    ta = 2 * abs(a)
    if D >= (ta + b) ** 2:
        return False
    if ta - b >= 0 and (ta - b) ** 2 >= D:
        return False
    return True


def _rho_raw(f: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """One neighboring step f = (a, b, c) -> (c, r, (r^2 - D)/4c); s = isqrt(D)."""
    _, b, c = f
    mmod = 2 * abs(c)
    if abs(c) > s:
        r = (-b) % mmod
        if r > abs(c):
            r -= mmod
    else:
        r = s - ((s + b) % mmod)
    return (c, r, (r * r - D) // (4 * c))


def _rho_matrix(f: tuple[int, int, int], g: tuple[int, int, int]) -> IntMat2:
    """The SL2 transformation of the step from f to its neighbor g = _rho_raw(f)."""
    return IntMat2(0, -1, 1, (f[1] + g[1]) // (2 * g[0]))


_REDUCTION_STEPS = 10_000


def _reduce_indefinite(f: tuple[int, int, int], D: int) -> tuple[tuple[int, int, int], IntMat2]:
    s = math.isqrt(D)
    u = IntMat2.identity()
    for _ in range(_REDUCTION_STEPS):
        if _is_reduced_indefinite(f, D):
            return f, u
        g = _rho_raw(f, D, s)
        u = u * _rho_matrix(f, g)
        f = g
    raise SolgenusError(f"indefinite reduction of disc {D} did not finish in {_REDUCTION_STEPS} steps")


def _reduce(f: tuple[int, int, int], D: int) -> tuple[tuple[int, int, int], IntMat2]:
    """Reduced form properly equivalent to f, and U with f . U = reduced (det U = 1)."""
    if D < 0:
        return _reduce_definite(f)
    return _reduce_indefinite(f, D)


def _cycle_raw(first: tuple[int, int, int], D: int, cap: int) -> list[tuple[int, int, int]]:
    """The rho-cycle of the reduced form ``first``, which has at most ``cap`` forms."""
    s = math.isqrt(D)
    out = [first]
    f = _rho_raw(first, D, s)
    while f != first:
        if len(out) == cap:
            raise SolgenusError(f"cycle of {first} in disc {D} is longer than {cap} forms")
        out.append(f)
        f = _rho_raw(f, D, s)
    return out


# ---------------------------------------------------------------------------
# Enumeration of reduced forms and class sets
# ---------------------------------------------------------------------------


def _factor_table(D: int, bs: range) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Factor m_b = |b^2 - D|/4 for every b in ``bs`` (step 2, b = D mod 2) at once.

    Returns, per index k of b = bs[k], the prime powers (p, e) of m_b with
    p <= sqrt(max m_b), and the cofactor left over, which is 1 or a prime.
    An odd p divides m_b exactly when b^2 = D (mod p), so the indices k it
    divides are one or two progressions of step p, found from the square
    roots of D mod p (Cohen, GTM 138, 1.5.1).
    """
    rem = [abs(b * b - D) // 4 for b in bs]
    n, plimit = len(rem), math.isqrt(max(rem))
    fac: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, x in enumerate(rem):
        if not x & 1:
            e = (x & -x).bit_length() - 1
            fac[k].append((2, e))
            rem[k] = x >> e
    b0 = bs.start
    for p in primes_up_to(plimit)[1:]:
        r = sqrt_mod_prime(D, p)
        if r is None:
            continue
        for root in (r, p - r) if r else (0,):
            # b0 + 2k = root (mod p); (p + 1) // 2 inverts 2 mod p
            for k in range((root - b0) * ((p + 1) // 2) % p, n, p):
                x, e = rem[k] // p, 1
                while not x % p:
                    x //= p
                    e += 1
                rem[k] = x
                fac[k].append((p, e))
    return fac, rem


def _reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms of discriminant D, sorted.

    D < 0: positive definite forms with |b| <= a <= c, and b >= 0 if |b| = a
    or a = c.  D > 0: forms with 0 < b < sqrt(D) and sqrt(D) - b < 2|a| <
    sqrt(D) + b.  Either way |a*c| = m_b = |b^2 - D|/4, so the forms with
    middle coefficient +-b are read off the divisors of m_b, for b = D mod 2
    with 0 < b < sqrt(D), resp. 0 <= b <= sqrt(|D|/3).
    """
    if D > 0:
        s = math.isqrt(D)
        bs = range(2 - D % 2, s + 1, 2)
    else:
        bs = range(D % 2, math.isqrt(-D // 3) + 1, 2)
    fac, cofactor = _factor_table(D, bs)
    out = []
    for b, pes, rest in zip(bs, fac, cofactor):
        m = abs(b * b - D) // 4
        divs = [1]
        for p, e in pes:
            pk = divs
            for _ in range(e):
                pk = [d * p for d in pk]
                divs.extend(pk)
        if rest > 1:
            divs.extend([d * rest for d in divs])
        if D > 0:
            # sqrt(D) - b < 2a < sqrt(D) + b, in integers since D is not a square
            for a in divs:
                if s - b < 2 * a <= s + b:
                    c = m // a
                    if math.gcd(math.gcd(a, b), c) == 1:
                        out.append((a, b, -c))
                        out.append((-a, b, c))
        else:
            for a in divs:
                if b <= a and a * a <= m:
                    c = m // a
                    if math.gcd(math.gcd(a, b), c) == 1:
                        out.append((a, b, c))
                        if 0 < b < a < c:
                            out.append((a, -b, c))
    return sorted(out)


@dataclass(frozen=True)
class FormClassSet:
    """One reduced representative per equivalence class of primitive forms."""

    disc: OrderDisc
    reps: tuple[BQForm, ...]
    # class index of every reduced triple; reps[i] is the least member of class i
    class_of: dict[tuple[int, int, int], int] = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.reps)

    def class_index_of(self, q: BQForm) -> int:
        """Index of the class containing q; raises on discriminant mismatch."""
        if q.disc != self.disc.D:
            raise DiscriminantMismatch(f"form of disc {q.disc}, class set of disc {self.disc.D}")
        key = _reduce(q.triple(), self.disc.D)[0]
        i = self.class_of.get(key)
        if i is None:
            raise SolgenusError(f"reduced form {key} missing from class set of {self.disc.D}")
        return i

    @cached_property
    def class_members(self) -> tuple[frozenset, ...]:
        """Reduced triples per class, aligned with ``reps``; built only when read.

        Nothing in the package reads it.  The benchmark tracer
        (``solbench/tracer.py``) counts ``forms.reduced_forms`` from it, so it
        can go once the package counts its own work (ROADMAP A).
        """
        groups: list[list[tuple[int, int, int]]] = [[] for _ in self.reps]
        for f, i in self.class_of.items():
            groups[i].append(f)
        return tuple(frozenset(g) for g in groups)


@lru_cache(maxsize=None)
def _class_set_cached(od: OrderDisc, mode: EquivMode) -> FormClassSet:
    D = od.D
    reduced = _reduced_forms(D)
    class_of: dict[tuple[int, int, int], int] = {}
    reps: list[BQForm] = []
    for f in reduced:
        if f in class_of:
            continue
        # ``reduced`` is sorted, so f is the least member of a class not met yet
        if D < 0:
            # each reduced positive definite form is one proper class; the twisted
            # det -1 action leaves the positive definite carrier, so improper
            # classes coincide with proper ones
            members = [f]
        else:
            # rho permutes the reduced forms, so no cycle is longer than their count
            members = _cycle_raw(f, D, len(reduced))
            if mode is EquivMode.IMPROPER and _opposite(f) not in members:
                # the twist maps the cycle of f onto the cycle of its opposite
                members += _cycle_raw(_opposite(f), D, len(reduced))
        for g in members:
            class_of[g] = len(reps)
        reps.append(BQForm(*f))
    if class_of.keys() != set(reduced):
        raise SolgenusError(f"the classes of disc {D} do not partition its reduced forms")
    return FormClassSet(od, tuple(reps), class_of)


def class_set(disc: OrderDisc | int, mode: EquivMode = EquivMode.IMPROPER) -> FormClassSet:
    """All classes of primitive forms of the given discriminant under ``mode``."""
    od = disc if isinstance(disc, OrderDisc) else disc_from_int(int(disc))
    return _class_set_cached(od, mode)


def class_count(disc: OrderDisc | int, mode: EquivMode = EquivMode.IMPROPER) -> int:
    """The number of classes of ``class_set(disc, mode)``, without building it for f > 1.

    For a conductor f > 1 the count comes from the field's by the order class
    number formula h(O) = h(O_K) * psi(f) / [O_K^x : O^x], with
    psi(f) = f * prod_{p | f} (1 - (D0/p)/p) (Cox, Primes of the Form
    x^2 + ny^2, Thm. 7.24).  In PROPER mode (narrow classes) the units are
    those of norm +1; in IMPROPER mode, all of them.
    """
    od = disc if isinstance(disc, OrderDisc) else disc_from_int(int(disc))
    if od.f == 1:
        return class_set(od, mode).count
    field = class_set(OrderDisc(od.D0, od.D0, 1), mode)
    psi = od.f
    for p, _ in factor(od.f):
        psi = psi // p * (p - kronecker_prime(od.D0, p))
    index = _unit_index(od, mode, psi, len(field.class_of))
    h, rest = divmod(field.count * psi, index)
    if rest:
        raise SolgenusError(f"unit index {index} does not divide h * psi = {field.count * psi} for disc {od.D}")
    return h


def _scalar_power(m: IntMat2, k: int, f: int) -> bool:
    """Whether m^k is a scalar matrix mod f."""
    out = pow(m, k, f)
    return not (out.b or out.c or out.a != out.d)


def _unit_index(od: OrderDisc, mode: EquivMode, psi: int, cap: int) -> int:
    """[O_K^x : O^x] for the order od of conductor f > 1; psi = psi(f), which it divides.

    For D0 > 0 the automorph M of the reduced principal form of D0, read off
    its rho cycle (of at most ``cap`` forms), is multiplication by the
    fundamental unit under ``mode``: det 1 in PROPER mode, and det -1 in
    IMPROPER mode when the cycle meets the opposite of its start first.  A
    unit lies in O = Z + f*O_K exactly when its matrix is scalar mod f, so the
    index is the order of M modulo scalars mod f.
    """
    D0, f = od.D0, od.f
    if D0 < 0:
        return {-3: 3, -4: 2}.get(D0, 1)
    start = _reduce_indefinite(principal_form(D0).triple(), D0)[0]
    cycle = _cycle_raw(start, D0, cap) + [start]
    flip = mode is EquivMode.IMPROPER and _opposite(start) in cycle
    end = cycle.index(_opposite(start)) if flip else len(cycle) - 1
    m = IntMat2.identity()
    for g, h in zip(cycle[:end], cycle[1 : end + 1]):
        m = m * _rho_matrix(g, h) % f
    if flip:
        m = m * _FLIP % f
    if not _scalar_power(m, psi, f):
        raise SolgenusError(f"the automorph of disc {D0} has no order dividing {psi} modulo scalars mod {f}")
    n = psi
    for p, _ in factor(psi):
        while n % p == 0 and _scalar_power(m, n // p, f):
            n //= p
    return n


# ---------------------------------------------------------------------------
# Equivalence with explicit transformation
# ---------------------------------------------------------------------------


def _equiv_proper(f1: tuple[int, int, int], f2: tuple[int, int, int], D: int) -> IntMat2 | None:
    """U in SL2(Z) with f1(Uv) = f2(v), or None."""
    r1, u1 = _reduce(f1, D)
    r2, u2 = _reduce(f2, D)
    s = math.isqrt(abs(D))
    w = IntMat2.identity()
    f = r1
    while f != r2:
        if D < 0:
            return None  # a reduced definite form is alone in its proper class
        g = _rho_raw(f, D, s)
        w = w * _rho_matrix(f, g)
        f = g
        if f == r1:
            return None
    return u1 * w * u2.inverse()


def forms_equivalent(q1: BQForm, q2: BQForm, mode: EquivMode = EquivMode.IMPROPER) -> IntMat2 | None:
    """Transformation carrying q1 to q2 under the twisted action, or None.

    Returns U with q1.transform(U) == q2; det(U) = +1 in PROPER mode,
    det(U) = +-1 in IMPROPER mode.
    """
    if q1.disc != q2.disc:
        raise DiscriminantMismatch(f"discriminants {q1.disc} != {q2.disc}")
    D = q1.disc
    u = _equiv_proper(q1.triple(), q2.triple(), D)
    if u is None and mode is EquivMode.IMPROPER and D > 0:
        m = _equiv_proper(_opposite(q1.triple()), q2.triple(), D)
        if m is not None:
            u = _FLIP * m
    if u is not None and q1.transform(u) != q2:
        raise SolgenusError(f"equivalence witness from {q1} to {q2} failed verification")
    return u
