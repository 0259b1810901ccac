"""From form classes to matrix representatives of GL2(Z)-conjugacy classes.

Each primitive form (a, b, c) of discriminant D yields the lattice
I = Z*|a| + Z*(-b + sqrt(D))/2, an ideal of the order of discriminant D.
Multiplication by the eigenvalue lam = (t + sqrt(D))/2 on that basis is an
integer matrix with characteristic polynomial x^2 - t*x + n, and inequivalent
form classes give non-conjugate matrices.  Enumerating one form per class
therefore produces one matrix per conjugacy class with that characteristic
polynomial (among the classes attached to the order itself).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SolgenusError
from .forms import BQForm, EquivMode, class_set, principal_form
from .matrices import CharPoly, IntMat2
from .orders import OrderDisc, order_disc


def multiplication_matrix(q: BQForm, p: CharPoly) -> IntMat2:
    """Matrix of multiplication by lam = (t + sqrt(D))/2 on the ideal basis (|a|, (-b + sqrt(D))/2) of q.

    That basis spans an ideal because b^2 - 4ac = D makes 4|a| divide b^2 - D.
    """
    if p.disc != q.disc:
        raise SolgenusError("form and characteristic polynomial disagree on discriminant")
    t, D, a, b = p.t, p.disc, abs(q.a), q.b
    m = IntMat2((t + b) // 2, (D - b * b) // (4 * a), a, (t - b) // 2)
    if m.trace() != p.t or m.det() != p.n:
        raise SolgenusError(f"multiplication matrix {m} does not have characteristic polynomial {p}")
    return m


def companion(p: CharPoly) -> IntMat2:
    """Companion matrix [[0, -n], [1, t]]; multiplication by lam on basis (1, lam)."""
    return IntMat2(0, -p.n, 1, p.t)


@dataclass(frozen=True)
class LMSet:
    """One matrix per form class of the order, principal class first."""

    disc: OrderDisc
    reps: tuple[IntMat2, ...]
    forms: tuple[BQForm, ...]

    def __post_init__(self):
        if len(self.reps) != len(self.forms):
            raise SolgenusError("representative/provenance length mismatch")

    @property
    def count(self) -> int:
        return len(self.reps)


def lm_representatives(p: CharPoly) -> LMSet:
    """One conjugacy-class representative per form class of discriminant t^2 - 4n.

    The principal class is listed first and realized as the companion matrix;
    the remaining classes are realized by multiplication matrices on their
    ideals, in lexicographic order of the class representatives.
    """
    od = order_disc(p)
    cs = class_set(od, EquivMode.IMPROPER)
    principal_idx = cs.class_index_of(principal_form(od.D))
    forms = (cs.reps[principal_idx],) + tuple(q for i, q in enumerate(cs.reps) if i != principal_idx)
    reps = (companion(p),) + tuple(multiplication_matrix(q, p) for q in forms[1:])
    return LMSet(od, reps, forms)
