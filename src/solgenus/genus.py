"""Profinite genus of the group G_A = (Z x Z) x|_A Z for A in GL2(Z).

Routing: trace 0 and repeated-eigenvalue monodromies have genus 1 and an
explicit integral canonical form.  Otherwise the genus equals the class
number of the field generated by an eigenvalue, with one conjugacy-class
representative per form class of the order Z[lam].  When the conductor
exceeds 1 the field-level and order-level class numbers can differ; both are
reported and the discrepancy is flagged rather than silently resolved.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .conjugacy import (
    BruteSearchResult,
    ConjugacyWitness,
    ProfiniteEvidence,
    are_conjugate_gl2z,
    brute_force_conjugator,
    canonical_form,
    profinite_evidence,
)
from .forms import EquivMode, class_count
from .ideals import LMSet, lm_representatives
from .matrices import CharPoly, GeometryLabel, IntMat2, char_poly, geometry
from .orders import OrderDisc, order_disc


class TheoremBranch(Enum):
    MAIN_QUADRATIC = "MainQuadratic"
    REPEATED_ONE = "RepeatedOne"
    REPEATED_MINUS_ONE = "RepeatedMinusOne"
    TRACE_ZERO = "TraceZero"


class Rigidity(Enum):
    RIGID = "Rigid"
    NON_RIGID = "NonRigid"


@dataclass(frozen=True)
class PairEvidence:
    """Evidence about one pair of class representatives (indices into the rep list)."""

    i: int
    j: int
    gl2z_witness: ConjugacyWitness | None  # expected None: reps are non-conjugate
    brute: BruteSearchResult | None
    modular: ProfiniteEvidence | None


@dataclass(frozen=True)
class Evidence:
    level: str
    pairs: tuple[PairEvidence, ...]


@dataclass(frozen=True)
class CanonicalData:
    target: IntMat2
    conjugator: IntMat2  # conjugator * A * conjugator^-1 == target


@dataclass(frozen=True)
class GenusReport:
    matrix: IntMat2
    char: CharPoly
    geometry: GeometryLabel
    branch: TheoremBranch
    disc: OrderDisc | None  # None when the characteristic polynomial is reducible
    h_field: int
    h_order: int
    genus: int
    discrepancy: bool
    representatives: LMSet | None
    canonical: CanonicalData | None
    evidence: Evidence | None
    presentation: str

    @property
    def rigid(self) -> bool:
        return self.genus == 1


def branch_of(p: CharPoly) -> TheoremBranch:
    if p.t == 0:
        return TheoremBranch.TRACE_ZERO
    if p.disc == 0:
        return TheoremBranch.REPEATED_ONE if p.t == 2 else TheoremBranch.REPEATED_MINUS_ONE
    return TheoremBranch.MAIN_QUADRATIC


_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _power(symbol: str, k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return symbol
    return symbol + str(k).translate(_SUPERSCRIPTS)


def presentation(m: IntMat2) -> str:
    """Presentation of (Z x Z) x|_A Z: t conjugates x, y by the columns of A."""
    char_poly(m)
    tx = _power("x", m.a) + _power("y", m.c) or "1"
    ty = _power("x", m.b) + _power("y", m.d) or "1"
    return f"⟨x,y,t | [x,y]=1, txt⁻¹={tx}, tyt⁻¹={ty}⟩"


def _pair_evidence(reps: LMSet, level: str) -> Evidence:
    pairs = []
    n = reps.count
    for i in range(n):
        for j in range(i + 1, n):
            a, b = reps.reps[i], reps.reps[j]
            w = are_conjugate_gl2z(a, b)
            brute = modular = None
            if level == "full":
                brute = brute_force_conjugator(a, b, 50)
                modular = profinite_evidence(a, b, 30)
            pairs.append(PairEvidence(i, j, w, brute, modular))
    return Evidence(level, tuple(pairs))


def genus(m: IntMat2, evidence_level: str = "fast") -> GenusReport:
    """Full genus report for the monodromy m; see module docstring for routing.

    evidence_level: "none", "fast" (pairwise form-based verdicts), or "full"
    (adds a bound-50 exhaustive conjugator scan and a mod-m witness table up
    to 30 for every pair of representatives).
    """
    if evidence_level not in ("none", "fast", "full"):
        raise ValueError(f"unknown evidence level {evidence_level!r}")
    p = char_poly(m)
    branch = branch_of(p)
    geo = geometry(m)
    pres = presentation(m)

    if branch is not TheoremBranch.MAIN_QUADRATIC:
        if p.t == 0 and p.n == 1:
            od = order_disc(p)  # Gaussian integers, discriminant -4
            h_field = h_order = class_count(od.D0, EquivMode.IMPROPER)
        else:
            od = None  # eigenvalues are rational: the field is Q, class number 1
            h_field = h_order = 1
        target, conj = canonical_form(m)
        return GenusReport(
            matrix=m,
            char=p,
            geometry=geo,
            branch=branch,
            disc=od,
            h_field=h_field,
            h_order=h_order,
            genus=1,
            discrepancy=False,
            representatives=None,
            canonical=CanonicalData(target, conj),
            evidence=None,
            presentation=pres,
        )

    od = order_disc(p)
    h_field = class_count(od.D0, EquivMode.IMPROPER)
    h_order = class_count(od, EquivMode.IMPROPER)
    reps = lm_representatives(p)
    evidence = None if evidence_level == "none" else _pair_evidence(reps, evidence_level)
    return GenusReport(
        matrix=m,
        char=p,
        geometry=geo,
        branch=branch,
        disc=od,
        h_field=h_field,
        h_order=h_order,
        genus=h_field,
        discrepancy=(od.f > 1 and h_field != h_order),
        representatives=reps,
        canonical=None,
        evidence=evidence,
        presentation=pres,
    )


def corollary1_check(m: IntMat2) -> bool:
    """Trace 0 or equal eigenvalues implies genus 1; returns whether that held."""
    p = char_poly(m)
    if p.t != 0 and p.disc != 0:
        return True
    return genus(m, evidence_level="none").genus == 1


def rigidity_verdict(m: IntMat2) -> Rigidity:
    """Rigid when the group is alone in its genus (genus 1)."""
    report = genus(m, evidence_level="none")
    return Rigidity.RIGID if report.rigid else Rigidity.NON_RIGID
