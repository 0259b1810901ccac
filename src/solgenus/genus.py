"""Profinite genus of the group G_A = (Z x Z) x|_A Z for A in GL2(Z).

Routing: trace 0 and repeated-eigenvalue monodromies have genus 1 and an
explicit integral canonical form.  Otherwise the genus equals the class
number of the field generated by an eigenvalue, with one conjugacy-class
representative per form class of the order Z[lam].  When the conductor
exceeds 1 the field-level and order-level class numbers can differ; both are
reported and the discrepancy is flagged rather than silently resolved.

The survey applies the same rule to every (trace, det) cell with Sol
geometry.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .conjugacy import (
    BruteSearchResult,
    ConjugacyWitness,
    ProfiniteEvidence,
    are_conjugate_gl2z,
    brute_force_conjugator,
    canonical_form,
    class_key,
    modular_table,
)
from .errors import SolgenusError
from .forms import class_count, class_set
from .ideals import LMSet, companion, lm_representatives
from .matrices import CharPoly, GeometryLabel, IntMat2, char_poly, geometry, is_square
from .orders import OrderDisc, order_disc


# largest number of representative pairs that the ``full`` evidence level
# scans.  Each pair costs a bound-50 box scan and a mod-m table to 30: h = 100
# (4,950 pairs, cell (1026, -1)) took 5.9 s, wrote 36.8 MB of JSON and peaked
# at 273 MB RSS (2-core x86-64 VM), and the cost grows as h^2.  The limit
# keeps h <= 100.
MAX_FULL_PAIRS = 5000

# largest trace bound that survey_rows accepts.  Every field's class set stays
# cached, so memory grows as tmax^2 and time faster: a fresh `survey` process
# took 1.4 s and 91 MB at tmax 1,000 and 5.2 s and 324 MB at 2,000 (2-core
# x86-64 VM), so 3,000 would need about 730 MB.
MAX_SURVEY_TMAX = 2000


class TheoremBranch(Enum):
    MAIN_QUADRATIC = "MainQuadratic"
    REPEATED_ONE = "RepeatedOne"
    REPEATED_MINUS_ONE = "RepeatedMinusOne"
    TRACE_ZERO = "TraceZero"


@dataclass(frozen=True)
class PairEvidence:
    """The ``full`` scans of one pair of class representatives."""

    brute: BruteSearchResult
    modular: ProfiniteEvidence


@dataclass(frozen=True)
class Evidence:
    """The class key of each representative, pairwise distinct, so no two are
    GL2(Z)-conjugate; at ``full`` also the scans of every pair i < j of
    representatives, in lexicographic order of (i, j)."""

    level: str
    keys: tuple[tuple[int, int], ...]
    pairs: tuple[PairEvidence, ...]


@dataclass(frozen=True)
class GenusCount:
    """The class numbers that decide the genus, and the genus they give.

    h_field is the class number of Q(lam).  h_order, that of Z[lam], comes
    from h_field by the order class number formula (``forms.class_count``);
    :func:`genus` checks it against the representatives it enumerates.
    """

    char: CharPoly
    geometry: GeometryLabel
    branch: TheoremBranch
    disc: OrderDisc | None  # None when the characteristic polynomial is reducible
    h_field: int
    h_order: int

    @property
    def genus(self) -> int:
        """The class number of the field Q(lam); 1 when lam is rational."""
        return self.h_field

    @property
    def rigid(self) -> bool:
        return self.genus == 1

    @property
    def discrepancy(self) -> bool:
        """Field and order class numbers differ, which needs conductor > 1."""
        return self.disc is not None and self.disc.f > 1 and self.h_field != self.h_order


def _class_numbers(od: OrderDisc | None) -> tuple[int, int]:
    """(h_field, h_order) for the order od; the field Q of rational eigenvalues has (1, 1).

    Only the field's class set is built: for conductor f > 1 h_order comes from
    the order class number formula.
    """
    if od is None:
        return 1, 1
    return class_count(od.D0), class_count(od)


@dataclass(frozen=True)
class GenusReport(GenusCount):
    matrix: IntMat2
    representatives: LMSet | None
    canonical: ConjugacyWitness | None  # P*matrix = B*P, B the canonical target
    evidence: Evidence | None
    presentation: str


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
    h = reps.count
    if level == "full" and (npairs := h * (h - 1) // 2) > MAX_FULL_PAIRS:
        raise SolgenusError(f"full evidence for {h} representatives is {npairs} pair scans, above {MAX_FULL_PAIRS}")
    classes = class_set(reps.disc)
    keys = tuple(class_key(m, classes) for m in reps.reps)
    if len(set(keys)) < len(keys):
        raise SolgenusError("two representatives share a class key: the enumeration is not one per class")
    pairs = ()
    if level == "full":
        pairs = tuple(
            PairEvidence(brute_force_conjugator(a, b, 50), modular_table(a, b, range(2, 31)))
            for a, b in combinations(reps.reps, 2)
        )
    return Evidence(level, keys, pairs)


def canonical(m: IntMat2) -> ConjugacyWitness | None:
    """Verified witness P*m = B*P whose target B is canonical for m's class.

    With an integer eigenvalue (D = 0 or 4) the witness is that of
    :func:`canonical_form`.  Otherwise B is the Latimer-MacDuffee
    representative with m's class key (for D = -4 the quarter turn), and the
    witness is that of one GL2(Z) decision; None when no representative
    shares the key (the fixed lattice is a module over a larger order,
    conductor > 1).
    """
    p = char_poly(m)
    if p.disc in (0, 4):
        return canonical_form(m)
    reps = lm_representatives(p)
    classes = class_set(reps.disc)
    key = class_key(m, classes)
    target = next((r for r in reps.reps if class_key(r, classes) == key), None)
    if target is None:
        return None
    w = are_conjugate_gl2z(m, target)
    if w is None:
        raise SolgenusError(f"{target} shares the class key of the input but no conjugator")
    return w


def genus(m: IntMat2, evidence_level: str = "fast") -> GenusReport:
    """Full genus report for the monodromy m; see module docstring for routing.

    evidence_level: "none", "fast" (one class key per representative; keys
    that are pairwise distinct prove the representatives pairwise
    non-conjugate in GL2(Z), and equal keys raise SolgenusError), or "full"
    (adds a bound-50 exhaustive conjugator scan and a mod-m witness table up
    to 30 for every pair; more than MAX_FULL_PAIRS pairs raise SolgenusError
    before the first scan).
    """
    if evidence_level not in ("none", "fast", "full"):
        raise ValueError(f"unknown evidence level {evidence_level!r}")
    p = char_poly(m)
    branch = branch_of(p)
    reps = canon = evidence = None
    if branch is TheoremBranch.MAIN_QUADRATIC:
        reps = lm_representatives(p)
        od = reps.disc
        if evidence_level != "none":
            evidence = _pair_evidence(reps, evidence_level)
    else:
        # trace 0, det 1 has the Gaussian integers (D = -4); otherwise the
        # eigenvalues are rational and the field is Q
        od = order_disc(p) if p.disc < 0 else None
        canon = canonical(m)
    h_field, h_order = _class_numbers(od)
    if reps is not None and reps.count != h_order:
        # the enumeration of D and the class number formula are independent
        raise SolgenusError(
            f"{reps.count} representatives for disc {od.D}, but the class number formula gives {h_order}"
        )
    return GenusReport(
        char=p,
        geometry=geometry(m),
        branch=branch,
        disc=od,
        h_field=h_field,
        h_order=h_order,
        matrix=m,
        representatives=reps,
        canonical=canon,
        evidence=evidence,
        presentation=presentation(m),
    )


# ---------------------------------------------------------------------------
# Survey
# ---------------------------------------------------------------------------


def _survey_cell(t: int, n: int) -> GenusCount:
    p = CharPoly(t, n)
    od = order_disc(p)
    return GenusCount(p, geometry(companion(p)), branch_of(p), od, *_class_numbers(od))


def survey_rows(tmax: int, det: str = "both") -> list[GenusCount]:
    """One row per (t, n) cell with hyperbolic real spectrum (D > 0 nonsquare).

    These are exactly the Sol cells; cells with degenerate or complex spectrum
    are skipped because the genus data there does not depend on (t, n) alone.
    Each row is the :class:`GenusCount` that :func:`genus` gives the cell's
    companion matrix, without building the representatives, so only the
    class sets of the fields are built.  A negative tmax or one above
    MAX_SURVEY_TMAX raises SolgenusError before the first class set is built.
    """
    if tmax < 0:
        raise SolgenusError(f"survey tmax {tmax} is negative")
    if tmax > MAX_SURVEY_TMAX:
        raise SolgenusError(f"survey tmax {tmax} is above {MAX_SURVEY_TMAX}")
    dets = {"both": (-1, 1), "1": (1,), "-1": (-1,)}[det]
    cells = [
        (t, n)
        for t in range(-tmax, tmax + 1)
        for n in dets
        if (d := t * t - 4 * n) > 0 and not is_square(d)
    ]
    return [_survey_cell(t, n) for t, n in cells]
