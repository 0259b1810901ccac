"""Reference enumerators of reduced forms and of their partition into classes.

``reduced_forms`` and its two halves are the O(|D|) loops, one trial division
of (b^2 - D)/4 per b, that ``solgenus.forms`` used before it factored all the
(b^2 - D)/4 together by a sieve.  ``class_partition`` is the assembly of
classes that ``solgenus.forms`` used before it indexed them in one pass: walk
every rho-cycle, merge each with the cycle of its opposite, sort by least
member.  Both are kept here, unchanged, as references for the differential
tests in ``test_forms.py``.
"""
import math

from solgenus import EquivMode, SolgenusError
from solgenus.forms import _cycle_raw, _opposite, _reduced_forms


def reduced_definite_forms(D: int) -> list[tuple[int, int, int]]:
    out = []
    amax = math.isqrt(abs(D) // 3)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2 != 0 or (b * b - D) % (4 * a) != 0:
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
    return sorted(out)


def reduced_indefinite_forms(D: int) -> list[tuple[int, int, int]]:
    out = []
    for b in range(1, math.isqrt(D) + 1):
        if (D - b) % 2 != 0:
            continue
        m = (D - b * b) // 4  # = |a*c|, positive
        for aa in range(1, math.isqrt(m) + 1):
            if m % aa:
                continue
            for av in {aa, m // aa}:
                ta = 2 * av
                if D >= (ta + b) ** 2:
                    continue
                if ta - b >= 0 and (ta - b) ** 2 >= D:
                    continue
                cv = m // av
                for a, c in ((av, -cv), (-av, cv)):
                    if math.gcd(math.gcd(a, b), c) == 1:
                        out.append((a, b, c))
    return sorted(set(out))


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    return reduced_definite_forms(D) if D < 0 else reduced_indefinite_forms(D)


def class_partition(D: int, mode: EquivMode) -> tuple[tuple[tuple[int, int, int], ...], tuple[frozenset, ...]]:
    """(reps, classes): the reduced triples of each class, sorted by least member, and those least members."""
    reduced = _reduced_forms(D)
    if D < 0:
        classes = [frozenset([f]) for f in reduced]
    else:
        cycle_of: dict[tuple[int, int, int], int] = {}
        cycles: list[list[tuple[int, int, int]]] = []
        for f in reduced:
            if f in cycle_of:
                continue
            cyc = _cycle_raw(f, D, len(reduced))
            for g in cyc:
                cycle_of[g] = len(cycles)
            cycles.append(cyc)
        if cycle_of.keys() != set(reduced):
            raise SolgenusError(f"the rho-cycles of disc {D} do not partition its reduced forms")
        if mode is EquivMode.PROPER:
            classes = [frozenset(c) for c in cycles]
        else:
            merged: list[set] = []
            seen: set[int] = set()
            for i, cyc in enumerate(cycles):
                if i in seen:
                    continue
                j = cycle_of[_opposite(cyc[0])]
                seen.update({i, j})
                members = set(cycles[i]) | set(cycles[j])
                merged.append(members)
            classes = [frozenset(c) for c in merged]
    classes.sort(key=lambda members: min(members))
    return tuple(min(members) for members in classes), tuple(classes)
