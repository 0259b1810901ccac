"""A count of GL2(Z) conjugacy classes with no reduction theory.

Every matrix of a (trace, det) cell with entries in a box is listed by
splitting a*(t - a) - n = b*c, and the matrices are merged by a first-match
scan: each one joins the first class whose representative
``brute_force_conjugator`` carries to it within a fixed bound, or opens a
class of its own.  Nothing here reduces a form, so the count checks the
reduction code from outside.  It is an upper bound on the number of classes
the box meets: a conjugator outside the scan bound splits one class in two.
"""
from solgenus import IntMat2
from solgenus.conjugacy import brute_force_conjugator


def cell_matrices(t: int, n: int, box: int) -> list[IntMat2]:
    """Every [[a, b], [c, t - a]] with determinant n and all entries in [-box, box].

    For an irreducible x^2 - t*x + n, a*(t - a) - n is never 0, so b and c
    are a divisor pair of it.
    """
    out = []
    for a in range(max(-box, t - box), min(box, t + box) + 1):
        bc = a * (t - a) - n
        for b in range(-box, box + 1):
            if b and bc % b == 0 and abs(bc // b) <= box:
                out.append(IntMat2(a, b, bc // b, t - a))
    return out


def box_classes(t: int, n: int, box: int, bound: int) -> list[IntMat2]:
    """One representative per merged class of ``cell_matrices(t, n, box)``,
    the first matrix of each class in listing order."""
    reps: list[IntMat2] = []
    for m in cell_matrices(t, n, box):
        if all(brute_force_conjugator(r, m, bound).witness is None for r in reps):
            reps.append(m)
    return reps
