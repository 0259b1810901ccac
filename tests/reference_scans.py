"""Reference conjugator scans: brute-force numpy grids over every candidate P,
and the per-level echelon lattices that the walks used before the diagonal form.

The grids are the bodies that ``solgenus.conjugacy.brute_force_conjugator``
and ``solgenus.conjugacy._modular_scan`` had before they walked the solution
lattice of P*A = B*P.  They are kept here as the references for the
differential tests in ``test_conjugacy.py``: each must give the same
lexicographically first witness as the lattice walk.  They return the bare
witness, and the GL2(Z/q) grid is scanned one p11 slice at a time, in the
same order, so that every level up to q = 53 fits in a few MB.

``solution_basis`` and ``image_has_unit`` are the bodies that built each
level's lattice, and decided whether it holds a unit mod p, with two echelon
forms per level.  The lattice read from ``_diagonal_form`` must span the same
lattice and give the same verdict.
"""
import math

import numpy as np

from solgenus import IntMat2
from solgenus.conjugacy import _xgcd


def box_scan(a: IntMat2, b: IntMat2, bound: int) -> IntMat2 | None:
    """First P (lex order) with entries in [-bound, bound], P*A = B*P and det P = +-1."""
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
            return IntMat2(int(p11), int(qg[i]), int(rg[i]), int(sg[i]))
    return None


def modular_scan(a_ent: tuple, b_ent: tuple, q: int, p: int) -> tuple | None:
    """First P (lex order) in GL2(Z/q) with P*A = B*P mod q; q = p^k.

    The grid is scanned one p11 slice of q^3 cells at a time, as in
    :func:`box_scan`, so a level costs q^3 int64 cells of memory.
    """
    a11, a12, a21, a22 = a_ent
    b11, b12, b21, b22 = b_ent
    p12, p21, p22 = np.indices((q, q, q), dtype=np.int64).reshape(3, -1)
    for p11 in range(q):
        e1 = (p11 * a11 + p12 * a21 - b11 * p11 - b12 * p21) % q
        e2 = (p11 * a12 + p12 * a22 - b11 * p12 - b12 * p22) % q
        e3 = (p21 * a11 + p22 * a21 - b21 * p11 - b22 * p21) % q
        e4 = (p21 * a12 + p22 * a22 - b21 * p12 - b22 * p22) % q
        det = (p11 * p22 - p12 * p21) % p
        mask = (det != 0) & (e1 == 0) & (e2 == 0) & (e3 == 0) & (e4 == 0)
        if mask.any():
            i = int(np.argmax(mask))
            return (p11, int(p12[i]), int(p21[i]), int(p22[i]))
    return None


def monolithic_scan(ae: tuple, be: tuple, m: int) -> tuple | None:
    """First P (lex order) in GL2(Z/m) with P*A = B*P mod m, m not split by CRT."""
    a11, a12, a21, a22 = ae
    b11, b12, b21, b22 = be
    grid = np.indices((m, m, m, m), dtype=np.int64).reshape(4, -1)
    p11, p12, p21, p22 = grid
    e1 = (p11 * a11 + p12 * a21 - b11 * p11 - b12 * p21) % m
    e2 = (p11 * a12 + p12 * a22 - b11 * p12 - b12 * p22) % m
    e3 = (p21 * a11 + p22 * a21 - b21 * p11 - b22 * p21) % m
    e4 = (p21 * a12 + p22 * a22 - b21 * p12 - b22 * p22) % m
    det = p11 * p22 - p12 * p21
    inv = np.array([math.gcd(int(x) % m, m) == 1 for x in det])
    mask = inv & (e1 == 0) & (e2 == 0) & (e3 == 0) & (e4 == 0)
    if not mask.any():
        return None
    i = int(np.argmax(mask))
    return (int(p11[i]), int(p12[i]), int(p21[i]), int(p22[i]))


def echelon(rows: list[list[int]]) -> list[list[int]]:
    """Row echelon basis of the Z-span of ``rows``: unimodular row operations,
    positive pivots, zero rows dropped (Cohen, GTM 138, sec. 2.4)."""
    out = []
    for col in range(len(rows[0])):
        pivot, rest = None, []
        for r in rows:
            if r[col] == 0:
                rest.append(r)
            elif pivot is None:
                pivot = r
            else:
                g, s, t = _xgcd(pivot[col], r[col])
                u, v = pivot[col] // g, r[col] // g
                pivot, r = [s * x + t * y for x, y in zip(pivot, r)], [u * y - v * x for x, y in zip(pivot, r)]
                rest.append(r)
        if pivot is not None:
            out.append(pivot if pivot[col] > 0 else [-x for x in pivot])
        rows = rest
    return out


def _diagonal(k: int) -> list[list[int]]:
    return [[k * (i == j) for j in range(4)] for i in range(4)]


def solution_basis(a_ent: tuple, b_ent: tuple, q: int = 0) -> list[list[int]]:
    """Echelon basis of {x in Z^4 : P*A = B*P (mod q)}, x = (p11, p12, p21, p22).

    q = 0 asks for the exact solutions.  Writing P*A - B*P as M x, the rows
    (M e_i, e_i), together with (q e_i, 0), span {(M x + q z, x)}; the echelon
    rows whose first half is zero are a basis of the x with M x = 0 (mod q).
    """
    a11, a12, a21, a22 = a_ent
    b11, b12, b21, b22 = b_ent
    m = (
        (a11 - b11, a21, -b12, 0),
        (a12, a22 - b11, 0, -b12),
        (-b21, 0, a11 - b22, a21),
        (0, -b21, a12, a22 - b22),
    )
    rows = [[m[j][i] for j in range(4)] + e for i, e in enumerate(_diagonal(1))]
    rows += [e + [0] * 4 for e in _diagonal(q) if q]
    return [r[4:] for r in echelon(rows) if not any(r[:4])]


def image_has_unit(basis: list[list[int]], p: int) -> bool:
    """Whether the lattice spanned by ``basis`` holds a matrix with det prime to p.

    Its image mod p is spanned by the pivot-1 rows of the echelon form of the
    lattice plus pZ^4.  A subspace of singular 2x2 matrices has dimension at
    most 2, so dimension 3 or more holds a unit.  On the span of u and v, det
    is the binary form det(u) s^2 + b st + det(v) t^2 with
    det(u + v) = det(u) + b + det(v), so it vanishes there only if it vanishes
    at u, v and u + v.
    """
    rows = echelon(basis + _diagonal(p))
    gens = [r for r in rows if next(v for v in r if v) == 1]
    if len(gens) > 2:
        return True
    tries = gens + [[x + y for x, y in zip(*gens)]] if len(gens) == 2 else gens
    return any((x[0] * x[3] - x[1] * x[2]) % p for x in tries)
