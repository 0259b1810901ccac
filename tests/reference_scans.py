"""Reference conjugator scans: brute-force numpy grids over every candidate P.

These are the bodies that ``solgenus.conjugacy.brute_force_conjugator`` and
``solgenus.conjugacy._modular_scan`` had before they walked the solution
lattice of P*A = B*P.  They are kept here, unchanged apart from returning the
bare witness, as the references for the differential tests in
``test_conjugacy.py``: each must give the same lexicographically first
witness as the lattice walk.
"""
import math

import numpy as np

from solgenus import IntMat2


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
