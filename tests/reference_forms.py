"""Reference enumerators of reduced forms: one trial division of (b^2 - D)/4 per b.

These are the O(|D|) loops that ``solgenus.forms`` used before it factored all
the (b^2 - D)/4 together by a sieve.  They are kept here, unchanged, as the
reference for the differential tests in ``test_forms.py``.
"""
import math


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
