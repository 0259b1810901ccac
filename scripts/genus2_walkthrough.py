#!/usr/bin/env python3
"""Walk through the smallest non-rigid example: trace 6, determinant -1.

The characteristic polynomial x^2 - 6x - 1 has discriminant 40, the field
Q(sqrt(10)) has class number 2, and the two ideal classes produce two
monodromy matrices whose groups share every finite quotient but are not
isomorphic.  This script prints the whole evidence chain.
"""
import argparse
import sys

from solgenus import (
    CharPoly,
    SolgenusError,
    brute_force_conjugator,
    class_set,
    format_matrix,
    genus,
    lm_representatives,
    modular_table,
    presentation,
)
from solgenus.ideals import companion


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, default=6)
    parser.add_argument("--det", type=int, default=-1, choices=[1, -1])
    parser.add_argument("--bound", type=int, default=50, help="exhaustive conjugator scan bound")
    parser.add_argument("--mmax", type=int, default=30, help="largest congruence level to witness")
    args = parser.parse_args()

    p = CharPoly(args.trace, args.det)
    print(f"characteristic polynomial: {p}   (disc {p.disc})")

    cs = class_set(p.disc)
    print(f"form classes of disc {p.disc}: {cs.count}")
    for q in cs.reps:
        print(f"  class representative {q}")

    reps = lm_representatives(p)
    print(f"\none matrix per class (principal first = companion {format_matrix(companion(p))}):")
    for m, q in zip(reps.reps, reps.forms):
        print(f"  {format_matrix(m):<16} from form {q}")
        print(f"    {presentation(m)}")

    if reps.count < 2:
        print("\nclass number 1: the group is determined by its finite quotients; nothing to separate")
        return

    a, b = reps.reps[0], reps.reps[1]
    print(f"\nexhaustive conjugator scan between the first two, entries up to {args.bound}:")
    res = brute_force_conjugator(a, b, args.bound)
    print(f"  witness: {None if res.witness is None else format_matrix(res.witness.P)} (bound {res.bound})")

    print(f"\ncongruence-level witnesses (GL2(Z/m), m = 2..{args.mmax}):")
    for m, w in modular_table(a, b, range(2, args.mmax + 1)).levels:
        tag = "none" if w is None else format_matrix(w.P)
        print(f"  m = {m:>2}: {tag}")

    report = genus(companion(p), evidence_level="none")
    print(f"\ngenus of the bundle group: {report.genus} (rigid: {report.rigid})")


if __name__ == "__main__":
    try:
        main()
    except (SolgenusError, ValueError) as e:
        # the same one-line error and exit status as the solgenus CLI
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
