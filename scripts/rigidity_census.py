#!/usr/bin/env python3
"""Census of rigidity over the hyperbolic (trace, det) cells up to a bound.

Tabulates how often the class number is 1 (the bundle group is determined by
its profinite completion) and lists the cells where the order-level and
field-level class numbers disagree, which only happens at conductor > 1.
"""
import argparse
import sys
from collections import Counter

from solgenus import SolgenusError
from solgenus.genus import survey_rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tmax", type=int, default=30)
    args = parser.parse_args()

    rows = survey_rows(args.tmax, "both")
    by_genus = Counter(r.genus for r in rows)
    rigid = sum(1 for r in rows if r.rigid)

    print(f"cells with hyperbolic monodromy, |t| <= {args.tmax}: {len(rows)}")
    print(f"rigid (genus 1): {rigid}  ({rigid / len(rows):.1%})")
    print("genus histogram:")
    for g in sorted(by_genus):
        print(f"  genus {g:>2}: {by_genus[g]:>4} cells")

    split = [r for r in rows if r.h_field != r.h_order]
    print(f"\ncells where order-level and field-level class numbers differ: {len(split)}")
    for r in split:
        print(
            f"  t={r.char.t:>4} n={r.char.n:>2}  D={r.disc.D:>6} = {r.disc.f}^2 * {r.disc.D0:<5} "
            f"h_field={r.h_field} h_order={r.h_order}"
        )


if __name__ == "__main__":
    try:
        main()
    except SolgenusError as e:
        # the same one-line error and exit status as the solgenus CLI
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
