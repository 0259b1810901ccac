"""Seeded inputs for the four benchmark workloads, as `solgenus` argument lists.

A run is a sequence of rounds.  Every round of a workload issues the same
commands on inputs of the same size, so the work per round does not depend
on the seed; the seed only changes which inputs of that size are used.  The
module uses the standard library only: the measured process imports nothing
from the benchmark beyond this file and `tracer.py`.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("survey", "classnumber", "genus-fast", "evidence")

# survey: the tmax of each round is drawn from this window.  Cost grows as
# tmax^3 and rows as tmax, so a +-2% window moves the row rate by about +-4%
# per round, and the median over a run's rounds by much less.
SURVEY_TMAX = (490, 510)
SURVEY_TMAX_QUICK = (18, 22)

# classnumber: one indefinite and one definite discriminant per round, drawn
# from narrow windows.  Enumeration is linear in |D| for both signs, and the
# two windows take about the same time, so a change that trades one sign
# against the other shows in the round time.
CLASSNUMBER_WINDOWS = ((80_000_000, 80_400_000), (-24_120_000, -24_000_000))
CLASSNUMBER_WINDOWS_QUICK = ((100_000, 101_000), (-31_000, -30_000))

# genus-fast: cells (t, n) with h_order near 100 (about 5,000 pairwise GL2(Z)
# decisions each), taken from the table of h_order for 1000 <= t <= 3000 that
# solbench/checks.py computes.  Every round runs all of them; the seed picks
# the order, the sign of t and the conjugating word.  Flipping the sign of t
# leaves the class set and every pairwise decision unchanged, so it varies
# the input without varying the work.
GENUS_FAST_CELLS = ((1026, -1), (1062, -1), (1140, 1), (1362, -1), (1434, 1), (1311, -1))
GENUS_FAST_CELLS_QUICK = ((26, -1), (31, 1))

# evidence: non-rigid cells with conductor 1 and h_order 2 (one pair of
# representatives), small D.  The bound-50 box scan and the mod-m tables cost
# the same for every such cell.
EVIDENCE_CELLS = ((6, -1), (8, 1), (9, -1), (10, -1), (12, 1))
EVIDENCE_MMAX = 44
EVIDENCE_MMAX_QUICK = 12

Matrix = tuple[int, int, int, int]


@dataclass(frozen=True)
class Step:
    """One CLI invocation: `items` work items, argv built from earlier outputs."""

    items: int
    argv: Callable[[list[str]], list[str]]


def _const(argv: list[str]) -> Callable[[list[str]], list[str]]:
    return lambda _outputs: argv


def fmt_matrix(m: Matrix) -> str:
    a, b, c, d = m
    return f"{a} {b}; {c} {d}"


def _mul(x: Matrix, y: Matrix) -> Matrix:
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _inv(x: Matrix) -> Matrix:
    det = x[0] * x[3] - x[1] * x[2]  # +-1: products of the generators below
    return (det * x[3], -det * x[1], -det * x[2], det * x[0])


_GENERATORS = ((1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0), (1, 0, 0, -1))


def conjugated_companion(rng: random.Random, t: int, n: int) -> Matrix:
    """P * C * P^-1 for the companion matrix C of x^2 - t x + n and a seeded word P."""
    p: Matrix = (1, 0, 0, 1)
    for _ in range(8):
        p = _mul(p, rng.choice(_GENERATORS))
    return _mul(_mul(p, (0, -n, 1, t)), _inv(p))


def survey_cells(tmax: int) -> list[tuple[int, int]]:
    """The (t, n) rows `survey --tmax` prints, in order: D = t^2 - 4n > 0, not a square."""
    return [
        (t, n)
        for t in range(-tmax, tmax + 1)
        for n in (-1, 1)
        if (d := t * t - 4 * n) > 0 and math.isqrt(d) ** 2 != d
    ]


def _discriminant(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        d = rng.randrange(lo, hi)
        if d % 4 in (0, 1) and not (d > 0 and math.isqrt(d) ** 2 == d):
            return d


def _representative_pair(outputs: list[str]) -> list[str]:
    reps = json.loads(outputs[0])["representatives"]
    (a, b), (c, d) = reps[0]["matrix"]
    (e, f), (g, h) = reps[1]["matrix"]
    return [fmt_matrix((a, b, c, d)), fmt_matrix((e, f, g, h))]


def rounds(workload: str, seed: int, quick: bool = False):
    """Yield the rounds of a run: each round is a list of Steps."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "survey":
            lo, hi = SURVEY_TMAX_QUICK if quick else SURVEY_TMAX
            tmax = rng.randint(lo, hi)
            argv = ["survey", "--tmax", str(tmax), "--format", "csv"]
            yield [Step(len(survey_cells(tmax)), _const(argv))]
        elif workload == "classnumber":
            windows = CLASSNUMBER_WINDOWS_QUICK if quick else CLASSNUMBER_WINDOWS
            yield [Step(1, _const(["classnumber", str(_discriminant(rng, lo, hi))])) for lo, hi in windows]
        elif workload == "genus-fast":
            cells = list(GENUS_FAST_CELLS_QUICK if quick else GENUS_FAST_CELLS)
            rng.shuffle(cells)
            steps = []
            for t, n in cells:
                a = conjugated_companion(rng, rng.choice((t, -t)), n)
                steps.append(Step(1, _const(["genus", fmt_matrix(a)])))
            yield steps
        elif workload == "evidence":
            t, n = rng.choice(EVIDENCE_CELLS)
            a = conjugated_companion(rng, rng.choice((t, -t)), n)
            mmax = str(EVIDENCE_MMAX_QUICK if quick else EVIDENCE_MMAX)
            yield [
                Step(1, _const(["genus", fmt_matrix(a), "--evidence", "full"])),
                Step(1, lambda outputs: ["conj-mod", *_representative_pair(outputs), "--mmax", mmax]),
            ]
        else:
            raise ValueError(f"unknown workload {workload!r}")
