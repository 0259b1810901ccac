"""The measured process: set up solgenus, run a workload's rounds, report timings.

Runs with `src` on PYTHONPATH.  Every program output goes to stdout as one
JSON line for run.py to check; the last line is the summary.  The checks run
in run.py, after this process has ended, so they add nothing to this
process's time or memory.

    python3 solbench/worker.py --setup-only
    python3 solbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--quick] [--spans FILE]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

from workloads import rounds

# warm-up inputs lie outside every workload: small D, h = 1, tiny moduli
WARM_UP = (
    ["genus", "3 1; 1 0"],
    ["classnumber", "-23"],
    ["classnumber", "21"],
    ["conj-mod", "0 1; 1 3", "3 1; 1 0", "--mmax", "4"],
)


def _clear_caches() -> None:
    """Drop every functools cache in solgenus, as a fresh `solgenus` process starts."""
    for name, mod in list(sys.modules.items()):
        if name == "solgenus" or name.startswith("solgenus."):
            for val in list(vars(mod).values()):
                if callable(getattr(val, "cache_clear", None)) and hasattr(val, "cache_info"):
                    val.cache_clear()


def _invoke(main, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # an uncaught program error fails the item, not the run
            traceback.print_exc()
            rc = 3
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def setup():
    from solgenus.cli import main

    for argv in WARM_UP:
        rc, _out, err, _s = _invoke(main, argv)
        if rc != 0:
            raise SystemExit(f"warm-up {argv} failed: {err}")
    _clear_caches()
    return main


def run(args) -> None:
    main = setup()
    ready = time.monotonic()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    records = []
    measured, item = 0.0, 0
    gen = rounds(args.workload, args.seed, args.quick)
    # trace 1 alternates untraced and traced rounds, so the overhead is measured
    # in the same process; at least one round of each kind runs
    while measured < args.seconds or (tracer is not None and len(records) < 2):
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.install()
        outputs, seconds, items = [], 0.0, 0
        for step in next(gen):
            try:
                argv = step.argv(outputs)
            except (KeyError, IndexError, TypeError, ValueError):  # earlier output unusable
                argv, rc, out, err, dt = None, None, "", "no input: earlier output unusable", 0.0
            else:
                if traced:
                    tracer.begin_item(item)
                    rc, out, err, dt = tracer.call("cli.main", _invoke, main, argv)
                else:
                    rc, out, err, dt = _invoke(main, argv)
                _clear_caches()
            item += 1
            outputs.append(out)
            seconds += dt
            items += step.items
            print(json.dumps({"kind": "call", "argv": argv, "items": step.items, "rc": rc,
                              "out": out, "err": err[-2000:]}))
        if traced:
            tracer.uninstall()
        measured += seconds
        records.append({"items": items, "seconds": seconds, "traced": traced})
    summary = {
        "kind": "summary",
        "ready": ready,
        "rounds": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        def per_item(traced: bool) -> float:
            return statistics.median(r["seconds"] / r["items"] for r in records if r["traced"] == traced)

        overhead = 100.0 * (per_item(True) / per_item(False) - 1.0)
        summary["layers"] = tracer.metrics(sum(r["items"] for r in records if r["traced"]), overhead)
        summary["missing_layers"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(summary))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()
    if args.setup_only:
        setup()
        print(json.dumps({"kind": "summary", "ready": time.monotonic()}))
        return
    run(args)


if __name__ == "__main__":
    main()
