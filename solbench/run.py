"""Benchmark of the solgenus command line: four workloads, checked outputs, traced layers.

    python3 solbench/run.py --workload survey --seed 1 --seconds 25 --trace 0
    python3 solbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 solbench/run.py --quick

Each workload runs in one fresh worker process (solbench/worker.py) that calls
`solgenus.cli.main` in-process, round after round, until the CLI calls have
taken --seconds.  This process then checks every output with
solbench/checks.py and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  --quick runs every
workload once on tiny inputs, in both modes, and also tests the checks.
See solbench/README.md.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 6  # set-up-only processes per run, besides the workload's own
WORKER_TIMEOUT = 150

from workloads import WORKLOADS


class BenchError(Exception):
    pass


def _worker(args: list[str]) -> tuple[list[dict], float]:
    """Run worker.py to its end; return its JSON lines and its spawn time."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SOLGENUS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {args} exceeded {WORKER_TIMEOUT} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line], spawned


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool = False) -> dict:
    from checks import check_output

    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            lines, spawned = _worker(["--setup-only"])
            setup.append(lines[-1]["ready"] - spawned)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        args.append("--quick")
    if trace:
        RESULTS.mkdir(exist_ok=True)
        args += ["--spans", str(RESULTS / f"spans-{name}-seed{seed}.jsonl.gz")]
    lines, spawned = _worker(args)
    summary, calls = lines[-1], lines[:-1]
    setup.append(summary["ready"] - spawned)

    attempted = failed = 0
    incorrect = False
    for call in calls:
        attempted += call["items"]
        if call["rc"] != 0:
            failed += call["items"]
            print(f"{name}: {call['argv']} exited {call['rc']}: {call['err'].strip()}", file=sys.stderr)
            continue
        res = check_output(call["argv"], call["out"], call["items"])
        failed += res.failed
        incorrect |= res.incorrect
        for msg in res.messages[:3]:
            print(f"{name}: check failed: {msg}", file=sys.stderr)
    if trace:
        for fn in summary["missing_layers"]:
            print(f"{name}: {fn} not found; its layer metrics read 0", file=sys.stderr)
        metrics = summary["layers"]
    else:
        rates = [r["items"] / r["seconds"] for r in summary["rounds"]]
        metrics = {
            "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not incorrect, "attempted": attempted, "failed": failed, "metrics": metrics}
    if quick:
        result["calls"] = calls
    return result


def _describe(name: str, res: dict) -> str:
    shown = " ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()
                     if v["value"])
    return f"{name:<12} attempted {res['attempted']} failed {res['failed']} correct {res['correct']}  {shown}"


def _combine(results: dict[str, dict]) -> dict:
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


# ---------------------------------------------------------------------------
# Quick mode: tiny inputs, both modes, and tests of the checks themselves
# ---------------------------------------------------------------------------


def _corrupt(argv: list[str], out: str) -> str:
    """A copy of a correct output with one number changed that a check must catch."""
    if argv[0] == "survey":
        rows = list(csv.reader(io.StringIO(out)))
        rows[1][8] = str(int(rows[1][8]) + 1)  # h_order of the first row
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    rep = json.loads(out)
    if argv[0] == "classnumber":
        rep["reps"][-1][2] += 1
    elif argv[0] == "conj-mod":
        rep["levels"][-1]["witness"][0][0] += 1
    elif "--evidence" in argv:
        rep["evidence"]["pairs"][0]["mod_m"]["witnesses"][-1]["P"][0][1] += 1
    else:
        rep["h_field"] += 1
    return json.dumps(rep)


def quick(seed: int) -> int:
    from checks import check_output, field_class_number, finite_class_number

    ok = True
    for D0 in (5, 8, 12, 13, 40, 60, 85, 229, 1009, -3, -4, -23, -47, -199, -1015):
        series, finite = field_class_number(D0), finite_class_number(D0)
        if abs(series - finite) > 1e-6:
            ok = False
            print(f"class number of {D0}: series {series}, finite sums {finite}", file=sys.stderr)
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, seed, 0.01, trace, quick=True)
            calls = res.pop("calls")
            results[f"{name}/trace{trace}"] = res
            print(_describe(f"{name}/{trace}", res))
            ok &= res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        for call in calls:
            caught = check_output(call["argv"], _corrupt(call["argv"], call["out"]), call["items"])
            if not caught.incorrect:
                ok = False
                print(f"{name}: corrupted {call['argv'][0]} output passed the checks", file=sys.stderr)
    print(json.dumps(_combine(results)))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, both modes, checks tested")
    args = ap.parse_args()
    if not (ROOT / "src" / "solgenus" / "cli.py").is_file():
        print(f"error: no solgenus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick(args.seed)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:  # one after another, never at the same time
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            if args.workload == "all":
                print(_describe(name, results[name]))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else _combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
