#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against the work tree; writes BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent HEAD --pairs 10 --out BENCH_11.json

The parent commit is exported with `git archive` into a temporary directory.
Each pair runs the parent's and the work tree's own, unmodified
`solbench/run.py --workload W --seed S --seconds T --trace 0` once each,
one after the other, and alternates which side runs first.  For each
workload and end-to-end metric of BENCHMARK.json the output records the
median of each side, the parent's quartiles, the number of pairs in which
the change was better, and the median and quartiles of the per-pair
change/parent ratios, together with every run's raw result.  The per-pair
ratios compare runs made minutes apart, so they are less exposed than the
side medians to the host's speed drifting during a long run.  The peak RSS
of each `run.py` process itself (`harness_peak_rss_mb`, Linux) is recorded
and summarised the same way.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    archive = dest / "parent.tar"
    with archive.open("wb") as f:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=f)
    # the "data" filter refuses links and paths that leave the tree; Python 3.12
    # warns when no filter is given, and 3.14 makes it the default
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", **safe)
    archive.unlink()


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one run.py, with run.py's own peak RSS added.

    run.py is reaped with os.wait4, whose ru_maxrss (KB on Linux) is the peak
    of run.py and of the worker it waited for; the worker reports its own.
    Output goes to files, not pipes, so a long output cannot block run.py
    while this process waits.
    """
    cmd = [sys.executable, "solbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=tree, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        raise SystemExit(f"error: {cmd} in {tree} exited {proc.returncode}: {stderr[-2000:]}")
    result = json.loads(stdout.splitlines()[-1])
    result["harness_peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _compare(parent: list[float], change: list[float], higher: bool) -> dict:
    """Side medians, the parent's quartiles, the change's wins (ties count for
    neither side) and the per-pair change/parent ratios."""
    ratios = [c / p for p, c in zip(parent, change)]
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": _quartiles(parent),
        "change_wins": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
        "ratio": statistics.median(change) / statistics.median(parent),
        "pair_ratio_median": statistics.median(ratios),
        "pair_ratio_iqr": _quartiles(ratios),
    }


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload, for each metric and for run.py's own peak RSS: see _compare."""
    out: dict = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == w]
        row = {
            "pairs": len(pairs),
            "failed": {side: sum(r[side]["failed"] for r in pairs) for side in ("parent", "change")},
            "correct": {side: all(r[side]["correct"] for r in pairs) for side in ("parent", "change")},
        }
        for m in metrics:
            name = m["name"]
            parent = [r["parent"]["metrics"][name]["value"] for r in pairs]
            change = [r["change"]["metrics"][name]["value"] for r in pairs]
            row[name] = {"unit": m["unit"], "better": m["better"], **_compare(parent, change, m["better"] == "higher")}
        parent = [r["parent"]["harness_peak_rss_mb"] for r in pairs]
        change = [r["change"]["harness_peak_rss_mb"] for r in pairs]
        row["harness_peak_rss_mb"] = {"unit": "MB", "better": "lower", **_compare(parent, change, False)}
        out[w] = row
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="workload name; repeat for several (default: all)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        _export(args.parent, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for w in workloads:
                run = {"pair": k, "workload": w, "first": order[0]}
                for side in order:
                    run[side] = _run(trees[side], w, args.seed, args.seconds)
                runs.append(run)
                print(f"pair {k} {w}: " + "  ".join(
                    f"{side} {run[side]['metrics']['items_per_s']['value']:.4g}/s "
                    f"(run.py {run[side]['harness_peak_rss_mb']:.0f} MB)" for side in order), file=sys.stderr)
    report = {
        "parent": _git("rev-parse", args.parent),
        "change": f"work tree on {_git('rev-parse', 'HEAD')}",
        "command": f"solbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}, cores: {os.cpu_count()}",
        "summary": summarise(runs, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
