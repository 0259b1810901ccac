#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against the work tree; writes BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent HEAD --pairs 10 --out BENCH_11.json

The parent commit is exported with `git archive` into a temporary directory.
Each pair runs the parent's and the work tree's own, unmodified
`solbench/run.py --workload W --seed S --seconds T --trace 0` once each,
one after the other, and alternates which side runs first.  For each
workload and end-to-end metric of BENCHMARK.json the output records the
median of each side, the parent's quartiles, and the number of pairs in which
the change was better, together with every run's raw result.
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
    cmd = [sys.executable, "solbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {cmd} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: medians, the parent's quartiles and the change's wins."""
    out: dict = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == w]
        row = {
            "pairs": len(pairs),
            "failed": {side: sum(r[side]["failed"] for r in pairs) for side in ("parent", "change")},
            "correct": {side: all(r[side]["correct"] for r in pairs) for side in ("parent", "change")},
        }
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            parent = [r["parent"]["metrics"][name]["value"] for r in pairs]
            change = [r["change"]["metrics"][name]["value"] for r in pairs]
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            row[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_iqr": _quartiles(parent),
                "change_wins": wins,
                "ratio": statistics.median(change) / statistics.median(parent),
            }
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
                    f"{side} {run[side]['metrics']['items_per_s']['value']:.4g}/s" for side in order), file=sys.stderr)
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
