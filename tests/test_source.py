"""Properties of the package source that no single behaviour test shows."""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_in_package():
    # python -O strips assert statements, so checks must raise SolgenusError
    found = []
    for path in sorted((ROOT / "src" / "solgenus").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_benchmark_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("solbench_tracer", ROOT / "solbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function, _span in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(module), function, None)), (module, function)
    # the counts the benchmark reads from a class set
    from solgenus.forms import _reduced_forms, class_set

    for D in (40, -23):
        t, cs = tracer.Tracer(), class_set(D)
        tracer._class_set_counts(t, (D,), {}, cs)
        assert t.counts["forms.classes"] == cs.count
        assert t.counts["forms.reduced_forms"] == len(_reduced_forms(D))


def test_cli_import_does_not_load_numpy():
    # numpy is a test dependency only; the CLI's import time is paid on every run
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, solgenus.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize(
    "script",
    [
        (["rigidity_census.py", "--tmax", "10"], 0),
        # past the survey limit: refused before the first class set
        (["rigidity_census.py", "--tmax", "2001"], 1),
        (["genus2_walkthrough.py", "--bound", "5", "--mmax", "8"], 0),
        # modulus 59 is past the scan limit: one error line, as from the CLI
        (["genus2_walkthrough.py", "--bound", "1", "--mmax", "60"], 1),
        # box-scan bound past the limit: refused, where it would scan for hours
        (["genus2_walkthrough.py", "--bound", "100000", "--mmax", "2"], 1),
        # a box-scan bound below 1 is refused too
        (["genus2_walkthrough.py", "--bound", "0", "--mmax", "2"], 1),
    ],
)
def test_scripts_run(script):
    # the scripts are library callers that no other test imports
    (name, *argv), code = script
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "scripts" / name), *argv]
    done = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    stderr = done.stderr.decode()
    assert done.returncode == code, stderr
    assert "Traceback" not in stderr
    if code:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


def test_no_unused_private_names():
    # a private function, class or module-level name that no other line of
    # the package reads is dead code
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted((ROOT / "src" / "solgenus").glob("*.py"))}
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined += [(name, f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{module}:{n}" for module, n in defined if n.startswith("_") and not n.startswith("__") and n not in used]
    assert unused == []


def test_bench_pairs_summarise():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    metrics = [
        {"name": "items_per_s", "unit": "1/s", "better": "higher"},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
    ]

    def side(items, rss, failed=0, correct=True, harness_rss=500):
        metrics = {"items_per_s": {"value": items}, "peak_rss_mb": {"value": rss}}
        return {"failed": failed, "correct": correct, "metrics": metrics, "harness_peak_rss_mb": harness_rss}

    parent_items, change_items = [10, 20, 30, 40, 50], [11, 20, 29, 41, 60]
    parent_rss, change_rss = [100, 100, 100, 100, 100], [90, 100, 110, 99, 100]
    runs = [
        {"workload": "survey", "parent": side(p_items, p_rss), "change": side(c_items, c_rss, failed=k % 2)}
        for k, (p_items, c_items, p_rss, c_rss) in enumerate(zip(parent_items, change_items, parent_rss, change_rss))
    ]
    runs.append({"workload": "evidence", "parent": side(5, 50), "change": side(4, 50, correct=False)})
    out = bench.summarise(runs, metrics)

    assert list(out) == ["survey", "evidence"]
    survey = out["survey"]
    assert survey["pairs"] == 5 and survey["failed"] == {"parent": 0, "change": 2}
    assert survey["correct"] == {"parent": True, "change": True}
    items = survey["items_per_s"]
    assert (items["parent_median"], items["change_median"]) == (30, 29)
    assert items["parent_iqr"] == [15, 45]
    # higher is better: 11 > 10, 41 > 40 and 60 > 50 win; the tie 20 = 20 counts for neither side
    assert items["change_wins"] == 3 and items["ratio"] == 29 / 30
    rss = survey["peak_rss_mb"]
    # lower is better: 90 and 99 win; the two ties at 100 count for neither side
    assert rss["change_wins"] == 2 and rss["parent_median"] == rss["change_median"] == 100
    assert rss["parent_iqr"] == [100, 100]

    evidence = out["evidence"]
    assert evidence["pairs"] == 1 and evidence["correct"] == {"parent": True, "change": False}
    assert evidence["items_per_s"]["parent_iqr"] == [5, 5] and evidence["items_per_s"]["change_wins"] == 0
    assert evidence["items_per_s"]["pair_ratio_median"] == 0.8 and evidence["items_per_s"]["pair_ratio_iqr"] == [0.8, 0.8]
    assert survey["harness_peak_rss_mb"]["pair_ratio_median"] == 1 and survey["harness_peak_rss_mb"]["change_wins"] == 0


def test_bench_pairs_pair_ratios_see_through_host_drift():
    # the host's speed moved between the two runs of most pairs: the side
    # medians split to 220 / 300, but the change/parent ratios of the pairs
    # have median 1.0, and their quartiles straddle it
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    metrics = [{"name": "items_per_s", "unit": "1/s", "better": "higher"}]

    def side(items, harness_rss):
        return {"failed": 0, "correct": True, "metrics": {"items_per_s": {"value": items}},
                "harness_peak_rss_mb": harness_rss}

    parent, change = [100, 200, 300, 400, 500], [200, 220, 150, 360, 500]
    runs = [{"workload": "survey", "parent": side(p, 1000 + p), "change": side(c, 1000 + p)}
            for p, c in zip(parent, change)]
    items = bench.summarise(runs, metrics)["survey"]["items_per_s"]
    assert (items["parent_median"], items["change_median"]) == (300, 220)
    assert items["ratio"] == pytest.approx(220 / 300)
    assert items["change_wins"] == 2
    assert items["pair_ratio_median"] == 1.0
    assert items["pair_ratio_iqr"] == pytest.approx([0.7, 1.55])
    rss = bench.summarise(runs, metrics)["survey"]["harness_peak_rss_mb"]
    assert rss["unit"] == "MB" and rss["pair_ratio_median"] == 1.0 and rss["pair_ratio_iqr"] == [1.0, 1.0]
