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
        (["genus2_walkthrough.py", "--bound", "5", "--mmax", "8"], 0),
        # modulus 59 is past the scan limit: one error line, as from the CLI
        (["genus2_walkthrough.py", "--bound", "1", "--mmax", "60"], 1),
    ],
)
def test_scripts_run(script):
    # the scripts are library callers that no other test imports
    (name, *argv), code = script
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv], env=env, capture_output=True)
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
