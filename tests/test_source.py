"""Properties of the package source that no single behaviour test shows."""
import ast
import importlib
import importlib.util
from pathlib import Path

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
    from solgenus.forms import FormClassSet

    assert {"reps", "class_members"} <= set(FormClassSet.__dataclass_fields__)
