"""Exit code, stdout and stderr of each CLI command listed here, pinned by sha256.

Each command runs in-process through ``cli.main``.  Usage errors (exit 2)
and messages whose text comes from Python itself (JSON decode errors, the
int-digit limit) are left out: their wording differs between Python versions.

Regenerate the fixture from a known-good checkout with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from solgenus.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "cli_golden.json"
COLOR = "SOLGENUS_COLOR"

_MATRICES = [
    "0 -1; 1 0",  # trace 0, det 1: the Gaussian integers
    "0 1; 1 0",  # trace 0, det -1
    "2 -5; 1 -2",
    "1 1; 0 1",  # repeated eigenvalue 1, Nil
    "-1 1; 0 -1",  # repeated eigenvalue -1
    "1 0; 0 1",
    "-1 0; 0 -1",
    "1 0; 0 -1",  # split rational spectrum
    "0 -1; 1 1",  # order 6
    "0 -1; 1 -1",  # order 3
    "2 1; 1 1",  # Sol, h = 1
    "6 1; 1 0",  # D = 40, h = 2
    "0 1; 1 6",
    "4 3; 3 2",
    "1 2; 2 3",  # D = 20: conductor 2
    "3 1; 2 1",  # D = 12: conductor 2
    "0 -1; 1 7",  # D = 45: conductor 3
    "0 1; 1 11",  # D = 125: conductor 5
    "0 -1; 1 18",  # D = 320: conductor 8
    "0 -1; 1 -3",
    "0 1; 1 26",
    "[[5, 2], [2, 1]]",  # JSON text, D = 32: conductor 2
    " 2, 1 ; 1, 1 ",
]

_FIELDS = ["classify", "canonical", "enumerate"]
_PAIRS = [
    ("0 -1; 1 3", "0 -1; 1 4"),  # characteristic polynomials differ
    ("0 -1; 1 0", "0 1; -1 0"),
    ("0 1; 1 6", "4 3; 3 2"),
    ("0 1; 1 6", "6 1; 1 0"),
    ("2 1; 1 1", "1 1; 1 2"),
    ("1 2; 2 3", "0 1; 1 4"),  # D = 20, conductor 2 against the order Z[lam]
]

_ERRORS = [
    ["genus", "0 -1; 1"],  # parse errors whose text is the package's
    ["genus", "a b; c d"],
    ["genus", ""],
    ["genus", "1 2 3; 4 5 6"],
    ["classify", "[[1, 2], [3]]"],
    ["classify", "[[1, 2], [3, true]]"],
    ["classify", "[1, 2, 3, 4]"],
    ["genus", "2 0; 0 1"],  # not unimodular
    ["classify", "2 1; 1 2"],
    ["canonical", "1 1; 1 1"],
    ["enumerate"],
    ["enumerate", "--trace", "3"],
    ["enumerate", "0 1; 1 3", "--trace", "5", "--det", "1"],
    ["enumerate", "--trace", "2", "--det", "1"],  # degenerate
    ["enumerate", "--trace", "0", "--det", "1"],
    ["enumerate", "1 1; 0 1"],
    ["classnumber", "7"],
    ["classnumber", "0"],
    ["classnumber", "1"],
    ["classnumber", "9"],
    ["classnumber", "-8"],
    ["classnumber", "100000000000000000000001"],  # above the factoring limit
    ["genus", "0 1; 1 10000000000000"],
    ["conj", "2 0; 0 1", "1 0; 0 1"],
    ["conj-mod", "0 1; 1 6", "4 3; 3 2", "--m", "1"],
    ["conj-mod", "0 1; 1 6", "4 3; 3 2", "--m", "0"],
    ["conj-mod", "0 1; 1 6", "4 3; 3 2", "--mmax", "1"],
    ["conj-mod", "0 1; 1 6", "4 3; 3 2", "--mmax", "-3"],
    ["conj-mod", "0 1; 1 6", "4 3; 3 2", "--m", "59"],  # prime-power part above the scan limit
    ["conj-mod", "0 1; 1 6", "4 3; 3 2", "--m", "194"],
    ["conj-mod", "0 1; 1 6", "4 3; 3 2", "--mmax", "60"],
    ["conj-mod", "2 1; 1 1", "1 1; 1 2", "--m", "1000000000000000003"],
    ["survey", "--tmax", "-5"],
    ["survey", "--tmax", "2001"],
]


def commands() -> list[dict]:
    """The pinned commands, each {"argv": [...], "env": {...}}."""
    argvs = []
    for m in _MATRICES:
        for fmt in ("json", "table"):
            for level in ("none", "fast", "full"):
                argvs.append(["genus", m, "--evidence", level, "--format", fmt])
            argvs += [[cmd, m, "--format", fmt] for cmd in _FIELDS]
    for t in (-7, -3, 0, 1, 3, 4, 7, 11, 18):
        for n in ("1", "-1"):
            argvs.append(["enumerate", "--trace", str(t), "--det", n])
    for a, b in _PAIRS:
        for fmt in ("json", "table"):
            argvs.append(["conj", a, b, "--format", fmt])
            argvs.append(["conj-mod", a, b, "--mmax", "12", "--format", fmt])
        argvs.append(["conj-mod", a, b, "--m", "8"])
        argvs.append(["conj-mod", a, b, "--m", "5", "--mmax", "1"])
    argvs.append(["conj-mod", "0 1; 1 6", "4 3; 3 2"])
    argvs.append(["conj-mod", "0 1; 1 6", "4 3; 3 2", "--mmax", "44"])
    argvs.append(["conj-mod", "0 1; 1 6", "4 3; 3 2", "--m", "53"])
    for D in (5, 8, 12, 13, 20, 32, 40, 45, 125, 320, 1000009, -3, -4, -12, -16, -23, -27, -48, -75, -1000003):
        for mode in ("proper", "improper"):
            argvs.append(["classnumber", str(D), "--mode", mode])
    for D in (40, -23, 320):
        argvs.append(["classnumber", str(D), "--format", "table"])
    for tmax in (0, 1, 3, 10):
        for det in ("both", "1", "-1"):
            for fmt in ("csv", "json", "table"):
                argvs.append(["survey", "--tmax", str(tmax), "--det", det, "--format", fmt])
    argvs += [["survey"], ["survey", "--tmax", "20"]]
    argvs += _ERRORS
    out = [{"argv": argv, "env": {}} for argv in argvs]
    out.append({"argv": ["genus", "2 1; 1 1", "--format", "table"], "env": {COLOR: "1"}})
    return out


def run(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def _run_with_env(command: dict) -> str:
    saved = os.environ.pop(COLOR, None)
    os.environ.update(command["env"])
    try:
        return run(command["argv"])
    finally:
        os.environ.pop(COLOR, None)
        if saved is not None:
            os.environ[COLOR] = saved


def test_cli_bytes_match_golden():
    golden = json.loads(FIXTURE.read_text())
    assert [{"argv": g["argv"], "env": g["env"]} for g in golden] == commands()
    changed = [g["argv"] for g in golden if _run_with_env(g) != g["sha256"]]
    assert changed == []


if __name__ == "__main__":
    entries = [{**c, "sha256": _run_with_env(c)} for c in commands()]
    FIXTURE.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"{len(entries)} commands written to {FIXTURE}")
