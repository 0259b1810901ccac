import json
import os
from pathlib import Path

import pytest

from helpers import mat
from solgenus import SolgenusError
from solgenus.cli import main, survey_rows

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_genus_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "genus", "0 -1; 1 0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [[0, -1], [1, 0]]
    assert data["genus"] == 1 and data["branch"] == "TraceZero"
    assert data["canonical"]["target"] == [[0, -1], [1, 0]]


def test_genus_json_keys_stable(capsys):
    _, out, _ = run_cli(capsys, "genus", "6 1; 1 0")
    data = json.loads(out)
    for key in (
        "matrix",
        "geometry",
        "branch",
        "D",
        "D0",
        "conductor",
        "h_field",
        "h_order",
        "genus",
        "representatives",
        "evidence",
        "presentation",
    ):
        assert key in data
    assert data["genus"] == 2
    assert len(data["representatives"]) == 2


def test_genus_table_format(capsys):
    code, out, _ = run_cli(capsys, "genus", "2 1; 1 1", "--format", "table")
    assert code == 0
    assert "genus" in out and "Sol" in out


def test_classify(capsys):
    _, out, _ = run_cli(capsys, "classify", "[[1,1],[0,1]]")
    data = json.loads(out)
    assert data["spectrum"] == "RepeatedOne"
    assert data["geometry"] == "Nil"
    assert data["order"] == "infinite"


def test_enumerate_by_trace_det(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--trace", "6", "--det", "-1")
    data = json.loads(out)
    assert data["count"] == 2
    assert data["representatives"][0]["matrix"] == [[0, 1], [1, 6]]


def test_enumerate_by_matrix(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "6 1; 1 0")
    assert json.loads(out)["count"] == 2


def test_conj_trace_mismatch_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "conj", "0 -1; 1 3", "0 -1; 1 4")
    assert code == 0
    data = json.loads(out)
    assert data["conjugate"] is False
    assert data["reason"] == "characteristic polynomials differ"


def test_conj_witness(capsys):
    _, out, _ = run_cli(capsys, "conj", "0 -1; 1 0", "0 1; -1 0")
    data = json.loads(out)
    assert data["conjugate"] is True and data["witness"] is not None


def test_conj_mod_single_level(capsys):
    _, out, _ = run_cli(capsys, "conj-mod", "0 -1; 1 3", "0 -1; 1 4", "--m", "5")
    data = json.loads(out)
    assert data["levels"] == [{"m": 5, "witness": None}]
    assert data["first_failure"] == 5


def test_conj_mod_range(capsys):
    _, out, _ = run_cli(capsys, "conj-mod", "0 1; 1 6", "4 3; 3 2", "--mmax", "12")
    data = json.loads(out)
    assert data["all_witnessed"] is True
    assert len(data["levels"]) == 11


def test_conj_mod_prime_power_above_limit_exit_one(capsys, monkeypatch):
    import solgenus.conjugacy

    def no_scan(*args):
        raise AssertionError("a GL2(Z/q) grid was built")

    monkeypatch.setattr(solgenus.conjugacy, "_modular_scan", no_scan)
    for m in ("97", "194", "59"):  # 194 = 2 * 97: the part 2 is not scanned either
        code, out, err = run_cli(capsys, "conj-mod", "0 1; 1 6", "4 3; 3 2", "--m", m)
        assert code == 1 and out == "" and "prime-power part above 53" in err, m
    # a range is refused before its first level is scanned
    for mmax in ("60", "59"):
        code, out, err = run_cli(capsys, "conj-mod", "0 1; 1 6", "4 3; 3 2", "--mmax", mmax)
        assert code == 1 and out == "" and "modulus 59 has a prime-power part above 53" in err, mmax
    with pytest.raises(SolgenusError):
        solgenus.conjugacy.profinite_evidence(mat(0, 1, 1, 6), mat(4, 3, 3, 2), 59)


def test_classnumber(capsys):
    _, out, _ = run_cli(capsys, "classnumber", "40")
    data = json.loads(out)
    assert data == {
        "D": 40,
        "D0": 40,
        "f": 1,
        "mode": "improper",
        "h": 2,
        "reps": [[-3, 2, 3], [-1, 6, 1]],
    }


def test_classnumber_domain_error_exit_one(capsys):
    code, _, err = run_cli(capsys, "classnumber", "7")
    assert code == 1 and "error" in err


def test_discriminant_above_limit_exit_one_before_factoring(capsys, monkeypatch):
    # trial division of these D would not finish; the limit must come first
    from solgenus import orders

    def no_factor(n):
        raise AssertionError(f"factor({n}) was called")

    monkeypatch.setattr(orders, "factor", no_factor)
    for argv in (
        ("genus", "0 1; 1 10000000000000"),
        ("classnumber", "100000000000000000000001"),
        ("enumerate", "--trace", "10000000000000", "--det", "1"),
        ("canonical", "0 1; 1 10000000000000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and "too large" in err, argv


def test_parse_error_exit_one(capsys):
    code, _, err = run_cli(capsys, "genus", "0 -1; 1")
    assert code == 1 and "error" in err


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_canonical_trace_zero(capsys):
    _, out, _ = run_cli(capsys, "canonical", "2 -5; 1 -2")
    data = json.loads(out)
    assert data["target"] == [[0, -1], [1, 0]] and data["verified"] is True


def test_canonical_main_branch(capsys):
    _, out, _ = run_cli(capsys, "canonical", "2 1; 1 1")
    data = json.loads(out)
    assert data["target"] == [[0, -1], [1, 3]] and data["verified"] is True


def test_canonical_conductor_orphan(capsys):
    # lattice over a strictly bigger order: no enumerated representative matches
    _, out, _ = run_cli(capsys, "canonical", "1 2; 2 3")
    data = json.loads(out)
    assert data["target"] is None and data["note"] is not None


def test_survey_row_count_tmax10(capsys):
    code, out, _ = run_cli(capsys, "survey", "--tmax", "10", "--det", "both", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,n,D,D0,f,geometry,branch,h_field,h_order,genus,rigid"
    assert len(lines) - 1 == 36


def test_survey_byte_stable_and_matches_golden(capsys):
    _, out1, _ = run_cli(capsys, "survey", "--tmax", "20", "--format", "csv")
    _, out2, _ = run_cli(capsys, "survey", "--tmax", "20", "--format", "csv")
    assert out1 == out2
    golden = (FIXTURES / "survey_tmax20.csv").read_text()
    assert out1 == golden


def test_survey_rows_sorted_and_sane():
    rows = survey_rows(12, "both")
    keys = [(r.t, r.n) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.D > 0 and r.D == r.f * r.f * r.D0
        assert r.genus == r.h_field and r.rigid == (r.genus == 1)
        assert r.branch == "MainQuadratic" and r.geometry == "Sol"


def test_survey_json_and_table(capsys):
    _, out, _ = run_cli(capsys, "survey", "--tmax", "5", "--format", "json")
    data = json.loads(out)
    assert data["rows"][0]["t"] == -5
    _, out, _ = run_cli(capsys, "survey", "--tmax", "5", "--format", "table")
    assert out.splitlines()[0].startswith("t")


def test_enumerate_missing_args_exit_one(capsys):
    code, _, err = run_cli(capsys, "enumerate")
    assert code == 1 and "error" in err


def test_enumerate_degenerate_exit_one(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--trace", "2", "--det", "1")
    assert code == 1 and "error" in err


def test_color_env_table(capsys):
    os.environ["SOLGENUS_COLOR"] = "1"
    try:
        code, out, _ = run_cli(capsys, "genus", "2 1; 1 1", "--format", "table")
    finally:
        del os.environ["SOLGENUS_COLOR"]
    assert code == 0 and "\x1b[32m" in out


def test_genus_json_matches_shipped_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parent.parent / "docs" / "genus_report.schema.json").read_text())
    for matrix in ("6 1; 1 0", "0 -1; 1 0", "1 1; 0 1", "0 1; 1 0", "12 1; 1 0"):
        _, out, _ = run_cli(capsys, "genus", matrix)
        jsonschema.validate(json.loads(out), schema)


def test_big_int_json_policy(capsys):
    big = 2**61 + 1
    _, out, _ = run_cli(capsys, "classify", f"1 0; {big} 1")
    data = json.loads(out)
    assert data["matrix"][1][0] == str(big)  # decimal string beyond 2^53
    assert data["matrix"][0][0] == 1  # small ints stay numeric


def test_classnumber_enumeration_failure_exit_one(capsys, monkeypatch):
    # a reduced-form list that misses a form must fail as a domain error
    from solgenus import forms

    full = forms._reduced_forms(1_000_009)
    monkeypatch.setattr(forms, "_reduced_forms", lambda D: full[1:])
    forms._class_set_cached.cache_clear()
    code, out, err = run_cli(capsys, "classnumber", "1000009")
    forms._class_set_cached.cache_clear()
    assert code == 1 and out == "" and "error" in err
