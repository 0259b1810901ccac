import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mat
from solgenus import SolgenusError, cli, genus
from solgenus.cli import _compact, _KeyPairs, genus_report_dict, main, render_json, survey_rows
from solgenus.matrices import parse_matrix

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


def test_conj_mod_mmax_below_two_exit_one(capsys):
    # a range below 2 is refused like a single modulus below 2, not answered
    # with an empty table; --m still takes precedence over --mmax
    for mmax in ("1", "0", "-3"):
        code, out, err = run_cli(capsys, "conj-mod", "0 1; 1 6", "4 3; 3 2", "--mmax", mmax)
        assert (code, out, err) == (1, "", "error: mmax must be at least 2\n"), mmax
    code, out, err = run_cli(capsys, "conj-mod", "0 1; 1 6", "4 3; 3 2", "--m", "1")
    assert (code, out, err) == (1, "", "error: modulus must be at least 2\n")
    code, out, _ = run_cli(capsys, "conj-mod", "0 1; 1 6", "4 3; 3 2", "--m", "5", "--mmax", "1")
    assert code == 0 and [lv["m"] for lv in json.loads(out)["levels"]] == [5]
    code, out, _ = run_cli(capsys, "conj-mod", "0 1; 1 6", "4 3; 3 2", "--mmax", "2")
    assert code == 0 and [lv["m"] for lv in json.loads(out)["levels"]] == [2]


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
        solgenus.conjugacy.modular_table(mat(0, 1, 1, 6), mat(4, 3, 3, 2), range(2, 60))


def test_one_diagonal_form_per_pair(capsys):
    # the box scan and every GL2(Z/q) level of one pair read one diagonal form
    from solgenus.conjugacy import _diagonal_form, _modular_scan

    for argv in (["genus", "0 1; 1 6", "--evidence", "full"], ["conj-mod", "0 1; 1 6", "4 3; 3 2", "--mmax", "44"]):
        _diagonal_form.cache_clear()
        _modular_scan.cache_clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out, argv
        assert _diagonal_form.cache_info().misses == 1, argv
    assert json.loads(out)["all_witnessed"] is True


def test_conj_mod_huge_modulus_refused_without_factoring(capsys, monkeypatch):
    # a prime near 1e18 is refused by the scan limit, not after trial division to 1e9
    import solgenus.conjugacy
    import solgenus.orders

    def no_factor(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(solgenus.orders, "factor", no_factor)
    monkeypatch.setattr(solgenus.conjugacy, "factor", no_factor, raising=False)
    for m in ("1000000000000000003", str(2**64), str(53 * 10**18 + 53)):
        code, out, err = run_cli(capsys, "conj-mod", "2 1; 1 1", "1 1; 1 2", "--m", m)
        assert code == 1 and out == "", m
        assert err.splitlines() == [f"error: modulus {m} has a prime-power part above 53"]


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


def test_deeply_nested_json_matrix_exit_one(capsys):
    # json.loads raises RecursionError, not JSONDecodeError, on nesting this deep
    code, out, err = run_cli(capsys, "classify", "[" * 100_000)
    assert (code, out) == (1, "")
    assert err == "error: JSON matrix is nested too deeply (at position 0)\n"


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
    keys = [(r.char.t, r.char.n) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.disc.D > 0 and r.disc.D == r.disc.f * r.disc.f * r.disc.D0
        assert r.genus == r.h_field and r.rigid == (r.genus == 1)
        assert r.branch.value == "MainQuadratic" and r.geometry.value == "Sol"


def test_survey_json_and_table(capsys):
    _, out, _ = run_cli(capsys, "survey", "--tmax", "5", "--format", "json")
    data = json.loads(out)
    assert data["rows"][0]["t"] == -5
    _, out, _ = run_cli(capsys, "survey", "--tmax", "5", "--format", "table")
    assert out.splitlines()[0].startswith("t")


def test_enumerate_missing_args_exit_one(capsys):
    code, _, err = run_cli(capsys, "enumerate")
    assert code == 1 and "error" in err


def test_enumerate_matrix_with_trace_or_det_exit_one(capsys):
    # the matrix would decide the cell, so --trace and --det would be ignored
    for flags in (["--trace", "5", "--det", "1"], ["--trace", "3"], ["--det", "1"]):
        code, out, err = run_cli(capsys, "enumerate", "0 1; 1 3", *flags)
        assert code == 1 and out == "", flags
        assert err == "error: provide a matrix or --trace and --det, not both\n", flags


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


_BIG = 2**53 - 1


def _json_reference(obj):
    """obj with the big-integer rule applied and each _KeyPairs spelled out, ready for json.dumps."""
    if isinstance(obj, _KeyPairs):
        return [{"i": i, "j": j, "gl2z_conjugate": False} for i in range(obj.h) for j in range(i + 1, obj.h)]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, (list, tuple)):
        return [_json_reference(x) for x in obj]
    return {k: _json_reference(v) for k, v in obj.items()}


_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\r\x00\x1f\x7f⟨⁻¹⟩é\u2028'), st.characters()), max_size=8)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([_BIG, -_BIG, _BIG + 1, -_BIG - 1, 0]),
    _text,
)
_values = st.recursive(
    _scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_text, kids, max_size=4),
        st.integers(0, 4).map(_KeyPairs),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(_values, max_size=4),
        st.lists(_values, max_size=4).map(tuple),
        st.dictionaries(_text, _values, max_size=4),
    )
)
def test_json_writer_matches_json_dumps(obj):
    ref = _json_reference(obj)
    assert render_json(obj) == json.dumps(ref, indent=2) + "\n"
    assert _compact(obj) == json.dumps(ref)


@pytest.mark.parametrize("h", [0, 1, 2, 3])
def test_key_pairs_written_as_dict_list(h):
    pairs = [{"i": i, "j": j, "gl2z_conjugate": False} for i, j in combinations(range(h), 2)]
    assert len(pairs) == h * (h - 1) // 2
    for obj, ref in [
        (_KeyPairs(h), pairs),
        ({"evidence": {"level": "fast", "pairs": _KeyPairs(h)}}, {"evidence": {"level": "fast", "pairs": pairs}}),
        ([1, (_KeyPairs(h),)], [1, [pairs]]),
    ]:
        assert render_json(obj) == json.dumps(ref, indent=2) + "\n"
        assert _compact(obj) == json.dumps(ref)


def test_json_writer_rejects_other_shapes():
    for bad in ({"x": 1.5}, [object()], {1: 2}):
        with pytest.raises(TypeError):
            render_json(bad)


@pytest.mark.parametrize("matrix, level", [("0 1; 1 1026", "fast"), ("6 1; 1 0", "full")])
def test_genus_report_bytes_match_json_dumps(capsys, matrix, level):
    # the default report at (t, n) = (1026, -1), h_order = 100, and a
    # full-evidence report, against json.dumps of the same report dict
    expected = json.dumps(_json_reference(genus_report_dict(genus(parse_matrix(matrix), level))), indent=2)
    code, out, _ = run_cli(capsys, "genus", matrix, "--evidence", level)
    assert code == 0 and out == expected + "\n"
    data = json.loads(out)
    h = data["h_order"]
    assert h > 1 and len(data["evidence"]["pairs"]) == h * (h - 1) // 2
    assert ("mod_m" in data["evidence"]["pairs"][0]) == (level == "full")


@pytest.mark.parametrize("matrix", ["0 1; 1 26", "0 1; 1 1026"])
def test_genus_table_matches_compact_json_dumps(capsys, matrix):
    # the cells (26, -1) and (1026, -1); each dict or list value of the table is
    # its one-line json.dumps
    report = _json_reference(genus_report_dict(genus(parse_matrix(matrix))))
    width = max(map(len, report))
    lines = []
    for k, v in report.items():
        if isinstance(v, (dict, list)):
            text = json.dumps(v)
        else:
            text = "-" if v is None else json.dumps(v) if isinstance(v, bool) else str(v)
        lines.append(f"{k:<{width}}  {text}")
    code, out, _ = run_cli(capsys, "genus", matrix, "--format", "table")
    assert code == 0 and out == "\n".join(lines) + "\n"
    h = report["h_order"]
    assert h > 1 and len(report["evidence"]["pairs"]) == h * (h - 1) // 2


def test_parser_built_once(capsys, monkeypatch):
    # main reads the parser built at import; it builds none of its own
    def no_build():
        raise AssertionError("a parser was built")

    monkeypatch.setattr(cli, "build_parser", no_build)
    code, out, err = run_cli(capsys, "genus", "6 1; 1 0")
    assert code == 0 and err == "" and json.loads(out)["genus"] == 2


# each call next to one that sets the options it leaves at their defaults
_INTERLEAVED = [
    ["genus", "6 1; 1 0", "--evidence", "full", "--format", "table"],
    ["genus", "6 1; 1 0"],
    ["conj-mod", "0 1; 1 6", "4 3; 3 2", "--m", "12"],
    ["conj-mod", "0 1; 1 6", "4 3; 3 2"],
    ["genus", "6 1; 1 0", "--evidence", "some"],
    ["--help"],
    ["survey", "--det", "1"],
    ["survey"],
]


def _exit_code(call, argv):
    try:
        return call(argv)
    except SystemExit as e:
        return e.code


def test_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # the shared parser answers each call of an interleaved sequence as a
    # fresh parser does, and main answers it as a fresh process does
    monkeypatch.setenv("COLUMNS", "80")  # help and usage text wrap at the terminal width
    monkeypatch.delenv("SOLGENUS_COLOR", raising=False)
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    alone = []
    for argv in _INTERLEAVED:
        done = subprocess.run([sys.executable, "-m", "solgenus", *argv], env=env, capture_output=True, text=True)
        alone.append((done.returncode, done.stdout, done.stderr))
    codes = [code for code, _, _ in alone]
    assert codes == [0, 0, 0, 0, 2, 0, 0, 0]

    for argv, expected in zip(_INTERLEAVED, alone):
        code = _exit_code(main, argv)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == expected, argv

        def parsed(parser):
            args = _exit_code(parser.parse_args, argv)
            capsys.readouterr()
            return args if isinstance(args, int) else vars(args)

        assert parsed(cli._PARSER) == parsed(cli.build_parser()), argv
