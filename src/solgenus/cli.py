"""Command-line front end: subcommand dispatch, rendering, and batch survey.

Output formats are byte-stable for fixed inputs and flags.  Integers whose
magnitude exceeds 2^53 - 1 are emitted as decimal strings in JSON so that
double-precision consumers never lose digits.

Environment: SOLGENUS_COLOR enables ANSI color in table output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .conjugacy import are_conjugate_gl2z, canonical_form, class_key, modular_table
from .errors import SolgenusError
from .forms import EquivMode, class_set
from .genus import GenusReport, TheoremBranch, branch_of, genus, survey_rows
from .ideals import LMSet, lm_representatives
from .matrices import CharPoly, IntMat2, char_poly, geometry, matrix_order, parse_matrix, spectrum_class
from .orders import disc_from_int

_BIG = 2**53 - 1


# ---------------------------------------------------------------------------
# JSON / CSV / table rendering
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot render {type(obj)!r} as JSON")


def _mat(m: IntMat2) -> list[list[int]]:
    return [[m.a, m.b], [m.c, m.d]]


def render_json(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2) + "\n"


def _compact(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(_jsonable(value))
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _color_enabled() -> bool:
    return bool(os.environ.get("SOLGENUS_COLOR"))


def render_table(report: dict) -> str:
    width = max(len(k) for k in report)
    lines = []
    for k, v in report.items():
        val = _compact(v)
        if _color_enabled() and k in ("genus", "rigid"):
            val = f"\x1b[32m{val}\x1b[0m"
        lines.append(f"{k:<{width}}  {val}")
    return "\n".join(lines) + "\n"


def render_rows_csv(rows: list[dict], fields: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_compact(row[f]) for f in fields])
    return buf.getvalue()


def render_rows_table(rows: list[dict], fields: list[str]) -> str:
    cells = [[_compact(r[f]) for f in fields] for r in rows]
    widths = [max(len(f), *(len(c[i]) for c in cells)) if cells else len(f) for i, f in enumerate(fields)]
    out = ["  ".join(f"{f:<{w}}" for f, w in zip(fields, widths))]
    for c in cells:
        out.append("  ".join(f"{x:<{w}}" for x, w in zip(c, widths)))
    return "\n".join(out) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "table":
        return render_table(report)
    raise SolgenusError(f"unsupported format {fmt!r}")


# ---------------------------------------------------------------------------
# Report builders
# ---------------------------------------------------------------------------


def _representatives(reps: LMSet) -> list[dict]:
    return [{"matrix": _mat(m), "form": list(f.triple())} for m, f in zip(reps.reps, reps.forms)]


def genus_report_dict(r: GenusReport) -> dict:
    reps = None
    if r.representatives is not None:
        reps = _representatives(r.representatives)
        if not reps:
            raise SolgenusError("a genus report must carry at least one representative")
    canonical = None
    if r.canonical is not None:
        canonical = {"target": _mat(r.canonical.target), "conjugator": _mat(r.canonical.conjugator)}
    evidence = None
    if r.evidence is not None:
        pairs = []
        for pe in r.evidence.pairs:
            entry: dict = {"i": pe.i, "j": pe.j, "gl2z_conjugate": pe.gl2z_witness is not None}
            if pe.brute is not None:
                entry["exhaustive_scan"] = {
                    "bound": pe.brute.bound,
                    "witness_found": pe.brute.witness is not None,
                }
            if pe.modular is not None:
                entry["mod_m"] = {
                    "m_max": pe.modular.m_max,
                    "verdict": pe.modular.verdict,
                    "witnesses": [
                        {"m": m, "P": None if w is None else _mat(w.P)} for m, w in pe.modular.levels
                    ],
                }
            pairs.append(entry)
        evidence = {"level": r.evidence.level, "pairs": pairs}
    return {
        "matrix": _mat(r.matrix),
        "trace": r.char.t,
        "det": r.char.n,
        "geometry": r.geometry.value,
        "branch": r.branch.value,
        "D": r.char.disc,
        "D0": None if r.disc is None else r.disc.D0,
        "conductor": None if r.disc is None else r.disc.f,
        "d": None if r.disc is None else r.disc.d,
        "h_field": r.h_field,
        "h_order": r.h_order,
        "genus": r.genus,
        "discrepancy": r.discrepancy,
        "rigid": r.rigid,
        "presentation": r.presentation,
        "representatives": reps,
        "canonical": canonical,
        "evidence": evidence,
    }


def _cmd_genus(args) -> str:
    m = parse_matrix(args.matrix)
    return render(genus_report_dict(genus(m, args.evidence)), args.format)


def _cmd_classify(args) -> str:
    m = parse_matrix(args.matrix)
    p = char_poly(m)
    order = matrix_order(m)
    report = {
        "matrix": _mat(m),
        "trace": p.t,
        "det": p.n,
        "D": p.disc,
        "spectrum": spectrum_class(p).value,
        "geometry": geometry(m).value,
        "order": "infinite" if order is None else order,
        "branch": branch_of(p).value,
    }
    return render(report, args.format)


def _cmd_enumerate(args) -> str:
    if args.matrix is not None:
        p = char_poly(parse_matrix(args.matrix))
    elif args.trace is not None and args.det is not None:
        if args.det not in (1, -1):
            raise SolgenusError("determinant must be 1 or -1")
        p = CharPoly(args.trace, args.det)
    else:
        raise SolgenusError("provide a matrix or both --trace and --det")
    reps = lm_representatives(p)
    od = reps.disc
    report = {
        "trace": p.t,
        "det": p.n,
        "D": od.D,
        "D0": od.D0,
        "conductor": od.f,
        "count": reps.count,
        "representatives": _representatives(reps),
    }
    return render(report, args.format)


def _cmd_conj(args) -> str:
    a = parse_matrix(args.matrix_a)
    b = parse_matrix(args.matrix_b)
    w = are_conjugate_gl2z(a, b)  # None for unequal characteristic polynomials
    report = {
        "matrix_a": _mat(a),
        "matrix_b": _mat(b),
        "conjugate": w is not None,
        "witness": None if w is None else _mat(w.P),
        "reason": None if char_poly(a) == char_poly(b) else "characteristic polynomials differ",
    }
    return render(report, args.format)


def _cmd_conj_mod(args) -> str:
    a = parse_matrix(args.matrix_a)
    b = parse_matrix(args.matrix_b)
    moduli = [args.m] if args.m is not None else range(2, args.mmax + 1)
    table = modular_table(a, b, moduli)
    report = {
        "matrix_a": _mat(a),
        "matrix_b": _mat(b),
        "levels": [{"m": m, "witness": None if w is None else _mat(w.P)} for m, w in table.levels],
        "all_witnessed": table.consistent,
        "first_failure": table.refuted_at,
    }
    return render(report, args.format)


def _cmd_classnumber(args) -> str:
    od = disc_from_int(args.D)
    mode = EquivMode.PROPER if args.mode == "proper" else EquivMode.IMPROPER
    cs = class_set(od, mode)
    report = {
        "D": od.D,
        "D0": od.D0,
        "f": od.f,
        "mode": mode.value,
        "h": cs.count,
        "reps": [list(f.triple()) for f in cs.reps],
    }
    return render(report, args.format)


def _cmd_canonical(args) -> str:
    m = parse_matrix(args.matrix)
    p = char_poly(m)
    branch = branch_of(p)
    target = conjugator = note = None
    if branch is TheoremBranch.MAIN_QUADRATIC:
        reps = lm_representatives(p)
        classes = class_set(reps.disc)
        key = class_key(m, classes)
        target = next((r for r in reps.reps if class_key(r, classes) == key), None)
        if target is not None:
            w = are_conjugate_gl2z(m, target)
            if w is None:
                raise SolgenusError(f"{target} shares the class key of the input but no conjugator")
            conjugator = w.P
        else:
            note = (
                "not conjugate to any enumerated representative: the fixed lattice "
                "is a module over a strictly larger order (conductor > 1 case)"
            )
    else:
        target, conjugator = canonical_form(m)
    verified = conjugator is not None and (conjugator * m == target * conjugator)
    report = {
        "matrix": _mat(m),
        "branch": branch.value,
        "target": None if target is None else _mat(target),
        "conjugator": None if conjugator is None else _mat(conjugator),
        "verified": verified,
        "note": note,
    }
    return render(report, args.format)


# ---------------------------------------------------------------------------
# Survey
# ---------------------------------------------------------------------------

SURVEY_FIELDS = ["t", "n", "D", "D0", "f", "geometry", "branch", "h_field", "h_order", "genus", "rigid"]


def _cmd_survey(args) -> str:
    rows = [{f: getattr(r, f) for f in SURVEY_FIELDS} for r in survey_rows(args.tmax, args.det)]
    if args.format == "csv":
        return render_rows_csv(rows, SURVEY_FIELDS)
    if args.format == "table":
        return render_rows_table(rows, SURVEY_FIELDS)
    return render_json({"tmax": args.tmax, "det": args.det, "rows": rows})


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

_MATRIX_HELP = 'matrix as "a b; c d" (commas optional) or JSON [[a,b],[c,d]]'
_LIMITS = (
    "Discriminants are factored by trial division, so |D| > 1e12 is refused "
    "(exit 1); class enumeration takes under 1 s to about |D| ~ 2e9 (D > 0) "
    "and 5e10 (D < 0), and under 10 s to about 1e11 (D > 0)."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solgenus",
        description="Profinite genus of torus-bundle groups (Z x Z) x| Z and the "
        "class-number machinery behind it. " + _LIMITS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", help="genus report for a monodromy matrix")
    p.add_argument("matrix", help=_MATRIX_HELP)
    p.add_argument("--evidence", choices=["none", "fast", "full"], default="fast")
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("classify", help="spectrum, geometry, and order of a matrix")
    p.add_argument("matrix", help=_MATRIX_HELP)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("enumerate", help="one matrix per conjugacy class for a char polynomial")
    p.add_argument("matrix", nargs="?", default=None, help=_MATRIX_HELP)
    p.add_argument("--trace", type=int, default=None)
    p.add_argument("--det", type=int, default=None, choices=[1, -1])
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("conj", help="decide GL2(Z) conjugacy of two matrices")
    p.add_argument("matrix_a", help=_MATRIX_HELP)
    p.add_argument("matrix_b", help=_MATRIX_HELP)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("conj-mod", help="GL2(Z/m) conjugacy witnesses for one m or a range")
    p.add_argument("matrix_a", help=_MATRIX_HELP)
    p.add_argument("matrix_b", help=_MATRIX_HELP)
    p.add_argument("--m", type=int, default=None, help="single modulus (default: range 2..mmax)")
    p.add_argument("--mmax", type=int, default=30)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("classnumber", help="form classes of a discriminant. " + _LIMITS)
    p.add_argument("D", type=int)
    p.add_argument("--mode", choices=["proper", "improper"], default="improper")
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("canonical", help="canonical target and verified conjugator")
    p.add_argument("matrix", help=_MATRIX_HELP)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("survey", help="class-number sweep over (trace, det) cells")
    p.add_argument("--tmax", type=int, default=10)
    p.add_argument("--det", choices=["both", "1", "-1"], default="both")
    p.add_argument("--format", choices=["csv", "json", "table"], default="csv")
    return parser


_DISPATCH = {
    "genus": _cmd_genus,
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
    "conj": _cmd_conj,
    "conj-mod": _cmd_conj_mod,
    "classnumber": _cmd_classnumber,
    "canonical": _cmd_canonical,
    "survey": _cmd_survey,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = _DISPATCH[args.command](args)
    except (SolgenusError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
