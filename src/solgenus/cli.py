"""Command-line front end: subcommand dispatch, argument parsing and rendering.

Output formats are byte-stable for fixed inputs and flags.  Integers whose
magnitude exceeds 2^53 - 1 are emitted as decimal strings in JSON so that
double-precision consumers never lose digits.

Environment: SOLGENUS_COLOR enables ANSI color in table output.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass
from itertools import combinations
from json.encoder import encode_basestring_ascii as _escape

from .conjugacy import are_conjugate_gl2z, modular_table
from .errors import SolgenusError
from .forms import EquivMode, class_set
from .genus import GenusReport, branch_of, canonical, genus, survey_rows
from .ideals import LMSet, lm_representatives
from .matrices import CharPoly, IntMat2, char_poly, geometry, matrix_order, parse_matrix, spectrum_class
from .orders import disc_from_int

_BIG = 2**53 - 1
_CONSTANTS = {None: "null", True: "true", False: "false"}


# ---------------------------------------------------------------------------
# JSON / CSV / table rendering
# ---------------------------------------------------------------------------


def _write_json(obj, parts: list[str], nl: str | None) -> None:
    """Append the JSON text of obj to parts, byte for byte as json.dumps writes it.

    nl is the newline and indent of obj's line in the indent=2 form, or None
    for the one-line form.  obj is a dict with str keys, a list, a tuple or a
    _KeyPairs, whose values are these or an int, a str, a bool or None,
    nested.  Integers with |n| > 2^53 - 1 are written as decimal strings.
    """
    t = type(obj)
    if t is _KeyPairs:
        _write_key_pairs(obj.h, parts, nl)
    elif t is dict or t is list or t is tuple:
        opening, closing = "{}" if t is dict else "[]"
        if not obj:
            parts.append(opening + closing)
            return
        append = parts.append
        inner = None if nl is None else nl + "  "
        sep = ", " if inner is None else "," + inner
        lead = opening if inner is None else opening + inner
        # scalars are written in place: most values of a report are, and a
        # call per value took as long as the rest of the writer
        for key, value in obj.items() if t is dict else ((None, value) for value in obj):
            if t is dict:
                lead += _escape(key) + ": "  # TypeError for a key that is not a str
            tv = type(value)
            if tv is int:
                append(lead + (str(value) if -_BIG <= value <= _BIG else f'"{value}"'))
            elif tv is str:
                append(lead + _escape(value))
            elif value is None or tv is bool:
                append(lead + _CONSTANTS[value])
            else:
                append(lead)
                _write_json(value, parts, inner)
            lead = sep
        append(closing if nl is None else nl + closing)
    else:
        raise TypeError(f"cannot render {t!r} as JSON")


@dataclass(frozen=True)
class _KeyPairs:
    """The ``fast`` pair list: {"i": i, "j": j, "gl2z_conjugate": false} for
    each pair i < j of h representatives with pairwise distinct class keys."""

    h: int


def _write_key_pairs(h: int, parts: list[str], nl: str | None) -> None:
    """Append the JSON text of _KeyPairs(h), byte for byte as _write_json writes the dict list."""
    if h < 2:
        parts.append("[]")
        return
    row = '{"i": %d, "j": %d, "gl2z_conjugate": false}'
    lead, sep, end = "[", ", ", "]"
    if nl is not None:
        inner, key = nl + "  ", nl + "    "
        row = "{" + key + '"i": %d,' + key + '"j": %d,' + key + '"gl2z_conjugate": false' + inner + "}"
        lead, sep, end = "[" + inner, "," + inner, nl + "]"
    parts.append(lead + sep.join(map(row.__mod__, combinations(range(h), 2))) + end)


def _mat(m: IntMat2) -> list[list[int]]:
    return [[m.a, m.b], [m.c, m.d]]


def render_json(report: dict) -> str:
    parts: list[str] = []
    _write_json(report, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _compact(value) -> str:
    if isinstance(value, (dict, list, tuple, _KeyPairs)):
        parts: list[str] = []
        _write_json(value, parts, None)
        return "".join(parts)
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_table(report: dict) -> str:
    width = max(len(k) for k in report)
    lines = []
    for k, v in report.items():
        val = _compact(v)
        if os.environ.get("SOLGENUS_COLOR") and k in ("genus", "rigid"):
            val = f"\x1b[32m{val}\x1b[0m"
        lines.append(f"{k:<{width}}  {val}")
    return "\n".join(lines) + "\n"


def render_rows_csv(rows: list[list], fields: list[str]) -> str:
    """CSV text of rows whose values are in the order of fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(map(_compact, row))
    return buf.getvalue()


def render_rows_table(rows: list[list], fields: list[str]) -> str:
    """Aligned text table of rows whose values are in the order of fields."""
    cells = [list(map(_compact, r)) for r in rows]
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
        canonical = {"target": _mat(r.canonical.B), "conjugator": _mat(r.canonical.P)}
    evidence = None
    if r.evidence is not None:
        # distinct class keys: no pair of representatives is conjugate
        h = len(r.evidence.keys)
        pairs = _KeyPairs(h)
        if r.evidence.pairs:  # full: the scans of each pair go into its record
            pairs = [{"i": i, "j": j, "gl2z_conjugate": False} for i, j in combinations(range(h), 2)]
            for entry, pe in zip(pairs, r.evidence.pairs):
                entry["exhaustive_scan"] = {"bound": pe.brute.bound, "witness_found": pe.brute.witness is not None}
                entry["mod_m"] = {
                    "m_max": pe.modular.m_max,
                    "verdict": pe.modular.verdict,
                    "witnesses": [{"m": m, "P": None if w is None else _mat(w.P)} for m, w in pe.modular.levels],
                }
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
        if args.trace is not None or args.det is not None:
            raise SolgenusError("provide a matrix or --trace and --det, not both")
        p = char_poly(parse_matrix(args.matrix))
    elif args.trace is not None and args.det is not None:
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
    if args.m is None and args.mmax < 2:
        raise ValueError("mmax must be at least 2")
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
    mode = EquivMode(args.mode)
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
    c = canonical(m)
    note = None
    if c is None:
        note = (
            "not conjugate to any enumerated representative: the fixed lattice "
            "is a module over a strictly larger order (conductor > 1 case)"
        )
    report = {
        "matrix": _mat(m),
        "branch": branch_of(char_poly(m)).value,
        "target": None if c is None else _mat(c.B),
        "conjugator": None if c is None else _mat(c.P),
        "verified": c is not None and c.P * m == c.B * c.P,
        "note": note,
    }
    return render(report, args.format)


# ---------------------------------------------------------------------------
# Survey
# ---------------------------------------------------------------------------

SURVEY_FIELDS = ["t", "n", "D", "D0", "f", "geometry", "branch", "h_field", "h_order", "genus", "rigid"]


def _cmd_survey(args) -> str:
    rows = [
        [r.char.t, r.char.n, r.disc.D, r.disc.D0, r.disc.f, r.geometry.value, r.branch.value,
         r.h_field, r.h_order, r.genus, r.rigid]
        for r in survey_rows(args.tmax, args.det)
    ]
    if args.format == "csv":
        return render_rows_csv(rows, SURVEY_FIELDS)
    if args.format == "table":
        return render_rows_table(rows, SURVEY_FIELDS)
    return render_json({"tmax": args.tmax, "det": args.det, "rows": [dict(zip(SURVEY_FIELDS, r)) for r in rows]})


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
# built once per process: parse_args leaves the parser as it was
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        out = _DISPATCH[args.command](args)
    except (SolgenusError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
