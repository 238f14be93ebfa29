"""Command-line front end.

Subcommands:

* ``cohomology``: bigraded cohomology dimensions of a model.
* ``euler``: weightwise Euler characteristic series of a model.
* ``series``: the closed-form generating functions.
* ``invariants``: cohomology of a subgroup-invariant (or isotypic)
  subcomplex.
* ``table1``: run the four reference columns side by side and diff them
  against the embedded expected values; exit 0 iff all 44 entries match.
* ``verify``: d^2 = 0 and d(ideal)-in-ideal report for a model.

Every command validates its inputs before computing, emits deterministic
output (byte-identical across runs), and supports
``--format table|json|csv``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .algebra import AlgebraError
from .analysis import (BigradedSeries, all_permutations,
                       generated_subgroup, invariant_cohomology,
                       isotypic_cohomology, p_r_closed_form,
                       poincare_series_U, r1_stable_series, rho_series,
                       sign_character, weightwise_euler)
from .engine import CohomologyTable, cohomology, verify_d_squared
from .models import (Custom, build_base, configuration_model,
                     cotangent_chern, parse_ample_class, parse_space,
                     section_model, twisted_section_model)

SCHEMA_VERSION = 1

# Expected reference values: H^i for i = 0..10 of the four benchmark
# models (genus-1 surface written S1; the product space uses c = [1:1]).
TABLE1_JOBS = [
    ("P2", 2, "1", (1, 1, 2, 3, 1, 4, 5, 3, 4, 4, 6)),
    ("S1", 2, "1", (1, 5, 15, 29, 47, 69, 94, 122, 153, 187, 224)),
    ("P1xP1", 2, "[1:1]", (1, 1, 4, 6, 5, 16, 14, 12, 28, 18, 15)),
    ("P2", 3, "1", (1, 1, 3, 4, 1, 9, 12, 7, 15, 21, 22)),
]


def _build_model(args):
    spec = parse_space(args.space)
    base = build_base(spec)
    kind = getattr(args, "model", "A") or "A"
    r = _marked_points(args)
    if kind == "C":
        return configuration_model(base, r)
    if kind == "AL":
        if args.d is None:
            raise AlgebraError("--d is required for the twisted model")
        if isinstance(spec, Custom):
            raise AlgebraError(
                "twisted models need cotangent data; custom spaces are "
                "not supported here")
        chern = cotangent_chern(spec)
        return twisted_section_model(base, chern, args.d, r)
    c = parse_ample_class(base, args.c or "1")
    return section_model(base, c, r)


def _marked_points(args) -> int:
    if args.r is None:
        raise AlgebraError("--r is required for this command")
    if args.r < 1:
        raise AlgebraError(f"--r must be >= 1, got {args.r}")
    return args.r


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _table_payload(table: CohomologyTable, command: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "model": {str(k): str(v) for k, v in table.model.items()},
        "weights_convention": "generator weights: G,alpha 2n; eta 2n+2; "
                              "shifted class of degree-i base class i+2",
        "computed_range": {"max_degree": table.max_degree, "by_weight": True},
        "result": {
            "dims": table.dims(),
            "entries": [[d, k, v] for d, k, v in table.rows()],
        },
    }


def _print_cohomology(table: CohomologyTable, args) -> None:
    if args.format == "json":
        _emit_json(_table_payload(table, "cohomology"))
        return
    if args.format == "csv":
        print("degree,weight,dim")
        for d, k, v in table.rows():
            print(f"{d},{k},{v}")
        return
    print(f"model: {table.model.get('name')}")
    if args.by_weight:
        print(f"{'i':>3}  {'dim':>5}  weights")
        for i in range(table.max_degree + 1):
            parts = " ".join(f"{k}:{table.dim(i, k)}"
                             for k in table.weights_at(i))
            print(f"{i:>3}  {table.dim(i):>5}  {parts}")
    else:
        print(f"{'i':>3}  {'dim':>5}")
        for i in range(table.max_degree + 1):
            print(f"{i:>3}  {table.dim(i):>5}")


def _print_series(series: BigradedSeries, args, command: str,
                  meta: Optional[dict] = None) -> None:
    if args.format == "json":
        _emit_json({
            "schema": SCHEMA_VERSION,
            "command": command,
            "model": {str(k): str(v) for k, v in (meta or {}).items()},
            "computed_range": {"truncation": series.truncation,
                               "variable": series.variable},
            "result": {"coefficients": series.coefficients()},
        })
        return
    if args.format == "csv":
        print("exponent,coefficient")
        for k in range(series.truncation + 1):
            print(f"{k},{series.coefficient(k)}")
        return
    if meta:
        print("model: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    print(series if series.coeffs else "0")


def _auto_verify(model, max_degree: int) -> None:
    report = verify_d_squared(model, max(0, max_degree - 1))
    if not report.ok:
        raise VerificationFailure(report.message())


class VerificationFailure(RuntimeError):
    pass


def cmd_cohomology(args) -> int:
    model = _build_model(args)
    _auto_verify(model, args.max_degree)
    table = cohomology(model, args.max_degree)
    _print_cohomology(table, args)
    return 0


def cmd_euler(args) -> int:
    model = _build_model(args)
    series = weightwise_euler(model, args.w_max)
    _print_series(series, args, "euler", {"name": model.name})
    return 0


def cmd_series(args) -> int:
    base = build_base(parse_space(args.space))
    kind = args.kind
    if kind == "pu-weight":
        series = poincare_series_U(base, args.max, "w")
    elif kind == "pu-degree":
        series = poincare_series_U(base, args.max, "t")
    elif kind == "pr":
        if args.r is None:
            raise AlgebraError("--r is required for the pr series")
        series = p_r_closed_form(base, args.r, args.max)
    elif kind == "rho":
        series = rho_series(base, args.max)
    elif kind == "r1":
        series = r1_stable_series(base, args.max)
    else:
        raise AlgebraError(f"unknown series kind {kind!r}")
    _print_series(series, args, "series",
                  {"space": base.name, "kind": kind})
    return 0


def _parse_subgroup(text: str, r: int):
    s = text.strip().lower()
    if s == "full":
        return all_permutations(r)
    if s == "trivial":
        return [tuple(range(r))]
    gens = []
    for word in s.split(","):
        word = word.strip()
        # '.' separates images that need more than one digit (r >= 10)
        parts = word.split(".") if "." in word else list(word)
        if len(parts) != r or not all(x.isdecimal() for x in parts):
            raise AlgebraError(
                f"subgroup word {word!r} must list the images of 1..{r} "
                f"as {r} digits or as {r} numbers separated by '.', e.g. "
                f"'21' or '2.1' for the swap")
        images = tuple(int(x) - 1 for x in parts)
        if sorted(images) != list(range(r)):
            raise AlgebraError(
                f"subgroup word {word!r} is not a permutation of 1..{r}")
        gens.append(images)
    return generated_subgroup(gens, r)


def cmd_invariants(args) -> int:
    subgroup = _parse_subgroup(args.subgroup, _marked_points(args))
    model = _build_model(args)
    _auto_verify(model, args.max_degree)
    if args.character == "sign":
        table = isotypic_cohomology(model, subgroup, sign_character(args.r),
                                    args.max_degree)
    else:
        table = invariant_cohomology(model, subgroup, args.max_degree)
    if args.format == "json":
        payload = _table_payload(table, "invariants")
        payload["model"]["character"] = args.character
        _emit_json(payload)
    else:
        _print_cohomology(table, args)
    return 0


def cmd_table1(args) -> int:
    results = []
    for space, r, c_str, expected in TABLE1_JOBS:
        base = build_base(parse_space(space))
        model = section_model(base, parse_ample_class(base, c_str), r)
        _auto_verify(model, 10)
        table = cohomology(model, 10)
        results.append((space, r, c_str, expected, table.dims()))
    mismatches = []
    for space, r, c_str, expected, got in results:
        for i, (e, g) in enumerate(zip(expected, got)):
            if e != g:
                mismatches.append((space, r, i, e, g))
    if args.format == "json":
        _emit_json({
            "schema": SCHEMA_VERSION,
            "command": "table1",
            "result": {
                "columns": [
                    {"space": s, "r": r, "c": c,
                     "expected": list(e), "computed": list(g)}
                    for s, r, c, e, g in results],
                "mismatches": [list(m) for m in mismatches],
                "ok": not mismatches,
            },
        })
    else:
        headers = [f"{s},r={r}" + (f",c={c}" if "x" in s else "")
                   for s, r, c, _, _ in results]
        width = max(len(h) for h in headers) + 2
        print("  i" + "".join(h.rjust(width) for h in headers))
        for i in range(11):
            row = f"{i:>3}"
            for _, _, _, expected, got in results:
                cell = str(got[i])
                if got[i] != expected[i]:
                    cell += f"!={expected[i]}"
                row += cell.rjust(width)
            print(row)
        if mismatches:
            print(f"MISMATCH: {len(mismatches)} of 44 entries differ")
        else:
            print("all 44 entries match")
    return 1 if mismatches else 0


def cmd_verify(args) -> int:
    model = _build_model(args)
    report = verify_d_squared(model, args.max_degree)
    print(f"model: {model.name}")
    print(report.message())
    return 0 if report.ok else 1


def _add_common(sub, with_r=True, with_c=True):
    sub.add_argument("--space", required=True,
                     help="P<n>, S<g>, products like P1xP1, or custom:<path>")
    if with_r:
        sub.add_argument("--r", type=int, help="number of marked points")
    if with_c:
        sub.add_argument("--c", help="degree-2 class: '1' or '[p:q]'")
    sub.add_argument("--model", choices=["A", "C", "AL"], default="A",
                     help="A: section model (default); C: configuration "
                          "model; AL: twisted section model (needs --d)")
    sub.add_argument("--d", type=int, help="twist exponent for --model AL")
    sub.add_argument("--format", choices=["table", "json", "csv"],
                     default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdgacalc",
        description="Exact bigraded cohomology of configuration-space and "
                    "section-space CDGA models over Q.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("cohomology", help="bigraded cohomology dimensions")
    _add_common(s)
    s.add_argument("--max-degree", type=int, required=True)
    s.add_argument("--by-weight", action="store_true",
                   help="show the weight refinement")
    s.set_defaults(func=cmd_cohomology)

    s = subs.add_parser("euler", help="weightwise Euler characteristic")
    _add_common(s)
    s.add_argument("--w-max", type=int, required=True)
    s.set_defaults(func=cmd_euler)

    s = subs.add_parser("series", help="closed-form generating functions")
    s.add_argument("--space", required=True)
    s.add_argument("--r", type=int)
    s.add_argument("--kind", required=True,
                   choices=["pu-weight", "pu-degree", "pr", "rho", "r1"])
    s.add_argument("--max", type=int, required=True, help="truncation")
    s.add_argument("--format", choices=["table", "json", "csv"],
                   default="table")
    s.set_defaults(func=cmd_series)

    s = subs.add_parser("invariants",
                        help="subgroup-invariant or isotypic cohomology")
    _add_common(s)
    s.add_argument("--max-degree", type=int, required=True)
    s.add_argument("--subgroup", default="full",
                   help="'full', 'trivial', or comma-separated one-line "
                        "words such as '21' or '231,213'; for r >= 10 "
                        "separate the images by '.', as in '2.1.3.4.5.6."
                        "7.8.9.10'")
    s.add_argument("--character", choices=["trivial", "sign"],
                   default="trivial")
    s.add_argument("--by-weight", action="store_true")
    s.set_defaults(func=cmd_invariants)

    s = subs.add_parser("table1", help="reproduce the reference table")
    s.add_argument("--format", choices=["table", "json"], default="table")
    s.set_defaults(func=cmd_table1)

    s = subs.add_parser("verify", help="d^2 and ideal-stability report")
    _add_common(s)
    s.add_argument("--max-degree", type=int, required=True)
    s.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except VerificationFailure as err:
        print(f"cdgacalc: verification failed: {_one_line(err)}",
              file=sys.stderr)
        return 1
    except (AlgebraError, OSError) as err:
        print(f"cdgacalc: error: {_one_line(err)}", file=sys.stderr)
        return 2


def _attach_dash_values(argv) -> list[str]:
    """Write ``--c -1/2`` as ``--c=-1/2``.

    argparse takes a separate value that starts with '-' and is not a
    plain number, such as -1/2, for an unknown option.
    """
    out = list(argv)
    for i in range(len(out) - 1, 0, -1):
        if out[i - 1] == "--c" and out[i][:1] == "-" and out[i][:2] != "--":
            out[i - 1:i + 1] = [f"--c={out[i]}"]
    return out


def _one_line(err: Exception) -> str:
    # messages may quote labels from input files, which can hold newlines
    return " ".join(str(err).splitlines())


if __name__ == "__main__":
    sys.exit(main())
