"""Command-line front end.

Subcommands:

* check-exceptional --algebra G2 --q 3   -- run the rationality check on a
  bundled record (G2/F4/E6/E7/E8); records may also be picked by --label.
* check-classical --family C --partition 3,3,2   -- same check on a classical
  nilpotent given by its Jordan partition; --v-zero forces v = 0.
* search-v --algebra G2 --q 3            -- small lattice search for a working v.
* verify-contragredient                  -- self-contragredience of the shifted
  module data (--algebra/--q, or --family/--partition).
* frobenius SYSTEM.json                  -- series solver; route picked from the
  file (log layers > contraction domain > bare recursion) unless forced.
* report [--all] [--format json|tsv] [--output PATH] -- every bundled record,
  one row each, with self-contragredience; deterministic byte-identical output.

Exit codes: 0 pass/ok, 2 mathematical fail (or search miss), 3 invalid
input/data (bad flags, illegal partitions, no bundled record, resonance),
4 I/O failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import frobenius as fr
from ._serde import rat_to_json
from .orbits import (
    EVEN_OR_EXTERNAL,
    ClassicalPartition,
    InvalidPartition,
    InvalidRecord,
    NotExceptionalType,
    UnknownRoot,
    build_classical,
    load_records,
    lookup_exceptional,
)
from .ratcheck import (
    NOT_FOUND,
    SearchConfig,
    check_classical,
    check_realized,
    check_record,
    realize_record,
    search_v,
    verdict_to_json,
    verify_self_contragredient,
    verify_self_contragredient_classical,
)
from .rootsys import IllegalType, SimpleType

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_BAD_INPUT = 3
EXIT_IO = 4


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _partition_label(partition: ClassicalPartition) -> str:
    parts = sorted(
        list(partition.pairs) * 2 + list(partition.singles), reverse=True
    )
    return f"{partition.family}[{','.join(str(p) for p in parts)}]"


def _algebra_label(partition: ClassicalPartition) -> str:
    """The simple type, e.g. "C3" for sp(6); so(3) = sp(2) = A1, so(6) = A3,
    and the non-simple so(1), so(2), so(4) get family and size: "so4"."""
    key = (partition.letter, partition.size // 2)
    try:
        return str(SimpleType(*key))
    except IllegalType:
        low = {("B", 1): "A1", ("C", 1): "A1", ("D", 3): "A3"}
        return low.get(key, f"{partition.family}{partition.size}")


def _parse_partition(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InvalidPartition(f"partition must be comma-separated integers: {text!r}")


_FAMILY_TO_SERIES = {"B": "so", "D": "so", "C": "sp", "so": "so", "sp": "sp"}


def _build_partition(family: str, text: str) -> ClassicalPartition:
    partition = ClassicalPartition.from_parts(
        _FAMILY_TO_SERIES[family], _parse_partition(text)
    )
    if family in ("B", "C", "D") and partition.letter != family:
        raise InvalidPartition(
            f"partition of {partition.size} is type {partition.letter}, not {family}"
        )
    return partition


def _find_record(algebra: str, q: int | None, label: str | None):
    """Resolve a bundled record by (algebra, q), by (algebra, label), or both."""
    st = SimpleType.parse(algebra)
    if q is None and label is None:
        raise IllegalType("need --q or --label to pick a record")
    if label is not None:
        for rec in load_records():
            if rec.algebra == st and rec.label == label:
                if q is not None and q not in rec.q:
                    raise IllegalType(
                        f"record {st} {label} belongs to q = {rec.q}, not {q}"
                    )
                return st, rec
        raise NotExceptionalType(f"no bundled record {st} with label {label!r}")
    return st, lookup_exceptional(st, q)


def _even_or_external(st: SimpleType, q: int | None) -> int:
    _emit({"algebra": str(st), "q": q, "status": "even-or-external"})
    return _fail(
        f"{st} at q = {q} is even or external: no bundled record", EXIT_BAD_INPUT
    )


def _cmd_check_exceptional(args) -> int:
    st, rec = _find_record(args.algebra, args.q, args.label)
    if rec is EVEN_OR_EXTERNAL:
        return _even_or_external(st, args.q)
    verdict = check_record(rec, args.method)
    d = verdict_to_json(str(st), rec.label, verdict)
    out = {"algebra": d["algebra"], "label": d["label"], "q": list(rec.q)}
    out.update({k: d[k] for k in ("status", "evidence", "fallbacks")})
    _emit(out)
    return EXIT_OK if verdict.status == "pass" else EXIT_FAIL


def _zero_v(real):
    return dataclasses.replace(real, v_diag=tuple([Fraction(0)] * real.size))


def _cmd_check_classical(args) -> int:
    partition = _build_partition(args.family, args.partition)
    real = build_classical(partition)
    if args.v_zero:
        real = _zero_v(real)
    verdict = check_classical(real)
    d = verdict_to_json(_algebra_label(partition), _partition_label(partition), verdict)
    _emit(d)
    return EXIT_OK if verdict.status == "pass" else EXIT_FAIL


def _cmd_search_v(args) -> int:
    st, rec = _find_record(args.algebra, args.q, args.label)
    if rec is EVEN_OR_EXTERNAL:
        return _even_or_external(st, args.q)
    table, grading, f, triple = realize_record(rec)
    config = SearchConfig(
        denominator_bound=args.denominator_bound,
        coefficient_bound=args.coefficient_bound,
    )
    v = search_v(table, grading, f, config, triple)
    base = {"algebra": str(st), "label": rec.label, "q": list(rec.q)}
    if v is NOT_FOUND:
        _emit({**base, "status": "not-found"})
        return EXIT_FAIL
    _emit({**base, "status": "found", "v": [str(p) for p in v.pairings]})
    return EXIT_OK


def _cmd_verify_contragredient(args) -> int:
    if args.family is not None:
        if args.partition is None:
            raise InvalidPartition("--family needs --partition")
        partition = _build_partition(args.family, args.partition)
        real = build_classical(partition)
        ok = verify_self_contragredient_classical(real)
        label = _partition_label(partition)
        algebra = _algebra_label(partition)
    else:
        if args.algebra is None:
            raise IllegalType("need --algebra/--q or --family/--partition")
        st, rec = _find_record(args.algebra, args.q, args.label)
        if rec is EVEN_OR_EXTERNAL:
            return _even_or_external(st, args.q)
        table, grading, f, _ = realize_record(rec)
        ok = verify_self_contragredient(table, grading, f)
        label = rec.label
        algebra = str(st)
    _emit({"algebra": algebra, "label": label, "self_contragredient": ok})
    return EXIT_OK if ok else EXIT_FAIL


def _series_json(series: fr.VectorSeries) -> list:
    return [[fr.poly_to_json(e) for e in vec] for vec in series.coeffs]


def _rat_str(x) -> str:
    return str(x) if isinstance(x, Fraction) else repr(x)


# exact residual weights: z0 = 0, epsilon = delta = 1 turns the majorant into
# the plain sum of absolute coefficient values
_RESIDUAL_DOMAIN = fr.DomainParams(Fraction(0), Fraction(1), Fraction(1))


def _cmd_frobenius(args) -> int:
    with open(args.system) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            return _fail(f"cannot parse system: {exc}", EXIT_BAD_INPUT)
    sysd = fr.system_from_json(obj)
    route = args.route
    if route == "auto":
        if sysd["exponents"] or isinstance(sysd["seeds"], dict):
            route = "log"
        elif sysd["domain"] is not None:
            route = "contraction"
        else:
            route = "recursion"
    if route == "log":
        if not isinstance(sysd["seeds"], dict):
            return _fail("log route needs seeds keyed as 'j:k'", EXIT_BAD_INPUT)
        sol = fr.log_system_solve(
            sysd["a"],
            sysd["exponents"],
            sysd["log_order"],
            sysd["seeds"],
            args.order,
            sysd["radius"],
        )
        _emit(
            {
                "route": "log",
                "exponents": [rat_to_json(h) for h in sol.exponents],
                "K": sol.log_order,
                "radius": rat_to_json(sol.radius),
                "layers": {
                    f"{j}:{k}": _series_json(series)
                    for (j, k), series in sorted(sol.layers.items())
                },
            }
        )
        return EXIT_OK
    if isinstance(sysd["seeds"], dict):
        return _fail("plain routes need a seed list, not 'j:k' layers", EXIT_BAD_INPUT)
    if route == "contraction":
        if sysd["domain"] is None:
            return _fail("contraction route needs a domain block", EXIT_BAD_INPUT)
        res = fr.contraction_solve(
            sysd["a"],
            sysd["f"],
            sysd["seeds"],
            sysd["domain"],
            args.order,
            iterations=args.iterate,
        )
        _emit(
            {
                "route": "contraction",
                "truncation": res.truncation,
                "ratio": _rat_str(res.ratio),
                "bound": _rat_str(res.bound),
                "distances": [_rat_str(d) for d in res.distances],
                "coefficients": _series_json(res.series),
            }
        )
        return EXIT_OK
    series = fr.recursion_solve(sysd["a"], sysd["f"], sysd["seeds"], args.order)
    residual = fr.residual_norm(sysd["a"], sysd["f"], series, _RESIDUAL_DOMAIN)
    _emit(
        {
            "route": "recursion",
            "residual": _rat_str(residual),
            "coefficients": _series_json(series),
        }
    )
    return EXIT_OK


def _report_rows():
    rows = []
    all_pass = True
    for rec in load_records():
        table, grading, f, triple = realize_record(rec)
        verdict = check_realized(table, grading, f, rec.v, "both", triple)
        if verdict.status != "pass":
            all_pass = False
        contra = verify_self_contragredient(table, grading, f)
        for q in rec.q:
            rows.append(
                ((rec.algebra.family, rec.algebra.rank, q), rec, q, verdict, contra)
            )
    rows.sort(key=lambda r: r[0])
    return [r[1:] for r in rows], all_pass


def _report_tsv(rows) -> str:
    lines = ["algebra\tlabel\tq\tstatus\tfallbacks"]
    for rec, q, verdict, _ in rows:
        distinct = sorted({w.eigenvalue for w in verdict.fallbacks})
        fb = ",".join(str(x) for x in distinct) if distinct else "-"
        lines.append(f"{rec.algebra}\t{rec.label}\t{q}\t{verdict.status}\t{fb}")
    return "\n".join(lines) + "\n"


def _report_json(rows) -> str:
    out = []
    for rec, q, verdict, contra in rows:
        d = verdict_to_json(str(rec.algebra), rec.label, verdict)
        d = {"algebra": d["algebra"], "label": d["label"], "q": q, **d}
        d["self_contragredient"] = contra
        out.append(d)
    return json.dumps({"rows": out}, indent=2) + "\n"


def _cmd_report(args) -> int:
    rows, all_pass = _report_rows()
    text = _report_tsv(rows) if args.format == "tsv" else _report_json(rows)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return EXIT_OK if all_pass else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the bad-input exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wrat", description="exact rationality checks and series solving"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_record_flags(p):
        p.add_argument("--algebra", required=True)
        p.add_argument("--q", type=int)
        p.add_argument("--label")

    p = sub.add_parser("check-exceptional", help="check a bundled record")
    add_record_flags(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", dest="method", action="store_const", const="exact")
    g.add_argument("--fast", dest="method", action="store_const", const="fast")
    g.add_argument("--both", dest="method", action="store_const", const="both")
    p.set_defaults(method="both", func=_cmd_check_exceptional)

    p = sub.add_parser("check-classical", help="check a classical partition")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_TO_SERIES))
    p.add_argument("--partition", required=True, help="comma-separated parts")
    p.add_argument("--v-zero", action="store_true", help="force v = 0")
    p.set_defaults(func=_cmd_check_classical)

    p = sub.add_parser("search-v", help="lattice search for a working v")
    add_record_flags(p)
    p.add_argument("--denominator-bound", type=_int_at_least(1), default=2)
    p.add_argument("--coefficient-bound", type=_int_at_least(1), default=4)
    p.set_defaults(func=_cmd_search_v)

    p = sub.add_parser(
        "verify-contragredient",
        help="self-contragredience (--algebra/--q or --family/--partition)",
    )
    p.add_argument("--algebra")
    p.add_argument("--q", type=int)
    p.add_argument("--label")
    p.add_argument("--family", choices=sorted(_FAMILY_TO_SERIES))
    p.add_argument("--partition")
    p.set_defaults(func=_cmd_verify_contragredient)

    p = sub.add_parser("frobenius", help="solve a series system from JSON")
    p.add_argument("system")
    p.add_argument(
        "--order", type=_int_at_least(1), default=16, help="series truncation order"
    )
    p.add_argument(
        "--iterate", type=_int_at_least(0), default=25, help="contraction iterations"
    )
    p.add_argument(
        "--route",
        choices=["auto", "recursion", "contraction", "log"],
        default="auto",
    )
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("report", help="verdict table over all bundled records")
    p.add_argument("--all", action="store_true", help="include every record (default)")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        IllegalType,
        NotExceptionalType,
        InvalidPartition,
        InvalidRecord,
        UnknownRoot,
        fr.InvalidSystem,
    ) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    except (ValueError, KeyError) as exc:
        # resonance and friends are data defects in the supplied system
        return _fail(str(exc), EXIT_BAD_INPUT)
    except RuntimeError as exc:
        # dual-route disagreement: a mathematical failure, not bad input
        return _fail(str(exc), EXIT_FAIL)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
