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

Exit codes: 0 pass/ok, 2 mathematical fail (or search miss, or
`ratcheck.RoutesDisagree`), 3 invalid input/data (bad flags, illegal
partitions, no bundled record, resonance), 4 I/O failure.

`run` is the program entry (`python -m wrat.cli`, the `wrat` script);
`main(argv)` is the in-process one, for tests and library callers.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import classical, frobenius as fr, orbits, ratcheck, rootsys, slots
from ._serde import json_text, rat_to_json

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_BAD_INPUT = 3
EXIT_IO = 4


def _emit(obj: dict) -> None:
    print(json_text(obj))


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _partition_label(partition: classical.ClassicalPartition) -> str:
    parts = sorted(
        list(partition.pairs) * 2 + list(partition.singles), reverse=True
    )
    return f"{partition.family}[{','.join(str(p) for p in parts)}]"


def _algebra_label(partition: classical.ClassicalPartition) -> str:
    """The simple type, e.g. "C3" for sp(6), from the least ranks of the
    classical types (B2, C2, D4); below them so(3) = sp(2) = A1,
    so(6) = A3, and the non-simple so(1), so(2), so(4) get family and size:
    "so4"."""
    letter, rank = partition.letter, partition.size // 2
    if rank >= (4 if letter == "D" else 2):
        return f"{letter}{rank}"
    low = {("B", 1): "A1", ("C", 1): "A1", ("D", 3): "A3"}
    return low.get((letter, rank), f"{partition.family}{partition.size}")


def _parse_partition(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise classical.InvalidPartition(
            f"partition must be comma-separated integers: {text!r}"
        )


_FAMILY_TO_SERIES = {"B": "so", "D": "so", "C": "sp", "so": "so", "sp": "sp"}


def _build_partition(family: str, text: str) -> classical.ClassicalPartition:
    partition = classical.ClassicalPartition.from_parts(
        _FAMILY_TO_SERIES[family], _parse_partition(text)
    )
    if family in ("B", "C", "D") and partition.letter != family:
        raise classical.InvalidPartition(
            f"partition of {partition.size} is type {partition.letter}, not {family}"
        )
    return partition


def _find_record(algebra: str, q: int | None, label: str | None):
    """Resolve a bundled record by (algebra, q), by (algebra, label), or both."""
    st = rootsys.SimpleType.parse(algebra)
    if q is None and label is None:
        raise rootsys.IllegalType("need --q or --label to pick a record")
    if label is not None:
        for rec in orbits.load_records():
            if rec.algebra == st and rec.label == label:
                if q is not None and q not in rec.q:
                    raise rootsys.IllegalType(
                        f"record {st} {label} belongs to q = {rec.q}, not {q}"
                    )
                return st, rec
        raise orbits.NotExceptionalType(f"no bundled record {st} with label {label!r}")
    return st, orbits.lookup_exceptional(st, q)


def _even_or_external(st: rootsys.SimpleType, q: int | None) -> int:
    _emit({"algebra": str(st), "q": q, "status": "even-or-external"})
    return _fail(
        f"{st} at q = {q} is even or external: no bundled record", EXIT_BAD_INPUT
    )


def _cmd_check_exceptional(args) -> int:
    st, rec = _find_record(args.algebra, args.q, args.label)
    if rec is orbits.EVEN_OR_EXTERNAL:
        return _even_or_external(st, args.q)
    verdict = ratcheck.check_record(rec, args.method)
    d = slots.verdict_to_json(str(st), rec.label, verdict)
    out = {"algebra": d["algebra"], "label": d["label"], "q": list(rec.q)}
    out.update({k: d[k] for k in ("status", "evidence", "fallbacks")})
    _emit(out)
    return EXIT_OK if verdict.status == "pass" else EXIT_FAIL


def _cmd_check_classical(args) -> int:
    partition = _build_partition(args.family, args.partition)
    real = classical.build_classical(partition)
    if args.v_zero:
        real = real._replace(v_diag=(Fraction(0),) * real.size)
    verdict = classical.check_classical(real)
    _emit(
        slots.verdict_to_json(
            _algebra_label(partition), _partition_label(partition), verdict
        )
    )
    return EXIT_OK if verdict.status == "pass" else EXIT_FAIL


def _cmd_search_v(args) -> int:
    st, rec = _find_record(args.algebra, args.q, args.label)
    if rec is orbits.EVEN_OR_EXTERNAL:
        return _even_or_external(st, args.q)
    table, grading, f, triple = ratcheck.realize_record(rec)
    config = ratcheck.SearchConfig(
        denominator_bound=args.denominator_bound,
        coefficient_bound=args.coefficient_bound,
    )
    v = ratcheck.search_v(table, grading, f, config, triple)
    base = {"algebra": str(st), "label": rec.label, "q": list(rec.q)}
    if v is ratcheck.NOT_FOUND:
        _emit({**base, "status": "not-found"})
        return EXIT_FAIL
    _emit({**base, "status": "found", "v": [str(p) for p in v.pairings]})
    return EXIT_OK


def _cmd_verify_contragredient(args) -> int:
    if args.family is not None:
        if args.partition is None:
            raise classical.InvalidPartition("--family needs --partition")
        partition = _build_partition(args.family, args.partition)
        real = classical.build_classical(partition)
        ok = classical.verify_self_contragredient_classical(real)
        label = _partition_label(partition)
        algebra = _algebra_label(partition)
    else:
        if args.algebra is None:
            raise rootsys.IllegalType("need --algebra/--q or --family/--partition")
        st, rec = _find_record(args.algebra, args.q, args.label)
        if rec is orbits.EVEN_OR_EXTERNAL:
            return _even_or_external(st, args.q)
        table, grading, f, triple = ratcheck.realize_record(rec)
        ok = ratcheck.verify_self_contragredient(table, grading, f, triple)
        label = rec.label
        algebra = str(st)
    _emit({"algebra": algebra, "label": label, "self_contragredient": ok})
    return EXIT_OK if ok else EXIT_FAIL


def _series_json(series: fr.VectorSeries) -> list:
    """The coefficients of series, each Form written by `poly_to_json`."""
    return [[fr.poly_to_json(x) for x in vec] for vec in series.forms]


def _cmd_frobenius(args) -> int:
    import json  # the one subcommand that reads JSON; output is `json_text`

    with open(args.system) as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
                "ratio": str(res.ratio),
                "bound": str(res.bound),
                "distances": [str(d) for d in res.distances],
                "coefficients": _series_json(res.series),
            }
        )
        return EXIT_OK
    series = fr.recursion_solve(sysd["a"], sysd["f"], sysd["seeds"], args.order)
    # exact residual weights: z0 = 0, epsilon = delta = 1 turns the majorant
    # into the plain sum of absolute coefficient values
    unit = fr.DomainParams(Fraction(0), Fraction(1), Fraction(1))
    residual = fr.residual_norm(sysd["a"], sysd["f"], series, unit)
    _emit(
        {
            "route": "recursion",
            "residual": str(residual),
            "coefficients": _series_json(series),
        }
    )
    return EXIT_OK


def _report_rows():
    rows = []
    all_pass = True
    for rec in orbits.load_records():
        table, grading, f, triple = ratcheck.realize_record(rec)
        op = ratcheck._chevalley_operator(table, grading, f, triple)
        verdict = ratcheck.check_realized(table, grading, f, rec.v, "both", triple, op=op)
        if verdict.status != "pass":
            all_pass = False
        contra = ratcheck.verify_self_contragredient(table, grading, f, triple, op=op)
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
        d = slots.verdict_to_json(str(rec.algebra), rec.label, verdict)
        d = {"algebra": d["algebra"], "label": d["label"], "q": q, **d}
        d["self_contragredient"] = contra
        out.append(d)
    return json_text({"rows": out}) + "\n"


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
    """argparse with usage errors mapped to the bad-input exit code.  A
    top-level parser built for one subcommand (`partial`) reports its own
    errors through the full parser, whose usage names every subcommand."""

    partial = False

    def error(self, message):
        if self.partial:
            build_parser().error(message)
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


def _record_flags(p, required: bool = True) -> None:
    p.add_argument("--algebra", required=required)
    p.add_argument("--q", type=int)
    p.add_argument("--label")


def _check_exceptional_args(p) -> None:
    _record_flags(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", dest="method", action="store_const", const="exact")
    g.add_argument("--fast", dest="method", action="store_const", const="fast")
    g.add_argument("--both", dest="method", action="store_const", const="both")
    p.set_defaults(method="both", func=_cmd_check_exceptional)


def _check_classical_args(p) -> None:
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_TO_SERIES))
    p.add_argument("--partition", required=True, help="comma-separated parts")
    p.add_argument("--v-zero", action="store_true", help="force v = 0")
    p.set_defaults(func=_cmd_check_classical)


def _search_v_args(p) -> None:
    _record_flags(p)
    p.add_argument("--denominator-bound", type=_int_at_least(1), default=2)
    p.add_argument("--coefficient-bound", type=_int_at_least(1), default=4)
    p.set_defaults(func=_cmd_search_v)


def _verify_contragredient_args(p) -> None:
    _record_flags(p, required=False)
    p.add_argument("--family", choices=sorted(_FAMILY_TO_SERIES))
    p.add_argument("--partition")
    p.set_defaults(func=_cmd_verify_contragredient)


def _frobenius_args(p) -> None:
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


def _report_args(p) -> None:
    p.add_argument("--all", action="store_true", help="include every record (default)")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_report)


# subcommand -> (help line, the function adding its arguments), in help order
_COMMANDS = {
    "check-exceptional": ("check a bundled record", _check_exceptional_args),
    "check-classical": ("check a classical partition", _check_classical_args),
    "search-v": ("lattice search for a working v", _search_v_args),
    "verify-contragredient": (
        "self-contragredience (--algebra/--q or --family/--partition)",
        _verify_contragredient_args,
    ),
    "frobenius": ("solve a series system from JSON", _frobenius_args),
    "report": ("verdict table over all bundled records", _report_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser.  For a known subcommand only its subparser is
    built; otherwise (--help, no or an unknown subcommand) all of them."""
    parser = _Parser(
        prog="wrat", description="exact rationality checks and series solving"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    for name in names:
        help_line, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    parser.partial = len(names) < len(_COMMANDS)
    return parser


# exit code -> the exceptions mapped to it, as "module.Class" within the
# package, in the order they are tried.  A request can raise a class only
# from a module it ran, so an exception is matched on the names along its
# MRO and no module is read that the request did not load.
_EXIT_CODES = (
    (
        EXIT_BAD_INPUT,
        {
            "rootsys.IllegalType", "orbits.NotExceptionalType", "orbits.InvalidRecord",
            "orbits.UnknownRoot", "classical.InvalidPartition", "grading.NoSl2Completion",
            "frobenius.InvalidSystem", "frobenius.Resonance", "frobenius.SeedInconsistent",
            "frobenius.ContractionFails",
        },
    ),
    # a mathematical failure, not bad input
    (EXIT_FAIL, {"ratcheck.RoutesDisagree"}),
    (EXIT_IO, {"builtins.OSError"}),
)


def _exit_code(exc: Exception) -> int | None:
    """The exit code `_EXIT_CODES` gives exc, or None when it names no
    class exc is an instance of."""
    prefix = f"{__package__}."
    names = {
        f"{c.__module__.removeprefix(prefix)}.{c.__qualname__}" for c in type(exc).__mro__
    }
    return next((code for code, wanted in _EXIT_CODES if names & wanted), None)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        return _fail(str(exc), code)


def run() -> None:
    """`main` on sys.argv, then exit with its code.  The output is written
    by then, so the heap is first frozen into the permanent generation,
    which the full collections of interpreter shutdown do not scan; atexit
    handlers, stream flushing and module teardown still run.  `main` keeps
    the heap collectable for callers that run many requests in-process."""
    import gc  # only the program entry needs it, not `import wrat.cli`

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
