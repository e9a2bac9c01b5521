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

The module only parses argv, calls one function per subcommand, prints
and maps exceptions to exit codes.  Each rule lives with its data:
`orbits.lookup_exceptional` picks the record (by --q, --label or both),
`classical.ClassicalPartition.parse` reads the partition text and its
type, and `frobenius.solve_json` picks the series route, solves and writes
the result JSON.

Exit codes: 0 pass/ok, 2 mathematical fail (a fail verdict, a search miss,
or `wrat.RoutesDisagree`), 3 invalid input/data (`wrat.BadInput`: bad
flags, illegal partitions, no bundled record, resonance), 4 I/O failure
(`OSError`, a closed output pipe included).  Every refusal leaves through
`main`, which prints the one `error:` line; a failed write of that line
keeps the request's code.

`run` is the program entry (`python -m wrat.cli`, the `wrat` script);
`main(argv)` is the in-process one, for tests and library callers.
"""
from __future__ import annotations

import argparse
import re
import sys

from . import BadInput, RoutesDisagree
from . import classical, frobenius as fr, orbits, ratcheck, rootsys, slots
from ._serde import json_text, unique_keys

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_BAD_INPUT = 3
EXIT_IO = 4


def _emit(obj: dict) -> None:
    print(json_text(obj), flush=True)  # a closed pipe fails here, not at exit


def _record(args):
    """The bundled record args name.  When its q names none, the
    even-or-external status is printed and BadInput raised."""
    if args.algebra is None:
        raise BadInput("need --algebra/--q or --family/--partition")
    st = rootsys.SimpleType.parse(args.algebra)
    if args.q is None and args.label is None:
        raise BadInput("need --q or --label to pick a record")
    rec = orbits.lookup_exceptional(st, args.q, args.label)
    if rec is None:
        _emit({"algebra": str(st), "q": args.q, "status": "even-or-external"})
        raise BadInput(f"{st} at q = {args.q} is even or external: no bundled record")
    return rec


def _cmd_check_exceptional(args) -> int:
    rec = _record(args)
    verdict = ratcheck.check_record(rec, args.method)
    _emit(slots.verdict_to_json(str(rec.algebra), rec.label, verdict, list(rec.q)))
    return EXIT_OK if verdict.status == "pass" else EXIT_FAIL


def _cmd_check_classical(args) -> int:
    partition = classical.ClassicalPartition.parse(args.family, args.partition)
    real = classical.build_classical(partition)
    if args.v_zero:
        real = real._replace(v_diag=(0,) * real.size)
    verdict = classical.check_classical(real)
    _emit(slots.verdict_to_json(partition.algebra_label, partition.label, verdict))
    return EXIT_OK if verdict.status == "pass" else EXIT_FAIL


def _cmd_search_v(args) -> int:
    rec = _record(args)
    table, grading, f, triple = ratcheck.realize_record(rec)
    v = ratcheck.search_v(
        table, grading, f, args.denominator_bound, args.coefficient_bound, triple
    )
    base = {"algebra": str(rec.algebra), "label": rec.label, "q": list(rec.q)}
    if v is None:
        _emit({**base, "status": "not-found"})
        return EXIT_FAIL
    _emit({**base, "status": "found", "v": [str(p) for p in v.pairings]})
    return EXIT_OK


def _cmd_verify_contragredient(args) -> int:
    if args.family is None:
        rec = _record(args)
        ok = ratcheck.verify_self_contragredient(*ratcheck.realize_record(rec))
        algebra, label = str(rec.algebra), rec.label
    elif args.partition is None:
        raise BadInput("--family needs --partition")
    else:
        partition = classical.ClassicalPartition.parse(args.family, args.partition)
        real = classical.build_classical(partition)
        ok = classical.verify_self_contragredient_classical(real)
        algebra, label = partition.algebra_label, partition.label
    _emit({"algebra": algebra, "label": label, "self_contragredient": ok})
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_frobenius(args) -> int:
    import json  # the one subcommand that reads JSON; output is `json_text`

    with open(args.system) as fh:
        try:
            obj = json.load(fh, object_pairs_hook=unique_keys(fr.InvalidSystem))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise BadInput(f"cannot parse system: {exc}") from exc
    _emit(fr.solve_json(obj, args.route, args.order, args.iterate))
    return EXIT_OK


def _report_rows():
    rows = []
    all_pass = True
    for rec in orbits.load_records():
        table, grading, f, triple = ratcheck.realize_record(rec)
        verdict = ratcheck.check_realized(table, grading, f, rec.v, "both", triple)
        if verdict.status != "pass":
            all_pass = False
        contra = ratcheck.verify_self_contragredient(table, grading, f, triple)
        for q in rec.q:
            rows.append(((rec.algebra.family, rec.algebra.rank, q), rec, q, verdict, contra))
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
    out = [
        {
            **slots.verdict_to_json(str(rec.algebra), rec.label, verdict, q),
            "self_contragredient": contra,
        }
        for rec, q, verdict, contra in rows
    ]
    return json_text({"rows": out}) + "\n"


def _cmd_report(args) -> int:
    rows, all_pass = _report_rows()
    text = _report_tsv(rows) if args.format == "tsv" else _report_json(rows)
    if args.output is None:
        print(text, end="", flush=True)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return EXIT_OK if all_pass else EXIT_FAIL


# the keys of `classical._FAMILY_TO_SERIES`, spelled out so that building a
# parser loads no `classical`
_FAMILIES = ["B", "C", "D", "so", "sp"]


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

    def print_help(self, file=None):
        # argparse would drop a failed write: a closed stdout exits 4
        print(self.format_help(), end="", file=file, flush=True)


_USAGE_PART = r"\(.*?\)+(?=\s|$)|\[.*?\]+(?=\s|$)|\S+"


class _Formatter(argparse.HelpFormatter):
    """Usage wrapped as Python 3.10-3.12 wrap it, whose parts are a bracketed
    group or else a word (`_USAGE_PART`).  Only 3.13 and later call this
    method: they keep each argument whole, `--q Q` or `{...} ...`, as one part."""

    def _get_actions_usage_parts(self, actions, groups):
        return re.findall(_USAGE_PART, " ".join(super()._get_actions_usage_parts(actions, groups)))


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
    p.add_argument("--family", required=True, choices=_FAMILIES)
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
    p.add_argument("--family", choices=_FAMILIES)
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
        prog="wrat",
        description="exact rationality checks and series solving",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    for name in names:
        help_line, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line, formatter_class=_Formatter))
    parser.partial = len(names) < len(_COMMANDS)
    return parser


def main(argv=None) -> int:
    """One request; returns its exit code.  An exact number has no length
    limit: CPython's limit on int-to-decimal digits (3.10.7 and later) is
    lifted for the request, and the caller's limit restored after it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    set_digits = getattr(sys, "set_int_max_str_digits", None)  # no limit before 3.10.7
    if set_digits is not None:
        limit = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except BadInput as exc:
        code, message = EXIT_BAD_INPUT, str(exc)
    except RoutesDisagree as exc:
        code, message = EXIT_FAIL, str(exc)
    except OSError as exc:
        code, message = EXIT_IO, str(exc)
    finally:
        if set_digits is not None:
            set_digits(limit)
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass  # a closed stderr: the request's code stands
    return code


def run() -> None:
    """`main` on sys.argv, then exit with its code.  The output is written
    by then, so the heap is first frozen into the permanent generation,
    which the full collections of interpreter shutdown do not scan; atexit
    handlers, stream flushing and module teardown still run.  `main` keeps
    the heap collectable for callers that run many requests in-process.
    What a closed pipe did not take is dropped: its stream is pointed at
    os.devnull, so that shutdown flushes without error and the code stands."""
    import gc  # only the program entry needs these, not `import wrat.cli`
    import os

    try:
        code = main()
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
