"""Per-layer tracing of one `wrat` request, from outside the program.

Run as a script, it is a drop-in for `python -m wrat.cli`:

    python bench/tracer.py SPANS.json REQUEST_ID -- report --all

It imports `wrat.cli`, wraps each entry point in ENTRY_POINTS in every `wrat`
module that binds it (so `from x import y` copies are caught as well as the
defining module), calls `wrat.cli.main(argv)` and writes the spans when the
process exits.  A span is (name, start_ns, end_ns, parent index, request id).
An entry point that no longer resolves is listed under "absent" by name.

Imported as a module it gives the span arithmetic the benchmark uses.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module in the wrat package, function): the public entry point of each layer
ENTRY_POINTS = (
    ("cli", "main"),
    ("orbits", "load_records"),
    ("orbits", "build_classical"),
    ("rootsys", "build"),
    ("liealg", "build_chevalley"),
    ("grading", "grade"),
    ("grading", "complete_sl2"),
    ("grading", "ad_block"),
    ("ratcheck", "realize_record"),
    ("ratcheck", "fast_condition"),
    ("ratcheck", "exact_condition"),
    ("ratcheck", "search_v"),
    ("ratcheck", "verify_self_contragredient"),
    ("ratcheck", "check_classical"),
    ("ratcheck", "verify_self_contragredient_classical"),
    ("_linalg", "rank"),
    ("_linalg", "solve"),
    ("_linalg", "nullspace"),
    ("frobenius", "recursion_solve"),
    ("frobenius", "residual_norm"),
    ("frobenius", "log_system_solve"),
)


def span_name(module: str, func: str) -> str:
    """Metric-safe span name: names may not start with '_'."""
    return f"{module.lstrip('_')}.{func}"


def _matrix_entries(m) -> int:
    return len(m) * len(m[0]) if m else 0


# counters kept at an entry point: span name -> (counter, f(args, result))
_COUNTERS = {
    "grading.ad_block": ("grading.ad_block.entries", lambda args, res: _matrix_entries(res)),
    "linalg.rank": ("linalg.rank.entries", lambda args, res: _matrix_entries(args[0])),
    "frobenius.recursion_solve": (
        "frobenius.recursion_solve.steps",
        lambda args, res: len(res.coeffs),
    ),
    "ratcheck.fast_condition": (
        "ratcheck.fast_condition.handoffs",
        lambda args, res: int(res.method == "exact"),
    ),
}


class Tracer:
    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.tables: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack, clock, rid = self.spans, self.stack, time.perf_counter_ns, self.request_id
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, rid)
            self._count(name, counter, args, result)
            return result

        return traced

    def _count(self, name, counter, args, result) -> None:
        try:
            if counter is not None:
                key, fn = counter
                self.counters[key] += fn(args, result)
            if name == "liealg.build_chevalley":
                self.tables[id(result)] = result
        except (AttributeError, IndexError, KeyError, TypeError):
            # the layer changed shape: report the counter absent, never crash
            if counter is not None and counter[0] not in self.absent:
                self.absent.append(counter[0])

    def install(self, modules: dict) -> None:
        """Wrap every entry point in each wrat module of `modules` that binds it."""
        wrat_mods = [
            m for n, m in list(modules.items()) if m is not None and (n == "wrat" or n.startswith("wrat."))
        ]
        for module, func in ENTRY_POINTS:
            name = span_name(module, func)
            home = modules.get(f"wrat.{module}")
            orig = getattr(home, func, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for mod in wrat_mods:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    setattr(mod, attr, wrapped)

    def record(self) -> dict:
        try:
            cached = sum(len(t.brackets) for t in self.tables.values())
            self.counters["liealg.brackets_cached"] = cached
        except (AttributeError, TypeError):
            self.absent.append("liealg.brackets_cached")
        return {
            "request": self.request_id,
            "absent": self.absent,
            "counters": dict(self.counters),
            "spans": self.spans,
        }


# -- span arithmetic -----------------------------------------------------------


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> tuple[dict[str, int], Counter]:
    """Per span name: total self time in ns (duration minus the time child
    spans cover) and the number of spans."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_ns[name] += (end - start) - covered_ns(children.get(i, ()), start, end)
        calls[name] += 1
    return dict(self_ns), calls


def main(argv: list[str]) -> int:
    spans_path, request_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json REQUEST_ID -- <wrat arguments>")
    import wrat.cli

    tracer = Tracer(request_id)
    tracer.install(sys.modules)
    try:
        return wrat.cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.record(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
