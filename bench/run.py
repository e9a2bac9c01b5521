"""Benchmark runner for the `wrat` command line.

    python3 bench/run.py --workload report_all --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout (it needs `src/wrat`).  One client
runs a closed loop: it starts a fresh `python -m wrat.cli ...` process per
request, waits for it, checks its output and starts the next.  One pass over a
workload's request list is one sample; passes repeat until the next one would
end after `--seconds`.

--trace 0 reports the end-to-end metrics: wall_s (median pass), setup_s
(median time of a process that only imports wrat.cli) and peak_rss_mb (median
over passes of the largest max-RSS of any request process); both times are
given at the reference speed described at PROBE_REF_S.  --trace 1 alternates
untraced passes with passes run through bench/tracer.py and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give each
timing as a median with quartiles and the sample count, the failure ratio
with its base, and the conditions of the run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ".bench_work"
SETUP_REPEATS = 15
# Speed probe.  On a shared machine the same request can take 1.4 s or 2.7 s
# as neighbours load the host, and a core's speed changes within a second.  So
# the client, which shares one core with the request process, wakes every
# PROBE_PERIOD_S while a request runs and times a fixed Fraction-and-dict loop
# that does not use wrat (the request loses the core for 1.5-2.5 ms each time).
# Timings are then reported at the reference speed: the wall time times the
# mean over the probes of PROBE_REF_S / probe time.  PROBE_REF_S is the probe's
# time in the fast state of the 2-core Xeon VM the benchmark was tuned on.
PROBE_PERIOD_S = 0.1
PROBE_REF_S = 0.0007
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

# per-layer metrics reported by --trace 1: name -> unit
PER_LAYER = {
    "cli.self_s": "s",
    "orbits.load_records.self_s": "s",
    "orbits.build_classical.self_s": "s",
    "rootsys.build.self_s": "s",
    "rootsys.build.calls": "count",
    "liealg.build_chevalley.self_s": "s",
    "liealg.brackets_cached": "count",
    "grading.grade.self_s": "s",
    "grading.grade.calls": "count",
    "grading.complete_sl2.self_s": "s",
    "grading.ad_block.self_s": "s",
    "grading.ad_block.calls": "count",
    "grading.ad_block.entries": "count",
    "ratcheck.realize_record.calls": "count",
    "ratcheck.fast_condition.self_s": "s",
    "ratcheck.fast_handoff_ratio": "ratio",
    "ratcheck.exact_condition.self_s": "s",
    "ratcheck.exact_condition.calls": "count",
    "ratcheck.search_v.self_s": "s",
    "ratcheck.verify_self_contragredient.self_s": "s",
    "ratcheck.check_classical.self_s": "s",
    "ratcheck.verify_self_contragredient_classical.self_s": "s",
    "linalg.rank.self_s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.entries": "count",
    "linalg.solve.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.nullspace.self_s": "s",
    "frobenius.recursion_solve.self_s": "s",
    "frobenius.recursion_solve.steps": "count",
    "frobenius.residual_norm.self_s": "s",
    "frobenius.log_system_solve.self_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    raw_s: float  # wall time as measured
    wall_s: float  # the same at the reference speed
    rc: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    cpu_s: float


def probe() -> float:
    """Seconds the probe loop takes right now (best of two runs)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 300):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            seen[i % 97] = acc.numerator % 1009
            if i % 100 == 0:
                acc = Fraction(acc.numerator % 1009, acc.denominator % 1013 + 1)
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Pass:
    """Sums over the requests of one pass; times at the reference speed,
    except raw_s."""

    raw_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    self_ns: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    absent: set = field(default_factory=set)


class Runner:
    """Starts request processes in the checkout, one at a time."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root / WORKDIR
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        # This process and the request processes it starts share one core,
        # so the probe times the core the requests run on.  Nothing
        # machine-wide is changed.
        self.pinned_cpu = cpus[-1] if len(cpus) > 1 else None
        if self.pinned_cpu is not None:
            os.sched_setaffinity(0, {self.pinned_cpu})
        self._last_probe = probe()

    def spawn(self, cmd: list[str]) -> Outcome:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        probes = [self._last_probe]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            exited = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(exited, select.POLLIN)
                while not poller.poll(PROBE_PERIOD_S * 1000):
                    probes.append(probe())
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()  # leave no request running behind an interrupted client
                raise
            finally:
                os.close(exited)
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._last_probe = probe()
        probes.append(self._last_probe)
        return Outcome(
            wall,
            wall * statistics.fmean(PROBE_REF_S / t for t in probes),
            proc.returncode,
            out_path.read_bytes(),
            err_path.read_bytes(),
            usage.ru_maxrss,
            usage.ru_utime + usage.ru_stime,
        )


class Client:
    """Runs passes over one workload and keeps the failure count."""

    def __init__(self, runner: Runner, workload: workloads.Workload):
        self.runner = runner
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict = {}

    def _check(self, req: workloads.Request, out: Outcome) -> str | None:
        if b"Traceback" in out.stderr:
            return "traceback on stderr"
        key = (req.name, out.rc, out.stdout)
        if key not in self._verdicts:
            try:
                workloads.check_output(self.workload, req, out.rc, out.stdout)
                self._verdicts[key] = None
            except workloads.CheckFailed as exc:
                self._verdicts[key] = str(exc)
            except Exception as exc:  # a malformed output must count, not stop the run
                self._verdicts[key] = f"{type(exc).__name__}: {exc}"
        return self._verdicts[key]

    def run_pass(self, traced: bool) -> Pass:
        p = Pass()
        for i, req in enumerate(self.workload.requests):
            if traced:
                spans_path = self.runner.work / f"spans_{i}.json"
                cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), req.name, "--"]
            else:
                cmd = [sys.executable, "-m", "wrat.cli"]
            out = self.runner.spawn(cmd + list(req.argv))
            self.attempted += 1
            speed = out.wall_s / out.raw_s
            p.raw_s += out.raw_s
            p.wall_s += out.wall_s
            p.cpu_s += out.cpu_s * speed
            p.peak_rss_mb = max(p.peak_rss_mb, out.maxrss_kb / 1024)
            problem = self._check(req, out)
            if traced:
                problem = problem or self._add_spans(p, spans_path, speed)
            if problem is not None:
                self.failures.append(f"{req.name}: {problem}")
        return p

    def _add_spans(self, p: Pass, path: Path, speed: float) -> str | None:
        """Add one request's spans to the pass; the problem if there are none."""
        try:
            with open(path) as fh:
                rec = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"no spans: {exc}"
        finally:
            path.unlink(missing_ok=True)
        self_ns, calls = tracer.self_times(rec["spans"])
        p.self_ns.update({name: ns * speed for name, ns in self_ns.items()})
        p.calls.update(calls)
        p.counters.update(rec["counters"])
        p.absent.update(rec["absent"])
        return None


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1 = q3 = med
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(runner: Runner, client: Client) -> list[Outcome]:
    """SETUP_REPEATS processes that only import wrat.cli."""
    outs = []
    for _ in range(SETUP_REPEATS):
        out = runner.spawn([sys.executable, "-c", "import wrat.cli"])
        client.attempted += 1
        if out.rc != 0 or out.stderr:
            client.failures.append(f"import wrat.cli: exit {out.rc}")
        outs.append(out)
    return outs


def run_passes(client: Client, seconds: float, traced: bool) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes, and with `traced` a traced pass after each, until the
    next round would end after `seconds`."""
    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(client.run_pass(False))
        if traced:
            traced_passes.append(client.run_pass(True))
        now = time.perf_counter()
        if now + (now - round_start) - start > seconds:
            return plain, traced_passes


def layer_metrics(plain: list[Pass], traced: list[Pass]) -> tuple[dict, dict, list[str], bool]:
    """Per-layer values (None when absent), the bases of the ratios, the
    absent names, and whether every count repeated exactly across traced
    passes."""
    absent = sorted(set().union(*(p.absent for p in traced)))
    counts = [(dict(p.calls), dict(p.counters)) for p in traced]
    repeat = all(c == counts[0] for c in counts)

    def med(f):
        return statistics.median(f(p) for p in traced)

    values: dict = {}
    bases: dict = {}
    for name in PER_LAYER:
        if name == "process.cpu_s":
            values[name] = statistics.median(p.cpu_s for p in plain)
        elif name == "trace.overhead_ratio":
            pair = [med(lambda p: p.wall_s), statistics.median(p.wall_s for p in plain)]
            bases[name] = {"traced_s": pair[0], "untraced_s": pair[1]}
            values[name] = pair[0] / pair[1] - 1
        elif name == "ratcheck.fast_handoff_ratio":
            span = "ratcheck.fast_condition"
            if span in absent or "ratcheck.fast_condition.handoffs" in absent:
                values[name] = None
            else:
                calls = traced[0].calls[span]
                handoffs = traced[0].counters["ratcheck.fast_condition.handoffs"]
                bases[name] = {"handoffs": handoffs, "fast_calls": calls}
                # with no fast call there is no hand-off: 0 over a base of 0
                values[name] = handoffs / calls if calls else 0.0
        elif name == "cli.self_s":
            values[name] = None if "cli.main" in absent else med(lambda p: p.self_ns["cli.main"]) / 1e9
        else:
            span, kind = name.rsplit(".", 1)
            if span in absent or name in absent:
                values[name] = None
            elif kind == "self_s":
                values[name] = med(lambda p: p.self_ns[span]) / 1e9
            elif kind == "calls":
                values[name] = traced[0].calls[span]
            else:
                values[name] = traced[0].counters[name]
    return values, bases, absent, repeat


def conditions(root: Path, runner: Runner, args, wl, n_plain: int, n_traced: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": runner.pinned_cpu,
        "pinned": runner.pinned_cpu is not None,
        "passes": n_plain,
        "traced_passes": n_traced,
        "setup_repeats": SETUP_REPEATS,
        "requests_per_pass": len(wl.requests),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wrat" / "cli.py").is_file():
        print(f"error: no src/wrat/cli.py under {root}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the search check re-runs the exact route
    (root / WORKDIR).mkdir(exist_ok=True)

    wl = workloads.make_workload(args.workload, args.seed, WORKDIR)
    for rel, data in wl.files.items():
        (root / rel).write_bytes(data)

    runner = Runner(root)
    client = Client(runner, wl)
    setup = measure_setup(runner, client)
    plain, traced = run_passes(client, args.seconds, bool(args.trace))

    meta = conditions(root, runner, args, wl, len(plain), len(traced))
    summary = {
        "wall_s": {**summarize([p.wall_s for p in plain]), "unit": "s"},
        "setup_s": {**summarize([o.wall_s for o in setup]), "unit": "s"},
        "peak_rss_mb": {**summarize([p.peak_rss_mb for p in plain]), "unit": "MB"},
        "wall_raw_s": {**summarize([p.raw_s for p in plain]), "unit": "s"},
        "setup_raw_s": {**summarize([o.raw_s for o in setup]), "unit": "s"},
    }
    repeat = True
    if args.trace:
        values, meta["ratio_bases"], meta["absent"], repeat = layer_metrics(plain, traced)
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, v in values.items()}
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": summary[name]["unit"]} for name in END_TO_END}
    failed = len(client.failures)
    fail_ratio = {"failed": failed, "attempted": client.attempted, "value": failed / client.attempted}

    for name, s in summary.items():
        print(
            f"{name:12s} median {s['median']:.4f} {s['unit']}  "
            f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}"
        )
    print(f"{'fail_ratio':12s} {failed}/{client.attempted} = {fail_ratio['value']:.4f}")
    for problem in client.failures[:20]:
        print(f"  failed: {problem}")
    if not repeat:
        print("  counts differ between traced passes")
    if args.trace:
        for name, value in values.items():
            shown = "absent" if value is None else f"{value:.6g}"
            base = meta["ratio_bases"].get(name)
            print(f"{name:52s} {shown} {PER_LAYER[name]}" + (f"  base {base}" if base else ""))

    print(json.dumps({"conditions": meta, "summary": summary, "fail_ratio": fail_ratio}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and repeat,
                "attempted": client.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
