"""Benchmark of weylipse: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

One workload runs as one process, pinned with its children to one CPU,
with one client in a closed loop: each call starts when the previous one
returned, and ``cli`` runs one child process at a time.  The seed draws every sampled input; the type lists are
fixed.  The timed phase repeats whole passes of the workload's operations
until ``--seconds`` have passed (and, for ``cli``, 100 invocations are done).
Results are checked after the timed phase, against goldens recorded from
the library (``goldens.json``) and against the integer oracle in
``oracle.py``.  Each call's time is scaled to a reference machine speed read
by ``reference.py`` just before the call.

With ``--trace 0`` the last line of stdout is the JSON result with every
end-to-end metric.  With ``--trace 1`` half the time runs untraced and half
with a span around every call into a layer's public functions; the result
then holds the per-layer metrics and the tracing overhead, and the spans are
written to ``.bench_out/``.  The line before the result is the run record.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, FuncStats, Tracer  # noqa: E402

SETUP_REPEATS = 9  # fresh processes behind each set-up or start-up time

# Children that time themselves print the time and then the speed kernel's
# time in the same process (its second run, the first warms it up).
KERNEL_CODE = """
sys.path.insert(0, sys.argv[1])
import reference
reference.kernel()
print(elapsed, reference.kernel_ns())
"""
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import weylipse
for t in sys.argv[2].split(","):
    weylipse.build_cartan(weylipse.parse_type(t))
elapsed = time.perf_counter() - t0
""" + KERNEL_CODE
IMPORT_CODE = """\
import sys, time
t0 = time.perf_counter()
import weylipse.cli
elapsed = time.perf_counter() - t0
""" + KERNEL_CODE


class Lib:
    """The weylipse modules under test, imported from ``src``.

    Inputs and checks use the functions captured here, so tracing never
    records them; operations call through the modules, so it records those.
    """

    def __init__(self, src: Path, root: Path):
        self.src, self.root = src, root
        sys.path.insert(0, str(src))
        pkg = importlib.import_module("weylipse")
        if Path(pkg.__file__).resolve().parent != (src / "weylipse").resolve():
            raise SystemExit(f"error: imported weylipse from {pkg.__file__}, not from {src}")
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"weylipse.{layer}"))
        self._build_cartan = self.cartan.build_cartan
        self._parse_type = self.cartan.parse_type
        self.weyl_order = self.cartan.weyl_order
        self.positive_roots = self.cartan.positive_roots
        self._cds: dict = {}

    def cd(self, t: str):
        if t not in self._cds:
            self._cds[t] = self._build_cartan(self._parse_type(t))
        return self._cds[t]


# -- timing ----------------------------------------------------------------


class Phase:
    """Samples of one timed phase, in ns at the reference speed and as measured."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)  # op name -> scaled ns
        self.raw: dict[str, list[int]] = defaultdict(list)  # op name -> measured ns
        self.kernel_ns: list[int] = []
        self.results: list[tuple[workloads.Op, object]] = []
        self.passes = 0
        self.counts: Counter = Counter()  # work in the first pass

    @property
    def wall_s(self) -> float:
        return sum(self.op_medians()) / 1e9

    def op_medians(self, raw: bool = False) -> list[float]:
        return [statistics.median(v) for v in (self.raw if raw else self.samples).values()]

    @property
    def speed(self) -> float:
        """Median machine speed over the phase, relative to the reference."""
        return reference.NOMINAL_NS / statistics.median(self.kernel_ns)


def _fingerprint(op, result):
    try:
        return op.fingerprint(result)
    except Exception as exc:  # a result of the wrong shape is a failed call
        return ("unreadable result", type(exc).__name__, str(exc)[:200])


def timed_phase(wl: workloads.Workload, seconds: float, min_passes: int, tracer: Tracer | None = None) -> Phase:
    phase = Phase()
    start = perf_counter()
    while True:
        for op in wl.cycles[phase.passes % len(wl.cycles)]:
            gc.collect()  # no call pays for the garbage of the one before
            kernel = reference.kernel_ns()
            t0 = perf_counter_ns()
            try:
                result = op.call() if tracer is None else tracer.span(op.span, op.call)
            except Exception as exc:
                t1 = perf_counter_ns()
                fp = ("raised", type(exc).__name__, str(exc)[:200])
            else:
                t1 = perf_counter_ns()
                fp = _fingerprint(op, result)
                del result
            phase.kernel_ns.append(kernel)
            phase.raw[op.name].append(t1 - t0)
            phase.samples[op.name].append(reference.scale(t1 - t0, kernel))
            phase.results.append((op, fp))
            if phase.passes == 0 and fp[:1] not in (("raised",), ("unreadable result",)):
                phase.counts.update(op.counts(fp))
        phase.passes += 1
        if perf_counter() - start >= seconds and phase.passes >= min_passes:
            return phase


def check(phases: list[Phase]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): every result against its expected value."""
    expected: dict[int, object] = {}
    attempted = failed = 0
    messages = []
    for phase in phases:
        for op, fp in phase.results:
            if id(op) not in expected:
                try:
                    expected[id(op)] = op.expect()
                except Exception as exc:
                    expected[id(op)] = ("no expected value", type(exc).__name__, str(exc)[:200])
            attempted += 1
            if fp != expected[id(op)]:
                failed += 1
                if len(messages) < 10:
                    messages.append(f"{op.name}: got {fp!r}, expected {expected[id(op)]!r}")
    return attempted, failed, messages


# -- set-up and child processes ----------------------------------------------


def run_child(args: list[str], src: Path) -> tuple[float, str]:
    """Run a fresh interpreter; (wall seconds, stdout)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=workloads.cli_env(src), capture_output=True, text=True, timeout=120
    )
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall, proc.stdout


def probe(args: list[str], src: Path, self_timed: bool) -> tuple[float, float]:
    """Median over fresh processes of a time in seconds, (scaled, measured).

    A self-timed child (one ending in KERNEL_CODE) reports its time and its
    speed; any other is timed from outside and scaled by the speed read just
    before it starts.
    """
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        kernel = reference.kernel_ns()
        wall, out = run_child(args, src)
        if self_timed:
            elapsed, kernel = out.split()
            wall, kernel = float(elapsed), int(kernel)
        measured.append(wall)
        scaled.append(reference.scale(wall, kernel))
    return statistics.median(scaled), statistics.median(measured)


def measure_setup(name: str, wl: workloads.Workload, src: Path) -> tuple[float, float]:
    if name == "cli":
        return probe(["-c", "import weylipse.cli"], src, self_timed=False)
    return probe(["-c", SETUP_CODE, str(HERE), ",".join(wl.types)], src, self_timed=True)


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between the values around it."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- metrics -----------------------------------------------------------------


def end_to_end(phase: Phase, setup_s: float, rss: float) -> dict:
    # quantiles over operations of each one's median: every operation counts
    # once, however many passes the run completed
    per_op = phase.op_medians()
    values = {
        "wall_s": sum(per_op) / 1e9,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "op_p50_ms": statistics.median(per_op) / 1e6,
        "op_p90_ms": quantile(per_op, 90) / 1e6,
    }
    return {m: {"value": values[m], "unit": unit} for m, unit, _, _ in metrics.END_TO_END}


def per_layer(name, plain: Phase, traced: Phase, tracer: Tracer, probe_stats: dict, src: Path) -> dict:
    """Span times are scaled to the reference speed by the traced phase's median speed."""
    passes = traced.passes
    speed = traced.speed
    merged: dict[str, FuncStats] = {}
    for stats in (probe_stats, tracer.stats):
        for fn, st in stats.items():
            agg = merged.setdefault(fn, FuncStats())
            agg.calls += st.calls
            agg.total_ns += st.total_ns
    values: dict[str, float] = {}
    scale = {"ms": 1e6, "us": 1e3}
    for metric, (span, unit) in metrics.FUNCTION_TIMES.items():
        st = merged.get(span)
        values[metric] = st.total_ns * speed / st.calls / scale[unit] if st and st.calls else 0.0
    counts = traced.counts
    for metric in metrics.WORK_COUNTS:
        values[metric] = counts.get(metric, 0)
    values["orbits.seed_yield"] = counts["orbits.seeds"] / counts["orbits.solutions"] if counts["orbits.solutions"] else 0.0
    for count, (rate, span) in metrics.RATES.items():
        st = tracer.stats.get(span)
        per_pass_s = st.total_ns * speed / passes / 1e9 if st else 0.0
        values[rate] = counts.get(count, 0) / per_pass_s if per_pass_s else 0.0
    values["cli.import_ms"] = values["cli.bare_python_ms"] = 0.0
    for label in metrics.CLI_LABELS:
        both = plain.samples.get(f"cli:{label}", []) + traced.samples.get(f"cli:{label}", [])
        values[f"cli.{label}_ms"] = statistics.median(both) / 1e6 if both else 0.0
    if name == "cli":
        values["cli.import_ms"] = 1e3 * probe(["-c", IMPORT_CODE, str(HERE)], src, self_timed=True)[0]
        values["cli.bare_python_ms"] = 1e3 * probe(["-c", "pass"], src, self_timed=False)[0]
    totals = tracer.layer_totals()
    for layer in metrics.LAYERS:
        st = totals.get(layer, FuncStats())
        values[f"{layer}.calls"] = _per_pass(st.calls, passes)
        values[f"{layer}.failed"] = _per_pass(st.failed, passes)
        values[f"{layer}.self_ms"] = st.self_ns * speed / passes / 1e6
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    values["trace.spans"] = _per_pass(sum(st.calls for st in tracer.stats.values()), passes)
    return {m: {"value": values[m], "unit": unit} for m, unit, _ in metrics.per_layer_catalogue()}


def _per_pass(total: int, passes: int):
    return total // passes if total % passes == 0 else total / passes


# -- one workload --------------------------------------------------------------


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(args, src: Path) -> int:
    # one CPU for this process and every child, so the speed kernel reads
    # the CPU that the timed code runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    lib = Lib(src, ROOT)
    goldens = workloads.load_goldens()
    rng = random.Random(f"{args.workload}:{args.seed}")
    wl = workloads.BUILDERS[args.workload](lib, rng, args.size, goldens)
    for t in wl.types:
        lib.cd(t)
    # the inputs stay alive all run; frozen, the collector no longer scans
    # them, so a call's collections cost what they would in a process of its own
    gc.collect()
    gc.freeze()

    if not args.trace:
        setup_s, measured_setup_s = measure_setup(args.workload, wl, src)
        phase = timed_phase(wl, args.seconds, wl.min_passes)
        rss = peak_rss_mb(args.workload)
        phases = [phase]
        result_metrics = end_to_end(phase, setup_s, rss)
        raw = phase.op_medians(raw=True)
        measured = {
            "wall_s": sum(raw) / 1e9,
            "setup_s": measured_setup_s,
            "op_p50_ms": statistics.median(raw) / 1e6,
            "op_p90_ms": quantile(raw, 90) / 1e6,
        }
    else:
        half = -(-wl.min_passes // 2)
        plain = timed_phase(wl, args.seconds / 2, half)
        tracer = Tracer()
        with tracer:
            for t in wl.types:
                lib.cartan.positive_roots(lib.cartan.build_cartan(lib.cartan.parse_type(t)))
        probe_stats, tracer.stats = tracer.stats, {}
        with tracer:
            traced = timed_phase(wl, args.seconds / 2, half, tracer)
        phases = [plain, traced]
        result_metrics = per_layer(args.workload, plain, traced, tracer, probe_stats, src)
        measured = {"wall_s": [sum(p.op_medians(raw=True)) / 1e9 for p in phases]}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    attempted, failed, messages = check(phases)
    for line in messages:
        print(f"check failed: {line}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "passes": [p.passes for p in phases],
        "operations": len(phases[0].samples),
        "speed": [p.speed for p in phases],
        "measured": measured,
        "work_counts": dict(sorted(phases[0].counts.items())),
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    print(json.dumps(result))
    return 0


# -- all workloads ---------------------------------------------------------------


def run_all(args, src: Path) -> int:
    """Each workload in its own process, one after another; print a table."""
    report = {}
    for name, _ in metrics.WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size, "--src", str(src),
        ]  # fmt: skip
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        record = json.loads(lines[-2].split(" ", 1)[1])
        result = json.loads(lines[-1])
        report[name] = {"record": record, "result": result}
        print(f"== {name}  seed {args.seed}  passes {record['passes']}  commit {record['commit'][:12]}")
        share = result["failed"] / result["attempted"]
        print(f"  {'ops':28s} {result['attempted']:>14} count")
        print(f"  {'operations':28s} {record['operations']:>14} count (samples of op_p50_ms, op_p90_ms)")
        print(f"  {'ops_failed_frac':28s} {share:>14.4f} ratio")
        for metric, v in result["metrics"].items():
            print(f"  {metric:28s} {v['value']:>14.6g} {v['unit']}")
        for count, v in record["work_counts"].items():
            print(f"  {count:28s} {v:>14} count (work)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"all-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    correct = all(r["result"]["correct"] for r in report.values())
    print(json.dumps({"correct": correct, "report": str(path.relative_to(ROOT))}))
    return 0 if correct else 3


def parse_args(argv=None):
    names = [name for name, _ in metrics.WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=metrics.benchmark_json()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: small types, for smoke tests")
    p.add_argument("--src", default=None, help="directory holding the weylipse package (default: ./src)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "weylipse" / "__init__.py").is_file():
        print(f"error: no weylipse package under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, src)
    return run_workload(args, src)


if __name__ == "__main__":
    sys.exit(main())
