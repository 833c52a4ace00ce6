"""Run-to-run spread of one tree, and paired comparison of two trees.

    python3 bench/compare.py spread --workload group --runs 10 [--out FILE]
    python3 bench/compare.py pair --base HEAD~1 --head HEAD [--pairs 10]

``spread`` runs one workload with seeds 1..runs and reports, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and their
distance as a share of the median, next to the metric's bound.

``pair`` measures two versions of ``src`` with this same benchmark code.  A
side is a git revision (its ``src`` is extracted under ``.bench_out/``) or a
directory holding ``src/weylipse``.  Pair k runs both sides on seed k,
alternating which side goes first.  Per workload and metric it reports each
side's median and quartiles, the share of pairs the head won, and a verdict:

* ``better``     -- head wins at least 9 of 10 pairs and the medians differ by
                    more than the base's quartile distance;
* ``worse``      -- head's median is worse than base's by more than the bound;
* ``unresolved`` -- base's quartile distance is wider than the bound and not
                    every head run beats every base run;
* ``same``       -- otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BOUNDS = {name: (unit, better, bound) for name, unit, better, bound in metrics.END_TO_END}


def run_once(workload: str, seed: int, seconds: float, src: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0", "--src", str(src)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed}: {result['failed']} failed operations", file=sys.stderr)
    return {name: v["value"] for name, v in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def cmd_spread(args) -> int:
    src = Path(args.src).resolve() if args.src else ROOT / "src"
    runs = [run_once(args.workload, seed, args.seconds, src) for seed in range(1, args.runs + 1)]
    report = {}
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s")
    for name, (unit, _, bound) in BOUNDS.items():
        values = [r[name] for r in runs]
        s = report[name] = summary(values) | {"values": values, "unit": unit, "bound": bound}
        flag = "" if s["spread"] < bound / 3 else ("  WIDE" if s["spread"] < bound else "  OVER BOUND")
        print(
            f"  {name:12s} median {s['median']:12.6g} {unit:3s} q1 {s['q1']:12.6g} q3 {s['q3']:12.6g}"
            f"  spread {s['spread']:.4f} (bound {bound}){flag}"
        )
        print("    " + " ".join(f"{v:.6g}" for v in values))
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        data[args.workload] = {name: {k: s[k] for k in ("median", "q1", "q3", "spread", "unit", "values")} for name, s in report.items()}
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


def side_src(spec: str) -> Path:
    """``src`` of a directory, or of a git revision extracted under .bench_out/."""
    if Path(spec, "src", "weylipse").is_dir():
        return Path(spec, "src").resolve()
    rev = subprocess.run(["git", "rev-parse", spec], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    dest = ROOT / ".bench_out" / "compare" / rev
    if not (dest / "src" / "weylipse").is_dir():
        tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest, filter="data")
    return dest / "src"


def verdict(name: str, base: list[float], head: list[float], won: float) -> str:
    _, better, bound = BOUNDS[name]
    sign = 1 if better == "lower" else -1  # sign * (head - base) < 0 means head is better
    b, h = summary(base), summary(head)
    change = sign * (h["median"] - b["median"]) / b["median"]
    if won >= 0.9 and abs(h["median"] - b["median"]) > b["q3"] - b["q1"]:
        return "better"
    if change > bound:
        return "worse"
    all_better = max(sign * v for v in head) < min(sign * v for v in base)
    if b["spread"] > bound and not all_better:
        return "unresolved"
    return "same"


def cmd_pair(args) -> int:
    base_src, head_src = side_src(args.base), side_src(args.head)
    names = args.workloads.split(",") if args.workloads else [w for w, _ in metrics.WORKLOADS]
    for workload in names:
        base, head = [], []
        for k in range(args.pairs):
            seed = k + 1
            order = [(base, base_src), (head, head_src)]
            for sink, src in order if k % 2 == 0 else order[::-1]:
                sink.append(run_once(workload, seed, args.seconds, src))
        print(f"== {workload}: {args.pairs} pairs, base {args.base}, head {args.head}")
        for name, (unit, better, bound) in BOUNDS.items():
            bv, hv = [r[name] for r in base], [r[name] for r in head]
            sign = 1 if better == "lower" else -1
            wins = sum(1 for x, y in zip(bv, hv) if sign * y < sign * x)
            won = wins / len(bv)
            b, h = summary(bv), summary(hv)
            print(
                f"  {name:12s} base {b['median']:10.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                f"  head {h['median']:10.6g} [{h['q1']:.6g}, {h['q3']:.6g}] {unit:3s}"
                f"  change {(h['median'] - b['median']) / b['median']:+.2%} of base"
                f"  head won {won:.0%}  {verdict(name, bv, hv, won)}"
            )
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True, choices=[w for w, _ in metrics.WORKLOADS])
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--src", default=None)
    s.add_argument("--out", default=None, help="merge the summary into this JSON file")
    q = sub.add_parser("pair")
    q.add_argument("--base", required=True)
    q.add_argument("--head", required=True)
    q.add_argument("--pairs", type=int, default=10)
    q.add_argument("--workloads", default=None, help="comma-separated; default all")
    for parser in (s, q):
        parser.add_argument("--seconds", type=float, default=metrics.benchmark_json()["run_seconds"])
    args = p.parse_args(argv)
    return cmd_spread(args) if args.cmd == "spread" else cmd_pair(args)


if __name__ == "__main__":
    sys.exit(main())
