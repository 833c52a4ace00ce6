"""Tests of the benchmark itself: python -m pytest bench/test_bench.py -q

Tiny-size smoke runs of every workload in both modes, seed determinism of
inputs and work counts, and the agreement of BENCHMARK.json with metrics.py.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAMES = [name for name, _ in metrics.WORKLOADS]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].split(" ", 1)[1])
    return record, json.loads(lines[-1])


def test_benchmark_json_is_the_catalogue():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_json()


def test_benchmark_json_shape():
    spec = metrics.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= len(spec["per_layer"]) <= 128
    assert 4 + 22 * len(spec["workloads"]) <= 3420 / (spec["run_seconds"] + 10)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_map_names_per_layer_metrics():
    names = {name for name, _, _ in metrics.per_layer_catalogue()}
    assert set(metrics.MOVES) <= names
    assert set(metrics.FUNCTION_TIMES) | set(metrics.WORK_COUNTS) <= set(metrics.MOVES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke(workload, trace):
    record, result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                                     "--trace", str(trace), "--size", "tiny"))  # fmt: skip
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.END_TO_END if trace == 0 else metrics.per_layer_catalogue()
    assert {name: unit for name, unit, *_ in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["workload"] == workload and record["seed"] == 3


def describe(workload: str, seed: int) -> list:
    """The operations a seed draws, with the values they must return."""
    lib = run.Lib(ROOT / "src", ROOT)
    wl = workloads.BUILDERS[workload](lib, random.Random(f"{workload}:{seed}"), "tiny", workloads.load_goldens())
    return [(op.name, op.expect()) for cycle in wl.cycles for op in cycle]


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_inputs(workload):
    assert describe(workload, 5) == describe(workload, 5)


def test_seed_changes_inputs():
    assert describe("elements", 5) != describe("elements", 6)


def test_same_seed_same_work_counts():
    runs = [result_of(bench("--workload", "group", "--seed", "4", "--seconds", "0.2", "--trace", "1", "--size", "tiny"))
            for _ in range(2)]  # fmt: skip
    counts = [
        {k: v["value"] for k, v in res["metrics"].items() if k in metrics.WORK_COUNTS or k.endswith(".calls")}
        for _, res in runs
    ]
    assert counts[0] == counts[1]
    assert runs[0][0]["work_counts"] == runs[1][0]["work_counts"]


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
