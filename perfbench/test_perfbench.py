#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale smoke run of every workload,
untraced and traced, plus a schema check of what they print.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Checks, for each workload:
  * the last stdout line is one JSON object with exactly the keys
    correct, attempted, failed and metrics; correct is true, failed 0;
  * --trace 0 reports exactly the end_to_end metrics of BENCHMARK.json
    and --trace 1 exactly the per_layer metrics, with their units, as
    finite numbers (end-to-end ones positive);
and, for cities_cold, that two traced runs print identical non-exec/
counters (threads=1 against threads=2 is asserted inside each run).
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cities_cold", "serve_read", "serve_churn"]


def run(workload, trace, seed=7):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}:\n{done.stdout[-3000:]}"
                             f"\n{done.stderr[-3000:]}")
    return lines


def check_result(line, expected, positive):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected], sorted(metrics)
    for metric in expected:
        row = metrics[metric["name"]]
        assert set(row) == {"value", "unit"}, row
        assert row["unit"] == metric["unit"], (metric, row)
        assert isinstance(row["value"], (int, float))
        assert math.isfinite(row["value"]), (metric, row)
        if positive:
            assert row["value"] > 0, (metric, row)


def check_benchmark_json(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric


def counters(lines):
    return [line for line in lines if line.startswith("counter ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_benchmark_json(spec)
    for workload in WORKLOADS:
        check_result(run(workload, 0)[-1], spec["end_to_end"], positive=True)
        traced = run(workload, 1)
        check_result(traced[-1], spec["per_layer"], positive=False)
        if workload == "cities_cold":
            again = run(workload, 1, seed=8)
            assert counters(traced) and counters(traced) == counters(again), (
                "cities_cold counters differ between two traced runs")
        print(f"ok {workload}")
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
