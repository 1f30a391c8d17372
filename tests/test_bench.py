"""The benchmark's tracer must still find every call site it wraps, and
short runs of its workloads must pass their independent checks."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_trace_selftest():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "trace_selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def run_bench(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_frontier_1c_checks_pass():
    result = run_bench("frontier-1c")
    assert result["correct"] is True and result["failed"] == 0, result


def test_mucalc_weaksim_checks_pass():
    result = run_bench("mucalc-weaksim")
    assert result["correct"] is True and result["failed"] == 0, result


def test_frontier_2c_checks_pass():
    result = run_bench("frontier-2c")
    assert result["correct"] is True and result["failed"] == 0, result


def test_oracle_checks_pass():
    result = run_bench("oracle")
    assert result["correct"] is True and result["failed"] == 0, result
