"""The benchmark's tracer must still find every call site it wraps."""
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
