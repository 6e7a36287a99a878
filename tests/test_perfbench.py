"""The benchmark's tracer self-test as a suite test: a change to a call
count that `perfbench/selftest.py` pins fails here, not only in a traced
benchmark run."""
import os
import subprocess
import sys

SELFTEST = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "selftest.py")


def test_perfbench_selftest_passes(tmp_path):
    proc = subprocess.run([sys.executable, SELFTEST, "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
