"""The tools beside the package run: perfbench's own tests and the scripts.

Each runs in a child process and must exit 0. perfbench's tests run in a
session of their own, not in this one: their conftest sets
OPENBLAS_NUM_THREADS=1 at startup, which in a shared session lands after
numpy's OpenBLAS has started and before scipy's has. The scripts run at
their smallest sizes; together these take about 7 s.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRIPTS = os.path.join(ROOT, "scripts")

COMMANDS = {
    "perfbench-tests": ["-m", "pytest", "-q", os.path.join(ROOT, "perfbench", "tests")],
    "envelope_slice": [os.path.join(SCRIPTS, "envelope_slice.py"), "--n", "12",
                       "--points", "3"],
    "build_cost": [os.path.join(SCRIPTS, "build_cost.py"), SRC, "--n", "30", "--k", "1"],
    "iter_cost": [os.path.join(SCRIPTS, "iter_cost.py"), SRC, SRC, "--n", "30",
                  "--k", "1"],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_tool_exits_zero(name, tmp_path):
    # outputs that a tool writes to its working directory land in tmp_path
    env = {**os.environ, "PYTHONPATH": SRC}
    child = subprocess.run([sys.executable, *COMMANDS[name]], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, f"{name} exited {child.returncode}:\n" \
        f"{child.stdout[-2000:]}\n{child.stderr[-2000:]}"
