"""The library needs numpy only at run time; scipy and mpmath are test-only.

The tests' oracles import scipy into this process, so the check runs
``numpy_only_run.py`` in a fresh interpreter and reads the scipy modules it
reports loaded there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def test_the_library_runs_without_importing_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "numpy_only_run.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
