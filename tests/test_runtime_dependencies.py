"""The library needs numpy only at run time; scipy and mpmath are test-only.

The tests' oracles import scipy into this process, so the check runs the
library in a fresh interpreter and reads its ``sys.modules`` there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Every path that once reached scipy: the zeta tails of power_sum and of
# both analytic spectra, the logsumexp of price_plan, and the CLI.
SCRIPT = """
import contextlib, io, json, sys
import numpy as np
import activevars as av
from activevars import cli

korobov = av.build_spectrum(av.korobov_kernel(1.0), 2001)
wiener = av.build_spectrum(av.wiener_kernel(), 2000)
custom = av.build_spectrum(av.custom_kernel([0.5, 0.25, 0.125]))
model = av.CostModel(family="exponential", q=1.0)
for s in (korobov, wiener, custom):
    av.power_sum(s, 1.5)
for s in (korobov, wiener):
    av.price_plan(av.build_plan(0.05, 4, s), model)
    av.complexity_curve(s, 1.0, model, [1e-1, 1e-2], [2, 4])
f = av.random_function(3, korobov, seed=0)
av.eval_pointwise(f, korobov, np.random.default_rng(0).random((64, 3)))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["table"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_the_library_runs_without_importing_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
