"""Run the library's numpy-only paths and fail if any of them imports scipy.

The library needs numpy alone at run time; scipy and mpmath are test
oracles.  Each call below once reached scipy or checks a closed form: the
zeta tails of ``power_sum`` and of both analytic spectra, the log-space
prices of ``price_plan`` and ``complexity_curve``, the binomial tail at
``d = 10**6``, a norm near ``1e180``, pointwise evaluation, Monte Carlo,
the cda certificate, the refusal of a non-orthogonal kernel and the CLI.

Run it as ``python tests/numpy_only_run.py`` on an install without scipy.
It prints the scipy modules it loaded as a JSON list on its last line and
exits nonzero unless that list is empty.  Under pytest the tests' oracles
import scipy into the process, so ``test_runtime_dependencies.py`` runs
this file in a fresh interpreter.
"""

import contextlib
import io
import json
import sys

import numpy as np

import activevars as av
from activevars import cli
from activevars.errors import InvalidConfigurationError

korobov = av.build_spectrum(av.korobov_kernel(1.0), 2001)
wiener = av.build_spectrum(av.wiener_kernel(), 2000)
custom = av.build_spectrum(av.custom_kernel([0.5, 0.25, 0.125]))
model = av.CostModel(family="exponential", q=1.0)

for s in (korobov, wiener, custom):
    av.power_sum(s, 1.5)
for s in (korobov, wiener):
    av.price_plan(av.build_plan(0.05, 4, s), model)
    av.complexity_curve(s, 1.0, model, [1e-1, 1e-2], [2, 4])
av.complexity_curve(korobov, 1.0, model, [1e-1, 1e-2], [2, 5], tau=1.0)
av.complexity_curve(wiener, 1.0, model, [1e-1, 1e-2], [3, 10])

assert av.truncation_level(0.05, 10**6, 0.5).level == 4
f = av.AnovaFunction(d=10**6, terms={tuple(range(1, 61)): {(1,) * 60: 1.0}})
assert 0.99e180 < av.h_norm(f) < 1.01e180

x = np.random.default_rng(0).random((64, 3))
av.eval_pointwise(av.random_function(3, korobov, seed=0), korobov, x)
x = np.random.default_rng(0).random((300, 10))
mean = av.eval_pointwise(av.mean_function(10, wiener), wiener, x)
assert np.max(np.abs(mean - x.mean(axis=1))) < 1e-3

g = av.random_function(4, korobov, seed=1)
est, se = av.mc_l2_error(g, av.AnovaFunction(d=4), korobov, samples=2000, seed=2)
assert abs(est - av.g_norm_exact(g, korobov, orthogonal=True).value) <= 4 * se

for s, exact in ((korobov, True), (wiener, False), (custom, False)):
    h = av.random_function(3, s, seed=0)
    assert av.CdaApplier(av.build_plan(0.3, 3, s), s).apply(h).exact is exact

try:
    av.optimal_algorithm(0.1, 3, wiener)
except InvalidConfigurationError:
    pass
else:
    raise AssertionError("optimal_algorithm took the wiener kernel")

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["table"]) == 0

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
sys.exit(1 if loaded else 0)
