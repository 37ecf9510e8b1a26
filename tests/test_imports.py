"""Import traffic: the package, its CLI and every sampler and weight
route run without loading scipy, which costs about half a second of
start-up; only the incomplete gamma, E1/Ei and the boundary quadrature
load it, on first use.  Likewise mpmath loads only with the exact
weights, however many working precisions their table is built at."""

import os
import subprocess
import sys

import nigdiff

SCRIPT = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy"
                  or m.startswith("scipy."))

import nigdiff, nigdiff.cli
assert scipy_modules() == [], scipy_modules()
assert "mpmath" not in sys.modules
assert "numpy.random" in sys.modules

import numpy as np
from nigdiff import (PDParams, sample_k_batch, sample_partition,
                     upper_incomplete_gamma)
from nigdiff.gibbs import (GGParams, conditional_phi2_mean, eppf, log_v,
                           m1_factorial_moment, m1_pmf, weights_batch,
                           weights_gg_exact, weights_gg_quadrature)
params = GGParams.from_beta(2.0)
rng = np.random.default_rng(0)
weights_gg_quadrature(20, 5, params)
log_v(30, 4, params)
eppf([3, 2, 1], params)
m1_pmf(8, 2, params)
m1_factorial_moment(8, 2, params)
weights_batch([10, 20], [3, 4], params)
conditional_phi2_mean(40, 6)
sample_k_batch(100, params, 10, rng)
sample_partition(30, params, rng)
sample_partition(30, PDParams(theta=1.0, alpha=0.5), rng)
nigdiff.cli.run("generator-check", {"n": 20, "paths": 20, "h": 0.02}, 1,
                sys.argv[1], "csv")
assert scipy_modules() == [], scipy_modules()
assert "mpmath" not in sys.modules

weights_gg_exact(20, 3, GGParams.from_beta(100.0))  # at 59, then 118 digits
assert "mpmath" in sys.modules
assert scipy_modules() == [], scipy_modules()

upper_incomplete_gamma(0.5, 1.0)
assert "scipy.special" in sys.modules
print("ok")
"""


def test_package_runs_without_scipy_until_special_functions(tmp_path):
    package = os.path.dirname(nigdiff.__file__)
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": os.path.dirname(package), "TMPDIR": str(tmp_path),
           "XDG_CACHE_HOME": os.environ["XDG_CACHE_HOME"],
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", SCRIPT,
                           str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
