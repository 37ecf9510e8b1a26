"""Output checks. Every oracle here is computed apart from nigdiff (this
module does not import it): the Gibbs constraint, the benchmark's own
shape enumeration and count, the log-space recursion of the generalized
factorial coefficients, the exact finite-n law of the block count K_n
from the benchmark's own quadrature of the V(n, k) integrand, and
properties the methods must have.

The two known faults are counted, not raised: a ``weights_gg_exact``
call refused with ``PrecisionLossError``, and a singleton-count law
that raises, misses normalization by more than 1e-6 or has a value
outside [0, 1]. Any other failed check raises ``CheckError``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os

import numpy as np

ALPHA = 0.5
EXACT_CONSTRAINT_TOL = 1e-9   # criterion-01
QUAD_CONSTRAINT_TOL = 1e-7    # criterion-01
ROUTE_AGREEMENT_TOL = 1e-7    # relative, exact against quadrature
EPPF_SUM_TOL = 1e-7           # criterion-02
M1_SUM_TOL = 1e-6             # criterion-05
PHI2_TOL = 1e-9               # relative, against the recursion
KBLOCK_Z_MAX = 5.0            # pooled mean of K_n against the exact law
KBLOCK_CHI2_P_MIN = 1e-6      # pooled histogram against the exact law
GENERATOR_Z_MAX = 5.0         # per generator-check seed
CONDITIONED_T_MAX = 8.0       # pooled relative error over seeds, in SEs


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Oracles

def log_gen_factorial(n_max: int, alpha: float, start=None) -> np.ndarray:
    """log C(m, k; alpha) for m <= n_max, by the positive recursion
    C(m+1, k) = (m - k alpha) C(m, k) + alpha C(m, k-1), C(0, 0) = 1.

    With ``start = (m0, row)`` the recursion runs from the log row
    ``row`` (indexed by k) at m = m0 instead; the result is the row at
    m = n_max."""
    m0, row = (0, np.array([0.0])) if start is None else start
    log_alpha = math.log(alpha)
    for m in range(m0, n_max):
        k = np.arange(1, m + 2)
        same = np.full(m + 2, -np.inf)
        same[1:m + 1] = np.log(m - k[:-1] * alpha) + row[1:m + 1]
        new = np.full(m + 2, -np.inf)
        new[1:] = np.logaddexp(same[1:], log_alpha + row[:m + 1])
        row = new
    return row


@functools.lru_cache(maxsize=None)
def _pair_rows(n: int, alpha: float):
    every = log_gen_factorial(n, alpha)
    together = log_gen_factorial(
        n, alpha,
        (2, np.array([-np.inf, math.log(alpha * (1 - alpha)), -np.inf])))
    return every, together


def phi2_given_k(n: int, k: int, alpha: float) -> float:
    """E[sum_j (n_j/n)^2 | K_n = k] for a Gibbs partition with discount
    alpha. Items enter one at a time: joining a block of size s weighs
    (s - alpha), opening one weighs alpha (in C's normalization), which
    is the recursion above. The partitions in which items 1 and 2 share
    a block follow it from C(2, 1) = alpha (1 - alpha), C(2, 2) = 0, and
    their share of C(n, k) is the pair probability."""
    every, together = _pair_rows(n, alpha)
    p = math.exp(together[k] - every[k])
    return (n * (n - 1) * p + n) / (n * n)


def k_law(n: int, beta: float, alpha: float = ALPHA, tau: float = 1.0
          ) -> np.ndarray:
    """P(K_n = k), k = 0..n, for the generalized-gamma Gibbs partition:
    V(n, k) C(n, k; alpha) / alpha^k, with
    V(n, k) = a^k / Gamma(n) * int_0^inf x^(n-1) (tau + x)^(alpha k - n)
              exp{-(a/alpha)[(tau + x)^alpha - tau^alpha]} dx,
    integrated by the trapezoid rule in u = log x (the integrand decays
    exponentially as u -> -inf and doubly exponentially as u -> inf, so
    the rule converges geometrically in the step)."""
    a = beta * alpha / tau ** alpha
    u = np.arange(-30.0, 40.0, 1e-3)
    log_tx = np.logaddexp(math.log(tau), u)
    base = (n * u - (a / alpha) * (np.exp(alpha * log_tx) - tau ** alpha)
            - n * log_tx)
    log_c = log_gen_factorial(n, alpha)
    log_p = np.full(n + 1, -np.inf)
    for k in range(1, n + 1):
        g = base + alpha * k * log_tx
        peak = g.max()
        log_int = peak + math.log(np.exp(g - peak).sum() * 1e-3)
        log_p[k] = (k * math.log(a) - math.lgamma(n) + log_int
                    + log_c[k] - k * math.log(alpha))
    return np.exp(log_p)


def integer_partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        j, total = 1, 0
        while True:
            g1, g2 = j * (3 * j - 1) // 2, j * (3 * j + 1) // 2
            if g1 > m:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            j += 1
        p[m] = total
    return p[n]


def shape_count(shape) -> int:
    """Set partitions of [n] with the given block sizes:
    n! / (prod n_j! prod_r m_r!)."""
    count = math.factorial(sum(shape))
    for s in shape:
        count //= math.factorial(s)
    for s in set(shape):
        count //= math.factorial(list(shape).count(s))
    return count


# ---------------------------------------------------------------------------
# CLI outputs (read in the worker, after the timed call)

def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def read_cli_output(out_dir: str, experiment: str) -> dict:
    """Check the manifest's SHA-256 of every file and extract the
    numbers the checks use."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    _require(manifest["experiment"] == experiment,
             f"manifest names {manifest['experiment']!r}")
    for name, digest in manifest["files"].items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            _require(hashlib.sha256(fh.read()).hexdigest() == digest,
                     f"{experiment}: SHA-256 of {name} does not match")
    out = {"experiment": experiment, "n": manifest["config"]["n"]}
    if experiment == "generator-check":
        row = _read_csv(os.path.join(out_dir, "generator.csv"))[0]
        return {**out, "z": float(row[5])}
    if experiment == "conditioned":
        rows = _read_csv(os.path.join(out_dir, "conditioned.csv"))
        return {**out,
                "rows": [[float(r[0]), int(r[1]), float(r[2]), float(r[3])]
                         for r in rows]}
    if experiment == "figure1":
        levels = {}
        for name in manifest["files"]:
            beta = float(name[len("figure1_beta"):-len(".csv")])
            values = [float(r[2]) for r in
                      _read_csv(os.path.join(out_dir, name))]
            tail = values[len(values) * 2 // 3:]
            levels[beta] = sum(tail) / len(tail)
        return {**out, "levels": sorted(levels.items())}
    if experiment == "particles":
        rows = _read_csv(os.path.join(out_dir, "particles.csv"))
        return {**out, "rows": [[float(v) for v in r] for r in rows]}
    raise CheckError(f"no reader for {experiment!r}")


# ---------------------------------------------------------------------------
# Workload checks: each returns the number of failed operations

def check_weights_laws(items: list, outputs: list) -> int:
    failed = 0
    exact, quad = {}, {}
    eppf_sums = {}
    m1_laws = {}
    for item, out in zip(items, outputs):
        kind = item[0]
        if kind in ("exact", "quadrature"):
            beta, n, k, g0, g1 = out[:5]
            if g0 is None:  # a refused exact call: known fault 1
                failed += 1
                continue
            tol = EXACT_CONSTRAINT_TOL if kind == "exact" \
                else QUAD_CONSTRAINT_TOL
            residual = abs(g0 + (n - ALPHA * k) * g1 - 1.0)
            _require(residual <= tol, f"{kind} constraint residual "
                     f"{residual:.3g} at beta={beta}, n={n}, k={k}")
            (exact if kind == "exact" else quad)[beta, n, k] = (g0, g1)
        elif kind == "eppf":
            beta, shape, p = out
            key = (beta, sum(shape))
            total, shapes = eppf_sums.get(key, (0.0, 0))
            eppf_sums[key] = (total + shape_count(shape) * p, shapes + 1)
        elif kind == "m1":
            beta, n, m, p = out
            m1_laws.setdefault((beta, n), {})[m] = p
        elif kind == "phi2":
            n, k, value = out
            want = phi2_given_k(n, k, ALPHA)
            _require(abs(value / want - 1.0) <= PHI2_TOL,
                     f"conditional_phi2_mean({n}, {k}) = {value!r}, "
                     f"recursion gives {want!r}")
    for key in exact.keys() & quad.keys():
        for got, want in zip(exact[key], quad[key]):
            _require(abs(got / want - 1.0) <= ROUTE_AGREEMENT_TOL,
                     f"exact and quadrature weights differ at {key}: "
                     f"{exact[key]} against {quad[key]}")
    for (beta, n), (total, shapes) in eppf_sums.items():
        _require(shapes == integer_partition_count(n),
                 f"{shapes} shapes of {n}, p({n}) = "
                 f"{integer_partition_count(n)}")
        _require(abs(total - 1.0) <= EPPF_SUM_TOL,
                 f"EPPF over the shapes of n={n} at beta={beta} sums to "
                 f"{total!r}")
    for (beta, n), law in m1_laws.items():
        _require(sorted(law) == list(range(n + 1)),
                 f"singleton-count law ({beta}, {n}) incomplete")
        values = list(law.values())
        if (None in values or abs(sum(values) - 1.0) > M1_SUM_TOL
                or min(values) < 0.0 or max(values) > 1.0):
            failed += 1
    return failed


def check_kblock(outputs: list) -> None:
    pooled = {}
    for out in outputs:
        pooled.setdefault((out["n"], out["beta"]), []).extend(out["k"])
    for (n, beta), ks in pooled.items():
        law = k_law(n, beta)
        _require(abs(law.sum() - 1.0) < 1e-9,
                 f"K_n oracle sums to {law.sum()!r}")
        ks = np.asarray(ks)
        _require(ks.min() >= 1 and ks.max() <= n, "K_n outside [1, n]")
        support = np.arange(n + 1)
        mean = float((support * law).sum())
        sd = math.sqrt(float((support ** 2 * law).sum()) - mean ** 2)
        z = (ks.mean() - mean) / (sd / math.sqrt(ks.size))
        _require(abs(z) <= KBLOCK_Z_MAX,
                 f"pooled mean of K_{n} at beta={beta}: z = {z:.2f}")
        from scipy import stats  # kept out of the workers' imports
        expected = law * ks.size
        observed = np.bincount(ks, minlength=n + 1).astype(float)
        # bins of consecutive k with >= 5 expected each; the rest of the
        # mass joins its neighbour
        edges, acc = [], 0.0
        for k in range(n + 1):
            acc += expected[k]
            if acc >= 5.0:
                edges.append(k + 1)
                acc = 0.0
        edges[-1] = n + 1
        cuts = [0] + edges
        obs = np.array([observed[a:b].sum() for a, b in zip(cuts, cuts[1:])])
        exp = np.array([expected[a:b].sum() for a, b in zip(cuts, cuts[1:])])
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        p = float(stats.chi2.sf(chi2, len(obs) - 1))
        _require(p >= KBLOCK_CHI2_P_MIN,
                 f"histogram of K_{n} at beta={beta}: chi2 {chi2:.1f} on "
                 f"{len(obs) - 1} df, p = {p:.2g}")


def check_moran(outputs: list) -> None:
    for out in outputs:
        _require(abs(out["z"]) <= GENERATOR_Z_MAX,
                 f"generator-check z = {out['z']:.2f}")


def check_long_chains(outputs: list) -> None:
    rel = []
    levels = {}
    for out in outputs:
        if out["experiment"] == "conditioned":
            for s, k, average, stationary in out["rows"]:
                exact = phi2_given_k(out["n"], k, ALPHA)
                _require(abs(stationary / exact - 1.0) <= PHI2_TOL,
                         f"conditioned stationary_exact {stationary!r} at "
                         f"k={k}, recursion gives {exact!r}")
                rel.append(average / exact - 1.0)
        elif out["experiment"] == "figure1":
            for beta, level in out["levels"]:
                levels.setdefault(beta, []).append(level)
        elif out["experiment"] == "particles":
            for row in out["rows"]:
                k_rescaled, freqs = row[1], row[3:]
                sqrt_n = math.sqrt(out["n"])
                _require(1 / sqrt_n - 1e-12 <= k_rescaled <= sqrt_n + 1e-12,
                         f"K/sqrt(n) = {k_rescaled!r}")
                _require(all(f >= 0.0 for f in freqs)
                         and all(a >= b for a, b in zip(freqs, freqs[1:]))
                         and sum(freqs) <= 1.0 + 1e-12,
                         "particle frequencies not sorted, nonnegative "
                         "and at most 1 in sum")
    rel = np.asarray(rel)
    t = rel.mean() / (rel.std(ddof=1) / math.sqrt(rel.size))
    _require(abs(t) <= CONDITIONED_T_MAX,
             f"conditioned time averages off the exact means by "
             f"{rel.mean():+.3f} (t = {t:.2f} over {rel.size})")
    means = [sum(v) / len(v) for _, v in sorted(levels.items())]
    _require(all(a < b for a, b in zip(means, means[1:])),
             f"figure1 long-run levels not increasing in beta: {means}")
