"""Shared test helpers: set-partition enumeration, the
adaptive-quadrature normalizer used as the oracle for the weight kernel,
the direct alternating sum used as the reference for the exact route,
numpy and pure-Python references for the compiled loops, the scalar
urn's among them, and the compiled Gibbs-triangle descent, the serial
loop of the ``conditioned`` experiment, the step-by-step batch urn, the
per-state chain transition tables, and a fixture that clears the shared
g0 row cache."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy import integrate

from nigdiff import gibbs, particle
from nigdiff.cli import _rng
from nigdiff.errors import NumericalError
from nigdiff.gibbs import (GGParams, PDParams, _check_nk, _check_weight_row,
                           weights_batch, weights_gg_asymptotic,
                           weights_gg_quadrature, weights_pd)


def set_partitions(items):
    """All set partitions of a list, as lists of blocks."""
    if len(items) == 1:
        yield [items]
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [first]] + p[i + 1:]
        yield [[first]] + p


def exact_gen_factorial(n, k, alpha: Fraction):
    """C(n, k, alpha) as an exact rational via the triangular recursion."""
    table = {(0, 0): Fraction(1)}
    for m in range(n):
        for j in range(0, min(m, k) + 1):
            v = table.get((m, j), Fraction(0))
            if v == 0:
                continue
            table[(m + 1, j)] = (table.get((m + 1, j), Fraction(0))
                                 + (m - j * alpha) * v)
            if j + 1 <= k:
                table[(m + 1, j + 1)] = (table.get((m + 1, j + 1), Fraction(0))
                                         + alpha * v)
    return table.get((n, k), Fraction(0))


# ---------------------------------------------------------------------------
# Oracle: log V(n, k) by adaptive quadrature with brentq cut-offs

def _log_integrand(x, n, k, a, tau, alpha):
    """Log of the V(n, k) integrand
    x^(n-1) exp{-(a/alpha)[(tau+x)^alpha - tau^alpha]} (tau+x)^(alpha*k-n),
    vectorized over x (and over n, k when they are arrays)."""
    return ((n - 1) * np.log(x)
            - (a / alpha) * ((tau + x) ** alpha - tau ** alpha)
            + (alpha * k - n) * np.log(tau + x))


def _mode_poly(x, n, k, a, tau, alpha):
    """x*(tau+x) times d/dx of the log integrand; positive left of the
    mode, negative right of it."""
    return (n - 1) * (tau + x) + (alpha * k - n) * x - a * x * (tau + x) ** alpha


def _find_mode_scalar(n: int, k: int, params: GGParams) -> float:
    a, tau, alpha = params.a, params.tau, params.alpha
    if _mode_poly(1e-12, n, k, a, tau, alpha) <= 0:
        return 0.0
    hi = 1.0
    while _mode_poly(hi, n, k, a, tau, alpha) > 0:
        hi *= 2.0
        if hi > 1e30:
            raise NumericalError(
                f"mode search diverged at n={n}, k={k}, params={params}")
    from scipy.optimize import brentq
    return float(brentq(lambda x: _mode_poly(x, n, k, a, tau, alpha),
                        hi / 2.0 if hi > 1.0 else 1e-12, hi,
                        xtol=1e-14, rtol=1e-14))


_SCALAR_LOG_DROP = 80.0  # integrate where the log integrand is within 80
#                          of its peak; the excluded tails carry < e^-60
#                          of the mass even after width factors


@lru_cache(maxsize=200_000)
def adaptive_log_v(n: int, k: int, params: GGParams) -> float:
    """log V(n, k): normalizing constant of the Gibbs partition law,
    V(n, k) = (a^k / Gamma(n)) * integral of the unimodal integrand.

    Computed by adaptive quadrature of exp(log-integrand - peak), with
    the domain split at the mode and truncated where the integrand has
    dropped _SCALAR_LOG_DROP below the peak (an infinite upper limit
    makes the adaptive rule unreliable when the mode is very large).
    """
    from scipy.optimize import brentq
    _check_nk(n, k)
    a, tau, alpha = params.a, params.tau, params.alpha
    if a == 0.0:
        # the integral diverges at a = 0, but V has an elementary form
        return (k - 1) * math.log(alpha) + math.lgamma(k) - math.lgamma(n)
    mode = _find_mode_scalar(n, k, params)
    if mode > 0:
        gmax = float(_log_integrand(mode, n, k, a, tau, alpha))
    else:
        # integrand decreasing from x = 0+ (only possible at n = 1)
        gmax = float((alpha * k - n) * math.log(tau))

    log_tau_a = tau ** alpha

    def log_f(x):
        # pure-math scalar form of _log_integrand (quad calls pointwise,
        # where numpy scalar arithmetic would dominate the cost)
        return ((n - 1) * math.log(x)
                - (a / alpha) * ((tau + x) ** alpha - log_tau_a)
                + (alpha * k - n) * math.log(tau + x))

    def f(x):
        if x <= 0.0:
            return 0.0 if n > 1 else math.exp(
                (alpha * k - n) * math.log(tau) - gmax)
        return math.exp(log_f(x) - gmax)

    def g(x):
        return log_f(x) - gmax + _SCALAR_LOG_DROP

    total = 0.0
    if mode > 0:
        # left cutoff (only when the integrand vanishes at 0, i.e. n > 1)
        x_lo = 0.0
        if n > 1:
            lo = 0.5 * mode
            while lo > 1e-300 and g(lo) > 0.0:
                lo *= 0.5
            if g(lo) <= 0.0:
                # the cutoff only needs to sit near the -80 contour, so a
                # loose tolerance suffices (the excess tail is ~e^-80)
                x_lo = float(brentq(g, lo, mode, xtol=1e-300, rtol=1e-3))
        left, _ = integrate.quad(f, x_lo, mode, epsabs=1e-13,
                                 epsrel=1e-11, limit=200)
        total += left
    hi = 2.0 * max(mode, 1.0)
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise NumericalError(
                f"right-cutoff search diverged for V({n}, {k})")
    x_hi = float(brentq(g, max(mode, 1e-300), hi, rtol=1e-3))
    right, _ = integrate.quad(f, mode, x_hi, epsabs=1e-13,
                              epsrel=1e-11, limit=200)
    total += right
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError(
            f"quadrature failed for V({n}, {k}) with params={params}: "
            f"integral={total}")
    return gmax + math.log(total) + k * math.log(a) - math.lgamma(n)


# ---------------------------------------------------------------------------
# Reference: the exact route's sums evaluated term by term

_DIRECT_DPS = 50


@lru_cache(maxsize=None)
def _direct_gamma(beta: float, c: int):
    """Gamma(c; beta) for integer c in 50-digit arithmetic, by the exact
    one-step recursions from Gamma(0; beta) = E1(beta) downward to c <= 0
    and from Gamma(1; beta) = e^-beta upward to c >= 1."""
    import mpmath as mp
    with mp.workdps(_DIRECT_DPS):
        b = mp.mpf(beta)
        eb = mp.exp(-b)
        if c == 0:
            return mp.e1(b)
        if c == 1:
            return eb
        if c > 1:  # Gamma(c) = (c-1) Gamma(c-1) + b^(c-1) e^-b
            return (c - 1) * _direct_gamma(beta, c - 1) + b ** (c - 1) * eb
        # Gamma(c) = (Gamma(c+1) - b^c e^-b) / c
        return (_direct_gamma(beta, c + 1) - b ** c * eb) / c


def _direct_sum(n: int, k: int, beta: float):
    """sum_{s=0}^{n-1} binom(n-1, s) (-1)^s beta^{2s} Gamma(k - 2s; beta)
    in 50-digit arithmetic, summing the even-s and odd-s terms apart,
    with its condition log10(max(P, N)/|P - N|)."""
    import mpmath as mp
    with mp.workdps(_DIRECT_DPS):
        b2 = mp.mpf(beta) ** 2
        pos = mp.mpf(0)
        neg = mp.mpf(0)
        power = mp.mpf(1)
        for s in range(n):
            term = (math.comb(n - 1, s) * power
                    * _direct_gamma(beta, k - 2 * s))
            if s % 2 == 0:
                pos += term
            else:
                neg += term
            power *= b2
        total = pos - neg
        peak = max(pos, neg)
        if total <= 0 or peak <= 0:
            return total, float("inf")
        return total, max(0.0, float(mp.log10(peak / abs(total))))


def direct_exact_weights(n: int, k: int, beta: float):
    """(g0, g1, condition) of the alpha = 1/2 predictive weights from
    three direct alternating sums: g0 = S(n+1, k+1)/(2n S(n, k)),
    g1 = S(n+1, k)/(n S(n, k)), condition the largest of the three."""
    import mpmath as mp
    num0, c0 = _direct_sum(n + 1, k + 1, beta)
    num1, c1 = _direct_sum(n + 1, k, beta)
    den, cd = _direct_sum(n, k, beta)
    with mp.workdps(_DIRECT_DPS):
        return (float(0.5 * num0 / (n * den)), float(num1 / (n * den)),
                max(c0, c1, cd))


# ---------------------------------------------------------------------------
# References for the compiled event loops

def numpy_chain_ensemble(p_up, p_down, steps, k0, replicates, rng,
                         record_every=1):
    """The block-count chain as a per-step numpy loop over the replicas,
    one ``rng.random(replicates)`` per step: up when u < p_up[k], then
    down when u > 1 - p_down[k] at the updated k."""
    k = np.full(replicates, k0, dtype=np.int32)
    out = np.empty((steps // record_every + 1, replicates), dtype=np.int32)
    out[0] = k
    row = 1
    for step in range(1, steps + 1):
        u = rng.random(replicates)
        k += (u < p_up[k]).astype(np.int32)
        k -= (u > 1.0 - p_down[k]).astype(np.int32)
        if step % record_every == 0:
            out[row] = k
            row += 1
    return out[:row]


def numpy_g0_rows(m0, m1, lo, hi, params):
    """``gibbs._g0_rows`` as a numpy loop over the rows below the
    evaluator row m1: rho = rho d[k+1] / d[k], d = (m - alpha k) + rho and
    g0 = rho / d, one row shorter per step down."""
    k = np.arange(lo, min(m1, hi + m1 - m0) + 1.0)
    g0, g1 = weights_batch(m1, k, params)
    _check_weight_row(m1, k, g0, g1, params.alpha)
    rows = np.full((m1 - m0 + 1, k.size), np.nan)
    rows[-1] = g0
    ak = params.alpha * k
    rho = g0 / g1
    d = (m1 - ak) + rho
    for m in range(m1 - 1, m0 - 1, -1):
        rho = rho[:-1] * d[1:] / d[:-1]  # rho(m+1, k)
        d = (m - ak[:rho.size]) + rho
        rows[m - m0, :rho.size] = rho / d
    return rows


def numpy_urn_run(rows, lo, k, rng):
    """The batch urn's steps over g0 ``rows`` starting at block count
    ``lo``, one ``rng.random(k.size)`` per row, on a copy of ``k``: a run
    gains a block when its uniform is below its row's g0."""
    k = k.copy()
    for row in rows:
        k += rng.random(k.size) < row[k - lo]
    return k


def python_sample_partition(n, params, rng):
    """The block sizes of ``urn.sample_partition`` from a Python loop over
    its steps, on its grid of 256-step blocks ending at m = n - 1 and its
    g0 rows (``gibbs._g0_rows``), one ``rng.random`` per block: a step at
    (m, k) opens a block when u < g0, and otherwise walks
    x = (u - g0) / (1 - g0) * (m - alpha k) down the blocks, x -= n_j -
    alpha, and the first block at which x < 0 gains the item."""
    alpha = params.alpha
    sizes = [1]
    for m1 in range(1 + (n - 2) % 256, n, 256):
        m0 = max(1, m1 - 255)
        lo = len(sizes) - (len(sizes) - 1) % 256
        rows = gibbs._g0_rows(m0, m1, lo, lo + 255, params)
        for i, u in enumerate(rng.random(m1 - m0 + 1).tolist()):
            k = len(sizes)
            g0 = rows.item(i, k - lo)
            if u < g0:
                sizes.append(1)
                continue
            x = (u - g0) / (1.0 - g0) * (m0 + i - alpha * k)
            for j, size in enumerate(sizes):
                x -= size - alpha
                if x < 0.0:
                    sizes[j] = size + 1
                    break
            else:  # only reachable through roundoff at the top of the scale
                sizes[-1] += 1
    return sizes


def python_particle_run(slots, counts, events, alpha, uniforms, g0=None,
                        burn_in=0):
    """The scalar Moran event loop on Python lists, reading one unbroken
    sequence of uniforms: per event i, then the fresh draw (when a g0
    table is given), then (j, accept) pairs.  Returns (slots, counts,
    sum of sum_sq after the events numbered above burn_in, uniforms
    read)."""
    slots, counts = [int(v) for v in slots], [int(v) for v in counts]
    n = len(slots)
    k = sum(1 for c in counts if c)
    ssq = sum(c * c for c in counts)
    total = 0
    pos = 0
    for event in range(1, events + 1):
        i = int(uniforms[pos] * n)
        pos += 1
        removed = slots[i]
        singleton = counts[removed] == 1
        counts[removed] -= 1
        ssq -= 2 * counts[removed] + 1
        k -= singleton
        if g0 is None:
            fresh = singleton
        else:
            fresh = uniforms[pos] < g0[k - 1]
            pos += 1
        if fresh:
            target = removed if singleton else counts.index(0)
        else:
            while True:
                j, a = int(uniforms[pos] * n), uniforms[pos + 1]
                pos += 2
                if j == i:
                    continue
                target = slots[j]
                ct = counts[target]
                if a * ct < ct - alpha:
                    break
        slots[i] = target
        ssq += 2 * counts[target] + 1
        k += counts[target] == 0
        counts[target] += 1
        if event > burn_in:
            total += ssq
    return slots, counts, total, pos


def serial_conditioned(cfg, params, seed):
    """The rows of the ``conditioned`` experiment from one serial loop:
    the exact table first, then one chain per s value from
    ``_rng(seed, rep)``, as the runner computed them before its jobs ran
    on threads."""
    n = cfg["n"]
    burn_in = cfg.get("burn_in")
    if burn_in is None:
        burn_in = cfg["steps"] // 10
    ks = [max(1, min(n, round(float(s) * math.sqrt(n))))
          for s in cfg["s_values"]]
    exacts = gibbs.conditional_phi2_mean(n, ks, params.alpha)
    rows = []
    for rep, (s, k, exact) in enumerate(zip(cfg["s_values"], ks, exacts)):
        rng = _rng(seed, rep)
        sizes = particle.balanced_sizes(n, k)
        avg = particle.conditioned_phi2_average(
            sizes, cfg["steps"], params.alpha, rng, burn_in=burn_in)
        theta = float(s) ** 2 / 4.0
        oracle = (1.0 - params.alpha) / (theta + 1.0)
        rows.append([s, k, avg, exact, oracle, avg / oracle - 1.0])
    return rows


def g0_above_one(n, k, params):
    """A stand-in weight evaluator: g0 = 1.2 and the g1 that keeps
    g0 + g1 (n - alpha k) = 1, a row that only the range check refuses."""
    k = np.asarray(k, dtype=float)
    return np.full(k.shape, 1.2), -0.2 / (n - params.alpha * k)


_STEPWISE_G0 = {}  # (params, m, k) -> g0 of stepwise_k_batch


def stepwise_k_batch(n, params, replicates, rng):
    """Block counts of ``replicates`` urn runs grown one step at a time,
    one ``rng.random(replicates)`` per step: a run at (m, k) opens a new
    block when u < g0(m, k), with g0 clipped to [0, 1] from one kernel
    call per step over the distinct k present whose value no earlier
    call has memoized.  An evaluator value does not depend on the states
    it is evaluated with."""
    k = np.ones(replicates, dtype=np.int64)
    for m in range(1, n):
        uk = np.unique(k).tolist()
        if new := [v for v in uk if (params, m, v) not in _STEPWISE_G0]:
            g0 = np.clip(weights_batch(np.full(len(new), float(m)),
                                       np.array(new, float), params)[0],
                         0.0, 1.0)
            _STEPWISE_G0.update(((params, m, v), x)
                                for v, x in zip(new, g0.tolist()))
        g0 = np.array([_STEPWISE_G0[params, m, v] for v in uk])
        k += rng.random(replicates) < g0[np.searchsorted(uk, k)]
    return k


def stepwise_transition_tables(n, params, mode):
    """(p_up[k], p_down[k]) for k = 0..n of the cluster-count chain, one
    scalar weight call per state: p_up = (1 - alpha k/n) g0(n-1, k) and
    p_down = (alpha k/n) g1(n-1, k-1) (n-1 - alpha (k-1)), with barriers
    at k = 1 and k = n."""
    if isinstance(params, PDParams):
        weights = weights_pd
    elif mode == "exact":
        weights = weights_gg_quadrature
    else:
        weights = weights_gg_asymptotic
    alpha = params.alpha
    p_up = np.zeros(n + 1)
    p_down = np.zeros(n + 1)
    for k in range(1, n + 1):
        if k < n:
            p_up[k] = (1.0 - alpha * k / n) * weights(n - 1, k, params).g0
        if k > 1:
            p_down[k] = ((alpha * k / n) * weights(n - 1, k - 1, params).g1
                         * (n - 1 - alpha * (k - 1)))
    return p_up, p_down


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_row_cache():
    """Clear the engines' one row cache, the urn blocks and the evaluator
    rows that both urns and the particle table read, before and after the
    test, so that the test builds its own rows (from a patched evaluator,
    say) and leaves none of them behind."""
    gibbs._row_cache.clear()
    yield
    gibbs._row_cache.clear()


@pytest.fixture(scope="session", autouse=True)
def private_kernel_cache(tmp_path_factory):
    """Point the compiled kernels' cache at a directory of the session,
    so the tests, and the processes they start with this environment,
    never read or fill the user's cache."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
    yield
    patch.undo()
