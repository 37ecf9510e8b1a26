"""Shared test helpers: set-partition enumeration and counting, the
adaptive-quadrature normalizer used as the oracle for the weight kernel,
and the direct alternating sum used as the reference for the exact
route."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy import integrate

from nigdiff.errors import NumericalError
from nigdiff.gibbs import GGParams, _check_nk


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


def shape_count(shape):
    """Number of set partitions of [n] with the given block-size multiset:
    n! / (prod_j n_j! * prod_r m_r!)."""
    n = sum(shape)
    count = math.factorial(n)
    for s in shape:
        count //= math.factorial(s)
    mult = {}
    for s in shape:
        mult[s] = mult.get(s, 0) + 1
    for m in mult.values():
        count //= math.factorial(m)
    return count


def all_shapes(n):
    """All partitions of the integer n, sorted descending."""
    shapes = set()
    for p in set_partitions(list(range(n))):
        shapes.add(tuple(sorted((len(b) for b in p), reverse=True)))
    return sorted(shapes)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
