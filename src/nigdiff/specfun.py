"""Numerically robust special functions.

Pochhammer symbols, the upper incomplete gamma function at any real
first argument, the exponential integral Ei (boundary analytics),
generalized factorial coefficients (partition laws), and the positive
stable and alpha-diversity densities.  The coefficients come from a
triangular recursion whose terms are all positive, accumulated in log
space, so no alternating sum is needed.

scipy is imported only inside the incomplete gamma (``gammaincc``,
``exp1``) and Ei (``expi``), on their first call, so importing the
package does not pay scipy's half-second import.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, UnsupportedParameterError


# ---------------------------------------------------------------------------
# Pochhammer symbols

def pochhammer(a: float, m: int) -> float:
    """Rising factorial (a)_m = a(a+1)...(a+m-1), with (a)_0 = 1."""
    if m < 0:
        raise DomainError("pochhammer requires m >= 0")
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# Upper incomplete gamma, any real first argument

def _log_positive_gamma(c: float, x: float) -> float:
    """log Gamma(c; x) for c > 0 via the regularized function."""
    from scipy import special
    q = special.gammaincc(c, x)
    if q <= 0.0:
        # deep underflow: first-order asymptotic Gamma(c;x) ~ x^{c-1} e^{-x}
        # (only reachable far outside the supported (c, x) envelope)
        raise NumericalError(
            f"gammaincc underflow at c={c}, x={x}; argument outside the "
            "supported envelope")
    return float(special.gammaln(c) + math.log(q))


def _log_gamma_series_small_c(c: float, x: float) -> float:
    """log Gamma(c; x) for |c| < 1/2 and small x, via
    Gamma(c; x) = [Gamma(c) - x^c / c] - x^c sum_{k>=1} (-x)^k / (k! (c+k)).
    The 1/c cancellation in the bracket is removed analytically:
    with h(c) = lgamma(1+c)/c it equals -expm1(c (ln x - h)) / (c / Gamma(1+c)).
    """
    lx = math.log(x)
    if abs(c) >= 1e-4:
        h = math.lgamma(1.0 + c) / c
    else:
        # Taylor series of lgamma(1+c)/c; direct lgamma(1+c) loses the
        # leading digits of c to the representation error of 1+c
        h = -0.5772156649015329 + c * (0.8224670334241132 + c * (
            -0.4006856343865314 + c * 0.2705808084277845))
    bracket = -math.expm1(c * (lx - h)) / (c * math.exp(-c * h))
    term = 1.0
    tail = 0.0
    for k in range(1, 200):
        term *= -x / k
        tail += term / (c + k)
        if abs(term) < 1e-20 * (abs(tail) + 1e-30):
            break
    value = bracket - math.exp(c * lx) * tail
    if value <= 0.0:
        raise NumericalError(
            f"small-c incomplete-gamma series failed at c={c}, x={x}")
    return math.log(value)


def _log_gamma_continued_fraction(c: float, x: float) -> float:
    """log Gamma(c; x) by the Legendre continued fraction
    Gamma(c; x) = x^c e^-x / (x+1-c - 1(1-c)/(x+3-c - 2(2-c)/(...))),
    evaluated with the modified Lentz algorithm.  Converges quickly
    unless both |c| and x are small."""
    tiny = 1e-300
    b = x + 1.0 - c
    cc = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    f = d
    for i in range(1, 20_000):
        an = -i * (i - c)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = tiny
        cc = b + an / cc
        if cc == 0.0:
            cc = tiny
        d = 1.0 / d
        delta = d * cc
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            if f <= 0.0:
                break  # roundoff produced a nonpositive value; use ladder
            return c * math.log(x) - x + math.log(f)
    raise NumericalError(
        f"incomplete-gamma continued fraction failed at c={c}, x={x}")


def log_upper_incomplete_gamma(c: float, x: float) -> float:
    """Natural log of Gamma(c; x) = int_x^inf s^(c-1) e^(-s) ds.

    The integrand is positive for x > 0, so the value itself is always
    positive and the log is well defined for any real c.  Negative c is
    handled by the Legendre continued fraction where it converges fast
    (x >= 0.3 or c <= -4), else by the downward-stable recursion
    Gamma(c; x) = (Gamma(c+1; x) - x^c e^(-x)) / c anchored at
    c' = frac(c) + 1 (or at Gamma(0; x) = E1(x) for integer c); the
    small-|c|, small-x corner uses a cancellation-free power series.

    Accuracy: better than ~1e-12 relative on c in [-60, 60],
    x in [1e-3, 50].
    """
    if x <= 0:
        raise DomainError("upper incomplete gamma requires x > 0")
    from scipy import special
    if abs(c) < 1e-300:
        # Gamma(c; x) -> E1(x); avoids 0/0 in the series branch and the
        # underflow of gammaincc (Q ~ c E1) at denormal c
        return math.log(special.exp1(x))
    if x < 0.3 and abs(c) < 0.5:
        # neither the continued fraction (slow convergence) nor the
        # recursion (1/c roundoff amplification) is reliable here
        return _log_gamma_series_small_c(c, x)
    if c > 0:
        return _log_positive_gamma(c, x)
    if x >= 0.3 or c <= -4.0:
        try:
            return _log_gamma_continued_fraction(c, x)
        except NumericalError:
            pass  # fall through to the recursion ladder

    floor_c = math.floor(c)
    frac = c - floor_c
    lx = math.log(x)
    if frac == 0.0:
        cur = 0.0
        logg = math.log(special.exp1(x))
    else:
        cur = frac + 1.0  # in (1, 2)
        logg = _log_positive_gamma(cur, x)

    # step down one unit at a time until cur == c
    while cur > c + 0.5:
        tgt = cur - 1.0
        t = tgt * lx - x  # log(x^tgt e^{-x})
        if tgt == 0.0:
            # rounding of frac(c) can land the ladder exactly on zero,
            # where the closed form Gamma(0; x) = E1(x) is available
            logg = math.log(special.exp1(x))
            cur = tgt
            continue
        if tgt > 0:
            # Gamma(tgt; x) = (Gamma(tgt+1; x) - x^tgt e^{-x}) / tgt
            d = t - logg
            if d >= -1e-15:  # the two terms coincided to full precision
                d = -1e-15
            logg = logg + math.log1p(-math.exp(d)) - math.log(tgt)
        else:
            # Gamma(tgt; x) = (x^tgt e^{-x} - Gamma(tgt+1; x)) / (-tgt)
            d = logg - t
            if d >= -1e-15:
                d = -1e-15
            logg = t + math.log1p(-math.exp(d)) - math.log(-tgt)
        cur = tgt
    return logg


def upper_incomplete_gamma(c: float, x: float) -> float:
    """Gamma(c; x) for any real c and x > 0."""
    return math.exp(log_upper_incomplete_gamma(c, x))


# ---------------------------------------------------------------------------
# Exponential integral

def exp_integral_ei(z: float) -> float:
    """Ei(z), principal value for z > 0; domain error at the singularity."""
    if z == 0:
        raise DomainError("Ei has a logarithmic singularity at 0")
    from scipy import special
    return float(special.expi(z))


# ---------------------------------------------------------------------------
# Generalized factorial coefficients

def gen_factorial_coeff_log_table(n_max: int, k_max: int,
                                  alpha: float) -> "np.ndarray":
    """log C(n, k, alpha) for all 0 <= n <= n_max, 0 <= k <= k_max, via
    the triangular recursion

        C(n+1, k) = (n - k alpha) C(n, k) + alpha C(n, k-1),

    whose terms stay positive for alpha in (0, 1).  Structural zeros are
    -inf.  O(n_max * k_max) total.
    """
    if n_max < 0 or k_max < 0:
        raise DomainError("table bounds must be nonnegative")
    if not 0.0 < alpha < 1.0:
        raise DomainError("gen_factorial_coeff requires alpha in (0, 1)")
    table = np.full((n_max + 1, k_max + 1), -np.inf)
    table[0, 0] = 0.0
    log_alpha = math.log(alpha)
    for n in range(n_max):
        kmax = min(n + 1, k_max)
        prev = table[n]
        ks = np.arange(1, kmax + 1)
        coef = n - ks * alpha
        same_k = np.where(coef > 0,
                          np.log(np.maximum(coef, 1e-300)) + prev[1:kmax + 1],
                          -np.inf)
        table[n + 1, 1:kmax + 1] = np.logaddexp(same_k,
                                                log_alpha + prev[0:kmax])
    return table


def gen_factorial_coeff(n: int, k: int, alpha: float) -> float:
    """Generalized factorial coefficient C(n, k, alpha) as a float, read
    from gen_factorial_coeff_log_table; 0 where the coefficient vanishes
    (k > n, or k = 0 < n)."""
    table = gen_factorial_coeff_log_table(n, min(k, n), alpha)
    return math.exp(table[n, k]) if k <= n else 0.0


# ---------------------------------------------------------------------------
# Positive stable (alpha = 1/2) and alpha-diversity densities

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def stable_half_density(x: float) -> float:
    """Levy density f(x; 1/2) = (2 sqrt(pi))^-1 x^-3/2 exp(-1/(4x))."""
    if x <= 0:
        raise DomainError("stable density requires x > 0")
    return math.exp(-0.25 / x) / (_TWO_SQRT_PI * x ** 1.5)


def alpha_diversity_density(s: float, params) -> float:
    """Density of the a.s. limit of K_n / n^alpha for the generalized
    gamma family; closed form only for alpha = 1/2.

    ``params`` is a GGParams instance (duck-typed: needs .alpha, .beta).
    """
    if s <= 0:
        raise DomainError("alpha-diversity density requires s > 0")
    alpha = params.alpha
    if alpha != 0.5:
        raise UnsupportedParameterError(
            "closed-form stable density only available at alpha = 1/2")
    beta = params.beta
    prefactor_exponent = beta - (beta / s) ** 2
    if prefactor_exponent < -745.0:  # exp underflow; density is genuinely 0
        return 0.0
    return (math.exp(prefactor_exponent) * stable_half_density(s ** -2.0)
            / (alpha * s ** 3))
