"""Predictive weights, partition probabilities and singleton-count law
for generalized-gamma (in particular normalized inverse-Gaussian) and
Poisson-Dirichlet random measures.

Two routes are provided for the generalized-gamma predictive weights
(g0, g1), plus an approximation:

* ``weights_gg_exact`` — the independent reference, alpha = 1/2 only.
  V(n, k) is, up to a prefactor, an alternating sum S = P - N of
  incomplete-gamma terms.  One 50-digit build per beta runs a two-term
  recursion in which every term is positive, P(n+1, k) = P(n, k) +
  beta^2 N(n, k-2) and N(n+1, k) = N(n, k) + beta^2 P(n, k-2), and
  keeps only a float table of (g0, g1, condition).  The single
  subtraction P - N is the one cancellation left; it grows with n and
  beta, and the routine refuses to answer once fewer than 16
  significant digits would survive.
* ``weights_gg_quadrature`` — read from one vectorized log-space kernel
  that integrates the unimodal V(n, k) integrand with Newton-located
  cut-offs and Gauss-Legendre nodes, returning log V(n, k) and
  w(n, k) = E[x/(tau+x)], from which g1 = w/n and
  g0 = 1 - (1 - alpha*k/n) w.  Uniformly stable, any alpha.
* ``weights_gg_asymptotic`` — the second-order large-n approximation
  g0 = alpha*k/n + (beta/s_n)/n, g1 = 1/n - (beta/s_n)/n^2.

The same kernel backs ``log_v``, which scalar callers read, like
``weights_gg_quadrature``, from one table of n-rows per parameter set,
and ``g0_batch``, which evaluates arrays of states for the samplers.

The partition laws (EPPF, singleton-count law and its factorial
moments) are sums of positive terms V(n, k) times weighted partition
counts, the counts built by positive triangular recursions in log
space, so they need no cancellation control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import (DomainError, NumericalError, PrecisionLossError,
                     UnsupportedParameterError)
from .specfun import gen_factorial_coeff_log_table

_MP_DPS = 50  # working precision of the exact route, in decimal digits


# ---------------------------------------------------------------------------
# Parameter types

@dataclass(frozen=True)
class GGParams:
    """Generalized-gamma parameter set (a, tau, alpha).

    ``a = 0`` is the normalized-stable boundary case, where the weights
    and partition probabilities have elementary closed forms.
    ``alpha = 1/2`` is the normalized inverse-Gaussian case, the only
    one for which the exact route and the diffusion limits are
    supported.
    """

    a: float
    tau: float = 1.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.a < 0:
            raise DomainError("GGParams requires a >= 0")
        if self.tau <= 0:
            raise DomainError("GGParams requires tau > 0")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("GGParams requires alpha in (0, 1)")

    @property
    def beta(self) -> float:
        return self.a * self.tau ** self.alpha / self.alpha

    @property
    def is_nig(self) -> bool:
        return self.alpha == 0.5

    @staticmethod
    def from_beta(beta: float, tau: float = 1.0,
                  alpha: float = 0.5) -> "GGParams":
        if beta < 0:
            raise DomainError("beta must be >= 0")
        return GGParams(a=beta * alpha / tau ** alpha, tau=tau, alpha=alpha)


@dataclass(frozen=True)
class PDParams:
    """Two-parameter Poisson-Dirichlet parameter set (theta, alpha)."""

    theta: float
    alpha: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError("PDParams requires alpha in [0, 1)")
        if self.theta <= -self.alpha:
            raise DomainError("PDParams requires theta > -alpha")


@dataclass(frozen=True)
class WeightPair:
    """Predictive-rule weights: g0 starts a new type, g1 multiplies the
    (size - alpha) reinforcement of each existing type."""

    g0: float
    g1: float
    condition_estimate: float = 0.0


def _check_nk(n: int, k: int) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise DomainError(f"k must be in [1, n], got k={k}, n={n}")


# ---------------------------------------------------------------------------
# Poisson-Dirichlet weights

def weights_pd(n: int, k: int, params: PDParams) -> WeightPair:
    """g0 = (theta + alpha*k)/(theta + n), g1 = 1/(theta + n)."""
    _check_nk(n, k)
    denom = params.theta + n
    return WeightPair(g0=(params.theta + params.alpha * k) / denom,
                      g1=1.0 / denom, condition_estimate=0.0)


# ---------------------------------------------------------------------------
# Exact route: a positive two-term recursion in 50-digit arithmetic

_exact_tables = {}  # beta -> rows, rows[n - 1][k - 1] = (g0, g1, condition)


def _exact_rows(n: int, beta: float):
    """Float rows (g0, g1, condition) for the states 1 <= k <= n' <= top,
    top >= n, from one 50-digit build per beta; a larger n rebuilds them
    to at least twice the old top.  No 50-digit value outlives a build.

    V(n, k) at alpha = 1/2 is, up to the prefactor alpha^(k-1) e^beta /
    Gamma(n), S(n, k) = sum_s binom(n-1, s) (-1)^s beta^(2s)
    Gamma(k - 2s; beta).  Write it as P - N, the sums of its even-s and
    odd-s terms; Pascal's rule gives a recursion of positive terms,

        P(m+1, k) = P(m, k) + beta^2 N(m, k-2),
        N(m+1, k) = N(m, k) + beta^2 P(m, k-2),

    from P(1, k) = Gamma(k; beta) and N(1, k) = 0, with Gamma(c; beta)
    for integer c from the exact one-step recursions out of
    Gamma(0; beta) = E1(beta) and Gamma(1; beta) = e^-beta.  The one
    cancellation left is P - N, whose condition is
    log10(max(P, N)/|P - N|) (inf, with a NaN sum, when it is not > 0).
    """
    import mpmath as mp
    rows = _exact_tables.get(beta, [])
    if n <= len(rows):
        return rows
    top = max(n, 64, 2 * len(rows))
    rows, prev = [], None
    with mp.workdps(_MP_DPS):
        b = mp.mpf(beta)
        eb, b2 = mp.exp(-b), b ** 2
        up, down = [eb], [mp.e1(b)]  # Gamma(1), Gamma(2), ...; Gamma(0), ...
        for j in range(1, top + 1):  # Gamma(j+1) = j Gamma(j) + b^j e^-b
            up.append(j * up[-1] + b ** j * eb)
        for j in range(0, 1 - 2 * top, -1):  # down to Gamma(1 - 2 top)
            down.append((down[-1] - b ** (j - 1) * eb) / (j - 1))
        pos = down[::-1] + up  # row m holds k = 1 - 2(top + 1 - m) .. top + 1
        neg = [mp.mpf(0)] * len(pos)
        for m in range(1, top + 2):
            if m > 1:
                pos, neg = ([p + b2 * q for p, q in zip(pos[2:], neg)],
                            [q + b2 * p for q, p in zip(neg[2:], pos)])
            first = 2 * (top + 1 - m)  # the index of k = 1
            sums = []  # (S(m, k), its condition) for k = 1..m
            for p, q in zip(pos[first:first + m], neg[first:first + m]):
                total = p - q
                if total <= 0:  # every digit cancelled
                    total, lost = mp.nan, math.inf
                else:
                    lost = max(0.0, float(mp.log10(max(p, q) / total)))
                sums.append((total, lost))
            if prev is not None:  # the states (m - 1, k), k = 1..m-1
                rows.append([(float(0.5 * num0 / ((m - 1) * den)),
                              float(num1 / ((m - 1) * den)), max(c0, c1, cd))
                             for (den, cd), (num1, c1), (num0, c0)
                             in zip(prev, sums, sums[1:])])
            prev = sums
    _exact_tables[beta] = rows
    return rows


def weights_gg_exact(n: int, k: int, params: GGParams,
                     max_condition: float = _MP_DPS - 16) -> WeightPair:
    """Predictive weights g0 = S(n+1, k+1)/(2n S(n, k)) and
    g1 = S(n+1, k)/(n S(n, k)) from the incomplete-gamma sums S of
    ``_exact_rows``, built by a recursion of positive terms in 50-digit
    fixed precision.  The one subtraction, S = P - N, cancels as n or
    beta grows; the condition estimate is the most decimal digits it
    lost in the three sums.

    Requires alpha = 1/2.  Raises PrecisionLossError when the estimated
    cancellation exceeds ``max_condition`` decimal digits; the default
    keeps at least 16 significant digits of the working precision.
    """
    _check_nk(n, k)
    if params.alpha != 0.5:
        raise UnsupportedParameterError(
            "exact route supports alpha = 1/2 only; use the quadrature route")
    if params.a == 0.0:
        return _weights_stable(n, k, params.alpha)
    g0, g1, condition = _exact_rows(n, params.beta)[n - 1][k - 1]
    if condition > max_condition:
        raise PrecisionLossError(
            f"alternating sums cancelled {condition:.1f} decimal digits "
            f"(threshold {max_condition}); use the quadrature route",
            condition_estimate=condition)
    return WeightPair(g0=g0, g1=g1, condition_estimate=condition)


def _weights_stable(n: int, k: int, alpha: float) -> WeightPair:
    """Normalized-stable (a = 0) closed form: g0 = alpha*k/n, g1 = 1/n."""
    return WeightPair(g0=alpha * k / n, g1=1.0 / n, condition_estimate=0.0)


# ---------------------------------------------------------------------------
# Quadrature route: one log-space kernel for V(n, k) and w(n, k)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_LOG_DROP = 40.0  # integrate where the log integrand is within 40 of its peak


def _log_integrand(u, k, c, params: GGParams):
    """(f, p, q) at u = log x, with c = n - alpha*k: f is the log of the
    V(n, k) integrand x^n (tau+x)^(alpha*k-n) exp{-(a/alpha)(tau+x)^alpha}
    in u (its constant factor e^beta left out), p = x/(tau+x) and
    q = a (tau+x)^alpha."""
    a, tau, alpha = params.a, params.tau, params.alpha
    t = tau * np.exp(-u)
    log1p_t = np.log1p(t)  # log(tau + x) - u
    q = a * np.exp(alpha * (u + log1p_t))
    return alpha * k * u - c * log1p_t - q / alpha, 1.0 / (1.0 + t), q


def _newton(step, u):
    """Iterate u += step(u) on each element until it has taken a step
    below 1e-6, so that an element's result does not depend on the
    others in its batch."""
    active = np.ones(u.shape, dtype=bool)
    for _ in range(100):
        du = step(u)
        u = np.where(active, u + du, u)
        active &= np.abs(du) >= 1e-6
        if not active.any():
            return u
    raise NumericalError("Newton iteration on the V(n, k) integrand "
                         "did not converge")


def _log_v_w(n: np.ndarray, k: np.ndarray, params: GGParams):
    """(log V(n, k), w(n, k)) for float arrays of states, a > 0.

    In u = log x the integrand is strictly log-concave for every n >= 1,
    so its mode is interior.  Newton finds the mode, starting from the
    larger of the two large-x balances of f' = 0, a x^alpha = alpha*k
    and a x^alpha = c*tau/x, with steps clipped to +-2, and then the
    two points where the log integrand has dropped _LOG_DROP below its
    peak, starting sigma*sqrt(2*_LOG_DROP) either side with
    sigma = (-f'')^(-1/2) (concavity makes these iterates monotone once
    they are outside the root).  A 64-node Gauss-Legendre rule on each
    side of the mode gives V and, on the same nodes weighted by
    x/(tau+x), the numerator of w(n, k) = E[x/(tau+x)].
    """
    a, tau, alpha = params.a, params.tau, params.alpha
    n, k = n[:, None, None], k[:, None, None]  # (state, side, node)
    c = n - alpha * k

    def derivatives(u):
        f, p, q = _log_integrand(u, k, c, params)
        d2 = -(c + q) * p * (1.0 - p) - alpha * q * p * p
        return f, n - (c + q) * p, d2

    def mode_step(u):
        _, d1, d2 = derivatives(u)
        return np.clip(-d1 / d2, -2.0, 2.0)

    mode = _newton(mode_step, np.maximum(np.log(alpha * k / a) / alpha,
                                         np.log(c * tau / a) / (1.0 + alpha)))
    peak, _, d2 = derivatives(mode)

    def cut_step(u):
        f, d1, _ = derivatives(u)
        return (peak - _LOG_DROP - f) / d1

    sides = np.array([[-1.0], [1.0]])
    cuts = _newton(cut_step, mode + sides * np.sqrt(2.0 * _LOG_DROP / -d2))
    half = 0.5 * (cuts - mode)
    f, p, _ = _log_integrand(mode + half * (1.0 + _GL_NODES), k, c, params)
    mass = np.exp(f - peak) * _GL_WEIGHTS * np.abs(half)
    den = mass.sum(axis=(1, 2))
    log_v = (peak.ravel() + params.beta + np.log(den)
             + k.ravel() * math.log(a) - gammaln(n.ravel()))
    return log_v, (mass * p).sum(axis=(1, 2)) / den


_rows = {}  # params -> {n: (log V(n, k), w(n, k)) for k = 1..top}


def _row(n: int, k: int, params: GGParams):
    """The kernel's n-row, k = 1..top with top >= k.  A row is built up
    to top = max(2k, 64), capped at n, and rebuilt when a larger k is
    asked for, so it at least doubles each time: a walk that needs one
    k per n, as the urn does, pays for O(k) states per n, not n."""
    rows = _rows.setdefault(params, {})
    row = rows.get(n)
    if row is None or k > len(row[0]):
        top = min(n, max(2 * k, 64))
        row = rows[n] = _log_v_w(np.full(top, float(n)),
                                 np.arange(1.0, top + 1.0), params)
    return row


def log_v(n: int, k: int, params: GGParams) -> float:
    """log V(n, k): normalizing constant of the Gibbs partition law,
    V(n, k) = (a^k / Gamma(n)) * integral of the unimodal integrand
    x^(n-1) exp{-(a/alpha)[(tau+x)^alpha - tau^alpha]} (tau+x)^(alpha*k-n)
    over x > 0, read from the kernel's n-row."""
    _check_nk(n, k)
    a, alpha = params.a, params.alpha
    if a == 0.0:
        # the integral diverges at a = 0, but V has an elementary form
        return (k - 1) * math.log(alpha) + math.lgamma(k) - math.lgamma(n)
    return float(_row(n, k, params)[0][k - 1])


def weights_gg_quadrature(n: int, k: int, params: GGParams) -> WeightPair:
    """Predictive weights from the kernel's w(n, k), the mean of
    x/(tau+x) under the V(n, k) integrand: g1 = V(n+1, k)/V(n, k) = w/n
    and g0 = 1 - (1 - alpha*k/n) w."""
    _check_nk(n, k)
    if params.a == 0.0:
        return _weights_stable(n, k, params.alpha)
    w = float(_row(n, k, params)[1][k - 1])
    return WeightPair(g0=1.0 - (1.0 - params.alpha * k / n) * w, g1=w / n)


def weights_gg_asymptotic(n: int, k: int, params: GGParams) -> WeightPair:
    """Second-order large-n weights (alpha = 1/2 only):
    g0 = alpha*k/n + (beta/s_n)/n, g1 = 1/n - (beta/s_n)/n^2,
    with s_n = k/n^alpha."""
    _check_nk(n, k)
    alpha = params.alpha
    if alpha != 0.5:
        raise UnsupportedParameterError(
            "second-order weight expansion is derived for alpha = 1/2 only")
    s_n = k / n ** alpha
    correction = params.beta / s_n
    return WeightPair(g0=alpha * k / n + correction / n,
                      g1=1.0 / n - correction / n ** 2,
                      condition_estimate=0.0)


def weights_gg_batch(n_arr: np.ndarray, k_arr: np.ndarray, params: GGParams):
    """(g0, g1) arrays for arrays of states, unclipped: the kernel's
    g1 = w/n and g0 = 1 - (1 - alpha*k/n) w, or the a = 0 closed form."""
    n = np.asarray(n_arr, dtype=float)
    k = np.asarray(k_arr, dtype=float)
    if np.any((k < 1) | (k > n)):
        raise DomainError("states must have 1 <= k <= n")
    if params.a == 0.0:
        return params.alpha * k / n, 1.0 / n
    w = _log_v_w(n, k, params)[1]
    return 1.0 - (1.0 - params.alpha * k / n) * w, w / n


def g0_batch(n_arr: np.ndarray, k_arr: np.ndarray,
             params: GGParams) -> np.ndarray:
    """g0(n, k) = 1 - (1 - alpha*k/n) w(n, k) for arrays of states."""
    return np.clip(weights_gg_batch(n_arr, k_arr, params)[0], 0.0, 1.0)


# ---------------------------------------------------------------------------
# EPPF

def eppf_log(block_sizes, params: GGParams) -> float:
    """Log probability of an unordered block-size configuration:
    log V(n, k) + sum_j log (1 - alpha)_(n_j - 1)."""
    sizes = list(block_sizes)
    if not sizes or any((s < 1 or s != int(s)) for s in sizes):
        raise DomainError("block sizes must be a nonempty list of positive "
                          "integers")
    alpha = params.alpha
    log_poch = sum(math.lgamma(s - alpha) for s in sizes)
    return (log_v(int(sum(sizes)), len(sizes), params) + log_poch
            - len(sizes) * math.lgamma(1.0 - alpha))


def eppf(block_sizes, params: GGParams) -> float:
    """Probability of the given unordered block-size configuration;
    invariant under permutation of the sizes."""
    return math.exp(eppf_log(block_sizes, params))


# ---------------------------------------------------------------------------
# Singleton-count law

def _no_singleton_log_row(size: int, alpha: float) -> np.ndarray:
    """log D(size, j) for j = 0..size//2, where D(N, j) sums
    prod_i (1 - alpha)_(n_i - 1) over the partitions of N items into j
    blocks none of which is a singleton (-inf where there are none).

    Built by the recursion, all of whose terms are positive,

        D(N+1, j) = (N - j alpha) D(N, j) + N (1 - alpha) D(N-1, j-1),

    from D(0, 0) = 1: item N+1 either joins one of the j blocks, or
    pairs with one of the N others, whose singleton it was.
    """
    width = size // 2 + 1
    prev = np.full(width, -np.inf)
    prev[0] = 0.0
    cur = np.full(width, -np.inf)
    for n in range(1, size):
        js = np.arange(1, (n + 1) // 2 + 1)  # n - j alpha > 0 on this range
        row = np.full(width, -np.inf)
        row[js] = np.logaddexp(np.log(n - js * alpha) + cur[js],
                               math.log(n * (1.0 - alpha)) + prev[js - 1])
        prev, cur = cur, row
    return cur if size else prev


def _log_sum_over_k(n: int, k0: int, log_weights: np.ndarray,
                    params: GGParams) -> float:
    """log sum_j V(n, k0 + j) exp(log_weights[j]) over the finite
    weights; -inf when there are none."""
    terms = [log_v(n, k0 + int(j), params) + log_weights[j]
             for j in np.flatnonzero(np.isfinite(log_weights))]
    return float(np.logaddexp.reduce(terms)) if terms else -np.inf


def m1_pmf(n: int, m: int, params: GGParams) -> float:
    """P(number of size-one blocks = m) in an n-sample:
    sum_k V(n, k) binom(n, m) D(n - m, k - m), with the no-singleton
    weights D of _no_singleton_log_row."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0 <= m <= n:
        raise DomainError("m must be in [0, n]")
    rest = n - m
    log_sum = _log_sum_over_k(n, m, _no_singleton_log_row(rest, params.alpha),
                              params)
    log_binom = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(rest + 1)
    return math.exp(log_binom + log_sum)


def m1_factorial_moment(n: int, r: int, params: GGParams) -> float:
    """r-th falling-factorial moment of the singleton count:
    E[M1 (M1-1) ... (M1-r+1)] = (n)_[r] P(items 1..r are singletons)
    = (n)_[r] sum_k V(n, k) C(n-r, k-r, alpha) / alpha^(k-r)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 1 <= r <= n:
        raise DomainError("r must be in [1, n]")
    rest = n - r
    log_c = gen_factorial_coeff_log_table(rest, rest, params.alpha)[rest]
    log_sum = _log_sum_over_k(
        n, r, log_c - np.arange(rest + 1) * math.log(params.alpha), params)
    log_falling = math.lgamma(n + 1) - math.lgamma(rest + 1)
    return math.exp(log_falling + log_sum)


# ---------------------------------------------------------------------------
# Exact moments of the partition law conditioned on the number of blocks

def conditional_pair_probability(n: int, k: int, alpha: float = 0.5) -> float:
    """P(two given items fall in the same block | K_n = k) under any
    Gibbs-type partition with discount alpha.

    Conditioning on the number of blocks removes the V-weights, leaving
    the law proportional to prod_j (1 - alpha)_(n_j - 1) over set
    partitions of [n] with k blocks; the normalizer is
    C(n, k, alpha) / alpha^k.  The pair probability is obtained by
    size-biasing the block of the first item.
    """
    if n < 2:
        raise DomainError("pair probability needs n >= 2")
    if not 1 <= k <= n:
        raise DomainError("k must lie in [1, n]")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if k == n:
        return 0.0
    table = gen_factorial_coeff_log_table(n, k, alpha)
    log_norm = table[n, k]
    log_poch = np.cumsum(np.log(np.arange(n - k + 1) + (1.0 - alpha)))
    m = np.arange(2, n - k + 2)
    log_weight = (math.lgamma(n)
                  - np.array([math.lgamma(v) for v in m])
                  - np.array([math.lgamma(n - v + 1) for v in m])
                  + log_poch[m - 2] + table[n - m, k - 1]
                  + math.log(alpha))
    return float(np.sum(np.exp(log_weight - log_norm) * (m - 1) / (n - 1)))


def conditional_phi2_mean(n: int, k: int, alpha: float = 0.5) -> float:
    """Exact E[sum_j (n_j / n)^2 | K_n = k] for a Gibbs-type partition
    with discount alpha (independent of the V-weights)."""
    p = conditional_pair_probability(n, k, alpha)
    return (n * (n - 1) * p + n) / (n * n)
