"""Predictive weights, partition probabilities and singleton-count law
for generalized-gamma (in particular normalized inverse-Gaussian) and
Poisson-Dirichlet random measures.

Two routes are provided for the generalized-gamma predictive weights
(g0, g1), plus an approximation:

* ``weights_gg_exact`` — the independent reference, alpha = 1/2 only.
  V(n, k) is, up to a prefactor, an alternating sum S = P - N of
  incomplete-gamma terms.  One multiprecision build per beta runs a
  two-term recursion in which every term is positive, P(n+1, k) =
  P(n, k) + beta^2 N(n, k-2) and N(n+1, k) = N(n, k) + beta^2 P(n, k-2),
  and keeps only a float table of (g0, g1, condition).  The single
  subtraction P - N is the one cancellation left; it grows with n and
  beta, and the build starts at 50 digits and doubles them until every
  sum keeps 16, so the route answers every state.
* ``weights_gg_quadrature`` — read from one vectorized log-space kernel
  that integrates the unimodal V(n, k) integrand with Newton-located
  cut-offs and Gauss-Legendre nodes, returning log V(n, k) and
  w(n, k) = E[x/(tau+x)], from which g1 = w/n and
  g0 = 1 - (1 - alpha*k/n) w.  Uniformly stable, any alpha.
* ``weights_gg_asymptotic`` — the second-order large-n approximation
  g0 = alpha*k/n + (beta/s_n)/n, g1 = 1/n - (beta/s_n)/n^2.

The same kernel backs ``log_v``, which scalar callers read, like
``weights_gg_quadrature``, from one table of n-rows per parameter set,
and ``weights_batch``, which evaluates arrays of states for every
engine, alone dispatches on the parameter type and alone writes the
closed forms, which ``weights_pd`` and the a = 0 scalar routes read.
Every engine table passes one row check, ``_check_weight_row``.  The
urns read one evaluator row per block of steps and fill in the rows
below it by the positive recursion of the Gibbs triangle,
V(n, k) = (n - alpha*k) V(n+1, k) + V(n+1, k+1), run compiled
(``_kernels.c`` ``g0_descend``).

The partition laws (EPPF, singleton-count law and its factorial
moments) are sums of positive terms V(n, k) times weighted partition
counts, the counts built by positive triangular recursions in log
space, so they need no cancellation control.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (DomainError, InternalConsistencyError, NumericalError,
                     UnsupportedParameterError)
from .specfun import gen_factorial_coeff_log_table

_MP_DPS = 50  # the exact route's least working precision, in decimal digits


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
    return _closed_form(n, k, params)


def _closed_form(n: int, k: int, params) -> WeightPair:
    """One state of a closed form of ``weights_batch``."""
    g0, g1 = weights_batch(n, k, params)
    return WeightPair(g0=float(g0), g1=float(g1))


# ---------------------------------------------------------------------------
# Exact route: a positive two-term recursion in multiprecision

_exact_tables = {}  # beta -> rows, rows[n - 1][k - 1] = (g0, g1, condition)


def _exact_rows(n: int, beta: float):
    """Float rows (g0, g1, condition) for the states 1 <= k <= n' <= top,
    top >= n; a larger n rebuilds them to at least twice the old top.
    A state keeps its value from the first working precision, doubling
    from _MP_DPS, that leaves it 16 significant digits after its
    condition and the downward Gamma(-m; beta) recursion's error growth,
    about beta^m / m! at its peak m = floor(beta)."""
    rows = _exact_tables.get(beta, [])
    if n <= len(rows):
        return rows
    m = math.floor(beta)
    spare = 16 + m * math.log10(beta) - math.lgamma(m + 1) / math.log(10)
    top, dps = max(n, 64, 2 * len(rows)), max(_MP_DPS, math.ceil(spare))
    rows = _exact_build(top, beta, dps)
    while max(c for row in rows for *_, c in row) > dps - spare:
        rows = [[old if old[2] <= dps - spare else new
                 for old, new in zip(*pair)]
                for pair in zip(rows, _exact_build(top, beta, 2 * dps))]
        dps *= 2
    _exact_tables[beta] = rows
    return rows


def _exact_build(top: int, beta: float, dps: int):
    """Float rows (g0, g1, condition) for 1 <= k <= n <= top from one
    build at ``dps`` decimal digits; no multiprecision value outlives it.

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
    rows, prev = [], None
    with mp.workdps(dps):
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
    return rows


def weights_gg_exact(n: int, k: int, params: GGParams) -> WeightPair:
    """Predictive weights g0 = S(n+1, k+1)/(2n S(n, k)) and
    g1 = S(n+1, k)/(n S(n, k)) from the incomplete-gamma sums S of
    ``_exact_rows``, each kept to 16 significant digits or more; the
    condition estimate is the most decimal digits their one
    subtraction, S = P - N, cancelled.  Requires alpha = 1/2.
    """
    _check_nk(n, k)
    if params.alpha != 0.5:
        raise UnsupportedParameterError(
            "exact route supports alpha = 1/2 only; use the quadrature route")
    if params.a == 0.0:
        return _closed_form(n, k, params)
    g0, g1, condition = _exact_rows(n, params.beta)[n - 1][k - 1]
    return WeightPair(g0=g0, g1=g1, condition_estimate=condition)


# ---------------------------------------------------------------------------
# Quadrature route: one log-space kernel for V(n, k) and w(n, k)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_LOG_DROP = 40.0  # integrate where the log integrand is within 40 of its peak
_KERNEL_PASS = 256  # most states per pass, to bound the (state, 2, 64) arrays


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
    if n.size > _KERNEL_PASS:  # in equal passes
        passes = -(-n.size // _KERNEL_PASS)
        parts = [_log_v_w(*pair, params) for pair in
                 zip(np.array_split(n, passes), np.array_split(k, passes))]
        return tuple(np.concatenate(part) for part in zip(*parts))
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
    # math.lgamma keeps scipy off the kernel's path; it can differ from
    # scipy's gammaln by an ulp, which moves log V but not w
    log_gamma_n = np.array([math.lgamma(m) for m in n.ravel().tolist()])
    log_v = (peak.ravel() + params.beta + np.log(den)
             + k.ravel() * math.log(a) - log_gamma_n)
    return log_v, (mass * p).sum(axis=(1, 2)) / den


_rows = {}  # params -> {n: (log V(n, k), w(n, k)) for k = 1..top}


def _row(n: int, k: int, params: GGParams):
    """The kernel's n-row, k = 1..top with top >= k.  A row is built up
    to top = max(2k, 64), capped at n, and rebuilt when a larger k is
    asked for, so it at least doubles each time."""
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
        return _closed_form(n, k, params)
    w = float(_row(n, k, params)[1][k - 1])
    return WeightPair(g0=1.0 - (1.0 - params.alpha * k / n) * w, g1=w / n)


def weights_gg_asymptotic(n: int, k: int, params: GGParams) -> WeightPair:
    """Second-order large-n weights (alpha = 1/2 only):
    g0 = alpha*k/n + (beta/s_n)/n, g1 = 1/n - (beta/s_n)/n^2,
    with s_n = k/n^alpha."""
    _check_nk(n, k)
    g0, g1 = _asymptotic(n, k, params)
    return WeightPair(g0=g0, g1=g1, condition_estimate=0.0)


def _asymptotic(n, k, params: GGParams):
    """``weights_gg_asymptotic``'s (g0, g1), unchecked, for arrays too."""
    alpha = params.alpha
    if alpha != 0.5:
        raise UnsupportedParameterError(
            "second-order weight expansion is derived for alpha = 1/2 only")
    s_n = k / n ** alpha
    correction = params.beta / s_n
    return alpha * k / n + correction / n, 1.0 / n - correction / n ** 2


def weights_batch(n_arr, k_arr, params):
    """(g0, g1) arrays in the broadcast shape of the two state arrays
    (scalars included), unchecked: for Poisson-Dirichlet params the closed
    form g0 = (theta + alpha*k)/(theta + n), g1 = 1/(theta + n); for
    generalized-gamma params the kernel's g1 = w/n and g0 = 1 - (1 -
    alpha*k/n) w, or the closed form g0 = alpha*k/n, g1 = 1/n at a = 0."""
    n, k = np.broadcast_arrays(np.asarray(n_arr, dtype=float),
                               np.asarray(k_arr, dtype=float))
    if np.any((k < 1) | (k > n)):
        raise DomainError("states must have 1 <= k <= n")
    if isinstance(params, PDParams):
        denom = params.theta + n
        return (params.theta + params.alpha * k) / denom, 1.0 / denom
    if not isinstance(params, GGParams):
        raise DomainError(f"unsupported parameter type {type(params)!r}")
    if params.a == 0.0:
        return params.alpha * k / n, 1.0 / n
    w = _log_v_w(n.ravel(), k.ravel(), params)[1].reshape(n.shape)
    return 1.0 - (1.0 - params.alpha * k / n) * w, w / n


def _check_weight_row(m, k, g0, g1, alpha: float) -> None:
    """The engines' one row check: 0 <= g0 <= 1 and g0 + g1 (m - alpha*k)
    = 1 within 1e-9 at every state, else ``InternalConsistencyError``."""
    m, k, g0, g1 = np.broadcast_arrays(m, k, g0, g1)
    total = g0 + g1 * (m - alpha * k)
    bad = ~((np.abs(total - 1.0) <= 1e-9) & (0.0 <= g0) & (g0 <= 1.0))
    if bad.any():
        raise InternalConsistencyError(
            f"g0 = {g0[bad][0]!r} and g0 + g1 (m - alpha k) = "
            f"{total[bad][0]!r} at m = {m[bad][0]:g}, k = {k[bad][0]:g}")


class _RowCache(dict):
    """The engines' read-only rows by (function, arguments); the oldest
    go first once they hold more than _ROW_CACHE_BYTES."""
    nbytes = 0

    def clear(self):
        super().clear()
        self.nbytes = 0

    def __call__(self, fn):
        @functools.wraps(fn)
        def cached(*args):
            key = (fn.__name__, *args)
            rows = self.get(key)
            if rows is None:
                rows = self[key] = fn(*args)
                self.nbytes += rows.nbytes
                while self.nbytes > _ROW_CACHE_BYTES:
                    self.nbytes -= self.pop(next(iter(self))).nbytes
            return rows
        return cached


_row_cache = _RowCache()
_ROW_CACHE_BYTES = 32 << 20  # bound on the bytes of _row_cache's rows


@_row_cache
def _top_row(m: int, lo: int, hi: int, params) -> np.ndarray:
    """The evaluator's (g0, g1) at row m over k = lo..hi, checked by
    ``_check_weight_row``, as one read-only (2, hi - lo + 1) array."""
    k = np.arange(lo, hi + 1.0)
    row = np.stack(weights_batch(m, k, params))
    _check_weight_row(m, k, *row, params.alpha)
    row.flags.writeable = False
    return row


def _g0_rows(m0: int, m1: int, lo: int, hi: int, params) -> np.ndarray:
    """g0(m, k) at rows[m - m0, k - lo] for m0 <= m <= m1 and
    lo <= k <= min(m, hi + m - m0), the states an urn at m0 with block
    counts in [lo, hi] can reach by step m1 (nan elsewhere), from one
    evaluator row and a downward recursion of positive terms.

    Row m1 is ``_top_row``'s g0 over k = lo..min(m1, hi + m1 - m0),
    cached.  The urns end their blocks at m1 = n - 1, n - 257, ..., so
    at n <= 512 the scalar urn's last block spans k = 1..n - 1 and reads
    the particle table's row (``particle._g0_table``); above, its band
    is narrower and the two evaluate row n - 1 separately.  The Gibbs
    triangle V(m, k) = (m - alpha*k) V(m+1, k) + V(m+1, k+1) gives, with
    rho(m, k) = V(m, k+1)/V(m, k) and d(m, k) = V(m, k)/V(m+1, k),

        d(m, k) = (m - alpha*k) + rho(m+1, k),
        rho(m, k) = rho(m+1, k) d(m, k+1) / d(m, k),
        g0(m, k) = rho(m+1, k) / d(m, k),

    from rho(m1+1, k) = g0/g1 of the evaluator row.  Each row needs one
    more k above it, so the rows narrow by one per step down.  The rows
    below m1 come from ``_kernels.c`` ``g0_descend``, which takes these
    operations in the order a numpy loop over rows would, so they match
    that loop bit for bit; with m0 = m1 nothing is compiled.
    """
    top = min(m1, hi + m1 - m0)
    g0, g1 = _top_row(m1, lo, top, params)
    rows = np.full((m1 - m0 + 1, g0.size), np.nan)
    rows[-1] = g0
    if m1 > m0:
        rho = g0 / g1  # rho(m1 + 1, k)
        d = (m1 - params.alpha * np.arange(lo, top + 1.0)) + rho
        _kernels.lib().g0_descend(m0, m1, lo, g0.size, params.alpha,
                                  rho.ctypes.data, d.ctypes.data,
                                  rows.ctypes.data)
    rows.flags.writeable = False  # read-only, as _row_cache shares it
    return rows


_g0_blocks = _row_cache(_g0_rows)


# ---------------------------------------------------------------------------
# EPPF

def _check_block_sizes(sizes, error=DomainError) -> None:
    """Raise ``error`` unless ``sizes`` is a nonempty list of positive
    integers (integer-valued floats included; not nan or inf): the one
    rule for the block sizes every partition and particle routine takes."""
    if not sizes or any(s < 1 or s % 1 for s in sizes):
        raise error("block sizes must be a nonempty list of positive "
                    "integers")


def eppf_log(block_sizes, params: GGParams) -> float:
    """Log probability of an unordered block-size configuration:
    log V(n, k) + sum_j log (1 - alpha)_(n_j - 1)."""
    sizes = list(block_sizes)
    _check_block_sizes(sizes)
    alpha = params.alpha
    log_poch = sum(math.lgamma(s - alpha) for s in sizes)
    return (log_v(int(sum(sizes)), len(sizes), params) + log_poch
            - len(sizes) * math.lgamma(1.0 - alpha))


def eppf(block_sizes, params: GGParams) -> float:
    """Probability of the given unordered block-size configuration;
    invariant under permutation of the sizes."""
    return math.exp(eppf_log(block_sizes, params))


def integer_partitions(n: int, largest: int = None):
    """Every block-size shape of n items: the partitions of the integer
    n as descending lists, in reverse lexicographic order."""
    if n == 0:
        yield []
        return
    largest = largest or n
    for first in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield [first] + rest


def shape_count(shape) -> int:
    """Number of set partitions of n = sum(shape) items with the given
    block sizes: n! / (prod_j n_j! prod_r m_r!), m_r the multiplicity of
    size r.  So P(shape) = shape_count(shape) * eppf(shape)."""
    count = math.factorial(sum(shape))
    for size in shape:
        count //= math.factorial(size)
    for mult in collections.Counter(shape).values():
        count //= math.factorial(mult)
    return count


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

def conditional_pair_probability(n: int, k, alpha: float = 0.5):
    """P(two given items fall in the same block | K_n = k) under any
    Gibbs-type partition with discount alpha.

    Conditioning on the number of blocks removes the V-weights, leaving
    the law proportional to prod_j (1 - alpha)_(n_j - 1) over set
    partitions of [n] with k blocks; the normalizer is
    C(n, k, alpha) / alpha^k.  The pair probability is obtained by
    size-biasing the block of the first item.

    ``k`` may also be a sequence of block counts.  The list of values
    then equals that of the scalar calls, read from one table of
    log C(n, ., alpha) as wide as the largest k below n, whose entries do
    not depend on its width.
    """
    if n < 2:
        raise DomainError("pair probability needs n >= 2")
    ks = [k] if np.ndim(k) == 0 else list(k)
    if not all(1 <= v <= n for v in ks):
        raise DomainError("k must lie in [1, n]")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    top = max((v for v in ks if v < n), default=0)
    table = gen_factorial_coeff_log_table(n, top, alpha) if top else None
    values = [_pair_probability(n, v, alpha, table) if v < n else 0.0
              for v in ks]
    return values[0] if np.ndim(k) == 0 else values


def _pair_probability(n: int, k: int, alpha: float, table) -> float:
    """The pair probability at 1 <= k < n from a table of
    log C(m, j, alpha) with at least k + 1 columns."""
    log_norm = table[n, k]
    log_poch = np.cumsum(np.log(np.arange(n - k + 1) + (1.0 - alpha)))
    m = np.arange(2, n - k + 2)
    log_weight = (math.lgamma(n)
                  - np.array([math.lgamma(v) for v in m])
                  - np.array([math.lgamma(n - v + 1) for v in m])
                  + log_poch[m - 2] + table[n - m, k - 1]
                  + math.log(alpha))
    return float(np.sum(np.exp(log_weight - log_norm) * (m - 1) / (n - 1)))


def conditional_phi2_mean(n: int, k, alpha: float = 0.5):
    """Exact E[sum_j (n_j / n)^2 | K_n = k] for a Gibbs-type partition
    with discount alpha (independent of the V-weights); ``k`` may be a
    sequence, as in ``conditional_pair_probability``."""
    p = conditional_pair_probability(n, k, alpha)
    if np.ndim(k) == 0:
        return (n * (n - 1) * p + n) / (n * n)
    return [(n * (n - 1) * q + n) / (n * n) for q in p]
