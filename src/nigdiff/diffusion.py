"""The rescaled cluster-count chain, its square-root diffusion limit
dS = (beta/S) dt + sqrt(S) dB, boundary analytics (scale function,
speed measure, stationary-density candidate), and the action of the
limiting frequency generator on power-sum test functions.

Chain paths come from one engine: ``simulate_chain_ensemble`` reads
transition tables built once per call from one row of the batch weight
evaluator (``gibbs.weights_batch``, or the large-n expansion in
asymptotic mode) and advances R replicas with the compiled
``chain_run`` loop (``_kernels.c``, built by gcc once per source and
loaded on the first call in a process).  The loop draws one uniform per
replica-step from the bit generator of a numpy ``Generator``, in the
order of one ``rng.random(R)`` per step, and no more.

scipy is imported only inside ``stationary_tail_partial_integral``,
whose quadrature is its one use here; the chain, the SDE and the
generator actions run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, InternalConsistencyError, NumericalError
from .gibbs import GGParams, _asymptotic, weights_batch
from .specfun import exp_integral_ei

SDE_FLOOR_GUARD = 1e-12


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class ChainState:
    """Cluster count k out of n items; k = 1 and k = n are barriers."""

    k: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("chain requires n >= 2")
        if not 1 <= self.k <= self.n:
            raise DomainError(f"k must be in [1, n], got {self.k}")


@dataclass(frozen=True)
class DiversityPath:
    """A rescaled trajectory: values[i] observed at times[i]."""

    times: tuple
    values: tuple
    rescaling: dict

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise DomainError("times and values must have equal length")


@dataclass(frozen=True)
class SimplexPoint:
    """Decreasingly ordered nonnegative frequencies summing to <= 1."""

    coords: tuple

    def __post_init__(self):
        c = self.coords
        if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
            raise DomainError("coords must be sorted decreasingly")
        if c and (c[-1] < -1e-15 or sum(c) > 1.0 + 1e-12):
            raise DomainError("coords must be nonnegative with sum <= 1")

    def power_sum(self, m: int) -> float:
        """phi_m = sum of m-th powers of the coordinates."""
        if m < 1:
            raise DomainError("power sum requires m >= 1")
        return float(sum(c ** m for c in self.coords))


# ---------------------------------------------------------------------------
# Cluster-count chain

_WEIGHTS = {"exact": weights_batch, "asymptotic": _asymptotic}


def _up_down(n: int, lo: int, hi: int, params, mode: str):
    """(p_up, p_down) arrays of the cluster-count chain on n items at
    k = lo..hi, checked, from one weight row at n - 1:
    p_up = (1 - alpha*k/n) g0(n-1, k) and
    p_down = (alpha*k/n) g1(n-1, k-1) (n-1 - alpha*(k-1)),
    with barriers at k = 1 and k = n (and 0 at k = 0)."""
    if n < 2:
        raise DomainError("chain requires n >= 2")
    if mode not in _WEIGHTS:
        raise DomainError(f"unknown mode {mode!r}")
    j = np.arange(lo - 1, hi + 1)  # the row's k, 0 where it leaves [1, n-1]
    inside = (j >= 1) & (j < n)
    g0, g1 = np.zeros((2, j.size))
    g0[inside], g1[inside] = _WEIGHTS[mode](n - 1, j[inside], params)
    alpha, k = params.alpha, j[1:]
    p_up = (1.0 - alpha * k / n) * g0[1:]
    p_down = (alpha * k / n) * g1[:-1] * (n - 1 - alpha * (k - 1))
    for p in (p_up, p_down, 1.0 - p_up - p_down):
        bad = np.flatnonzero(~((0.0 <= p) & (p <= 1.0)))
        if bad.size:
            raise InternalConsistencyError(
                f"transition probability {float(p[bad[0]])!r} outside "
                f"[0, 1] at n={n}, k={k[bad[0]]}, mode={mode}")
    return p_up, p_down


def chain_transition_probs(state: ChainState, params: GGParams,
                           mode: str = "exact"):
    """(p_up, p_down, p_stay) of the cluster-count chain:
    p_up = (1 - alpha*k/n) g0(n-1, k), and
    p_down = (alpha*k/n) g1(n-1, k-1) (n-1 - alpha*(k-1)),
    with barriers at k = 1 and k = n."""
    p_up, p_down = (float(p[0]) for p in _up_down(state.n, state.k,
                                                    state.k, params, mode))
    return p_up, p_down, 1.0 - p_up - p_down


@dataclass(frozen=True)
class IncrementMoments:
    """Exact one-step moments of the rescaled increment k/n^alpha, with
    the large-n predictions (beta/s_n)/n^(1+alpha) for the mean and
    2*alpha*s_n/n^(1+alpha) for the second moment (one rescaled-clock
    tick is n^-(1+alpha), and the limit diffusion has variance rate
    2*alpha*s)."""

    mean: float
    second_moment: float
    mean_asymptotic: float
    second_moment_asymptotic: float


def chain_increment_moments(state: ChainState, params: GGParams,
                            mode: str = "exact") -> IncrementMoments:
    p_up, p_down, _ = chain_transition_probs(state, params, mode)
    alpha = params.alpha
    n, k = state.n, state.k
    step = n ** (-alpha)
    s_n = k / n ** alpha
    return IncrementMoments(
        mean=(p_up - p_down) * step,
        second_moment=(p_up + p_down) * step ** 2,
        mean_asymptotic=(params.beta / s_n) / n ** (1 + alpha),
        second_moment_asymptotic=2 * alpha * s_n / n ** (1 + alpha))


def _transition_tables(n: int, params: GGParams, mode: str):
    """(p_up[k], p_down[k]) for k = 0..n (index 0 unused)."""
    return _up_down(n, 0, n, params, mode)


def simulate_chain(n: int, steps: int, k0: int, params: GGParams,
                   rng: np.random.Generator, mode: str = "exact",
                   record_every: int = 1) -> DiversityPath:
    """Path of k/n^alpha at the rescaled clock t = step / n^(1+alpha),
    the clock of ``chain_increment_moments``."""
    path = simulate_chain_ensemble(n, steps, k0, params, 1, rng, mode,
                                   record_every)
    alpha = params.alpha
    times = tuple(i * record_every / n ** (1 + alpha)
                  for i in range(path.shape[0]))
    values = tuple(path[:, 0] / n ** alpha)
    return DiversityPath(times=times, values=values,
                         rescaling={"space_exponent": alpha,
                                    "time_exponent": 1 + alpha})


def simulate_chain_ensemble(n: int, steps: int, k0: int, params: GGParams,
                            replicates: int, rng: np.random.Generator,
                            mode: str = "exact",
                            record_every: int = 1) -> np.ndarray:
    """Raw k-paths of shape (recorded_steps + 1, replicates), with all
    replicates advanced jointly from precomputed transition tables by
    the compiled ``chain_run``.

    Each replica-step reads one uniform u from ``rng``, a numpy
    ``Generator`` (anything else raises ``DomainError``), in the order of
    ``rng.random(replicates)`` per step, and both moves are decided from
    the pre-step k: up when u < p_up[k], down when u > 1 - p_down[k]."""
    if not 1 <= k0 <= n:
        raise DomainError("k0 must be in [1, n]")
    if steps < 0 or replicates < 1 or record_every < 1:
        raise DomainError("steps >= 0, replicates >= 1, record_every >= 1")
    p_up, p_down = (np.ascontiguousarray(p, dtype=np.float64)
                    for p in _transition_tables(n, params, mode))
    if (p_up.shape != (n + 1,) or p_down.shape != (n + 1,) or p_up[n]
            or p_down[1]):
        raise InternalConsistencyError("transition tables leave [1, n]")
    k = np.full(replicates, k0, dtype=np.int32)
    out = np.empty((steps // record_every + 1, replicates), dtype=np.int32)
    out[0] = k
    _kernels.run("chain_run", rng, replicates, steps, record_every,
                 p_up.ctypes.data, p_down.ctypes.data, k.ctypes.data,
                 out[1:].ctypes.data)
    return out


# ---------------------------------------------------------------------------
# The square-root diffusion

def sde_step(s: float, dt: float, beta: float,
             rng: np.random.Generator) -> float:
    """One full-truncation Euler-Maruyama step of
    dS = (beta/S) dt + sqrt(S) dB; 0 is absorbing when beta = 0."""
    if dt <= 0:
        raise DomainError("dt must be positive")
    if beta < 0:
        raise DomainError("beta must be >= 0")
    if beta == 0.0 and s <= 0.0:
        return 0.0
    drift = beta / max(s, SDE_FLOOR_GUARD)
    diffusion = math.sqrt(max(s, 0.0) * dt) * rng.standard_normal()
    return max(s + drift * dt + diffusion, 0.0)


def simulate_sde(s0: float, beta: float, dt: float, steps: int,
                 rng: np.random.Generator) -> DiversityPath:
    """Euler-Maruyama path of the square-root diffusion."""
    if s0 < 0:
        raise DomainError("s0 must be >= 0")
    values = [s0]
    s = s0
    for _ in range(steps):
        s = sde_step(s, dt, beta, rng)
        values.append(s)
    times = tuple(i * dt for i in range(steps + 1))
    return DiversityPath(times=times, values=tuple(values),
                         rescaling={"space_exponent": 1.0,
                                    "time_exponent": 1.0})


# ---------------------------------------------------------------------------
# Boundary analytics

def scale_function(x: float, beta: float, x0: float = 1.0,
                   y0: float = 1.0) -> float:
    """Scale function S(x) = int_x0^x exp{-int_y0^y 2 mu/sigma^2} dy for
    mu = beta/y, sigma^2 = y, in closed form via the exponential
    integral.  S(x0) = 0 and S is increasing."""
    if x <= 0 or x0 <= 0 or y0 <= 0:
        raise DomainError("scale_function requires positive arguments")
    if beta <= 0:
        raise DomainError("scale_function requires beta > 0")
    try:
        return math.exp(-2 * beta / y0) * (
            x * math.exp(2 * beta / x) - x0 * math.exp(2 * beta / x0)
            - 2 * beta * exp_integral_ei(2 * beta / x)
            + 2 * beta * exp_integral_ei(2 * beta / x0))
    except OverflowError as exc:
        raise NumericalError(f"scale function overflows double precision "
                             f"at x={x}, beta={beta}") from exc


def speed_measure(c: float, d: float, beta: float, y0: float = 1.0) -> float:
    """Speed measure M[c, d] = int_c^d [sigma^2(t) s(t)]^-1 dt in closed
    form: exp(2 beta / y0) [Ei(-2 beta / c) - Ei(-2 beta / d)]."""
    if not 0 < c < d:
        raise DomainError("speed_measure requires 0 < c < d")
    if beta <= 0 or y0 <= 0:
        raise DomainError("speed_measure requires beta > 0 and y0 > 0")
    try:
        return math.exp(2 * beta / y0) * (exp_integral_ei(-2 * beta / c)
                                          - exp_integral_ei(-2 * beta / d))
    except OverflowError as exc:
        raise NumericalError(f"speed measure overflows double precision "
                             f"at beta={beta}, y0={y0}") from exc


def stationary_density_candidate(x: float, beta: float, c1: float,
                                 c2: float) -> float:
    """The general solution psi of the stationarity ODE:
    psi(x) = C1 - 2 beta C1 x^-1 e^(-2 beta/x) Ei(2 beta/x)
             + C2 x^-1 e^(-2 beta/x).
    No choice of (C1, C2) is integrable on (0, inf), so no stationary
    density exists; see stationary_tail_partial_integral."""
    if x <= 0:
        raise DomainError("x must be positive")
    if beta <= 0:
        raise DomainError("beta must be positive")
    core = math.exp(-2 * beta / x) / x
    return c1 - 2 * beta * c1 * core * exp_integral_ei(2 * beta / x) \
        + c2 * core


def stationary_tail_partial_integral(t_upper: float, beta: float,
                                     lower: float = 1.0) -> float:
    """int_lower^T x^-1 e^(-2 beta/x) dx by quadrature: grows like ln T,
    certifying that the C2 term of the candidate is not integrable."""
    if not 0 < lower < t_upper:
        raise DomainError("need 0 < lower < T")
    from scipy import integrate
    val, err = integrate.quad(
        lambda x: math.exp(-2 * beta / x) / x, lower, t_upper,
        epsabs=1e-12, epsrel=1e-10, limit=300)
    if not np.isfinite(val):
        raise NumericalError("partial-integral quadrature failed")
    return val


# ---------------------------------------------------------------------------
# Generator action on power sums

def generator_action_power_sum(m: int, s: float, point: SimplexPoint,
                               params: GGParams) -> float:
    """Action of the frequency part of the limiting generator on the
    power sum phi_m = sum z_i^m, in closed form:

        A1 phi_m = (m/2) [(m - 1 - alpha) phi_{m-1}
                          - (m - 1 + beta/s) phi_m],

    with phi_1 = 1 on the simplex.  The action stays in the span of
    {phi_{m-1}, phi_m} (triangularity of the generator)."""
    if m < 2:
        raise DomainError("power-sum action requires m >= 2")
    if s <= 0:
        raise DomainError("s must be positive")
    total = sum(point.coords)
    if abs(total - 1.0) > 1e-9:
        raise DomainError("point must lie on the simplex (sum = 1)")
    phi_m = point.power_sum(m)
    phi_prev = 1.0 if m == 2 else point.power_sum(m - 1)
    theta = params.beta / s
    return 0.5 * m * ((m - 1 - params.alpha) * phi_prev
                      - (m - 1 + theta) * phi_m)
